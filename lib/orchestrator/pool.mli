(** Generic domain pool with panic containment.

    [run] executes [total] indexed tasks on [jobs] OCaml 5 domains,
    each owning opaque state built by [init] (for the orchestrator: an
    isolated hypervisor + dummy VM; for the campaign service: nothing,
    one task per job quantum).  Workers claim indices from one shared
    atomic cursor, so every index runs exactly once.  Results land in
    per-index slots — distinct slots, one writer each — and become
    visible through the happens-before edge of [Domain.join].

    An exception escaping [task] does not take the run down: the
    worker records [on_crash exn index] as that task's result,
    rebuilds its state with [init] (respawn), and keeps claiming
    indices.  Exceptions from [init] or [on_crash] propagate out of
    [run], once every spawned worker has been joined.

    At most [min jobs total] workers start (at least one), so the
    stats array may be shorter than [jobs].  Worker 0 runs on the
    calling domain and only the others are spawned, so [jobs = 1] runs
    the whole schedule inline, in index order — the same code path
    with no spawn, so a sequential run is the parallel machinery with
    N = 1. *)

type stats = {
  mutable executed : int;    (** tasks this worker completed *)
  mutable respawns : int;    (** times the worker state was rebuilt *)
}

val run :
  jobs:int -> total:int -> init:(int -> 'w) -> task:('w -> int -> 'r) ->
  on_crash:(exn -> int -> 'r) -> 'r array * stats array
(** [run ~jobs ~total ~init ~task ~on_crash] returns the results in
    index order and per-worker stats. *)
