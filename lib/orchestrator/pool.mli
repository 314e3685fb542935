(** Generic work-stealing domain pool with panic containment.

    [run] executes [total] indexed tasks on [jobs] OCaml 5 domains,
    each owning opaque state built by [init] (for the orchestrator: an
    isolated hypervisor + dummy VM; for the campaign service: nothing,
    one task per job quantum).  Results land in per-index slots
    — distinct slots, one writer each — and become visible through the
    happens-before edge of [Domain.join].

    An exception escaping [task] does not take the run down: the
    worker records [on_crash exn index] as that task's result,
    rebuilds its state with [init] (respawn), and keeps draining the
    queue.  Exceptions from [init] or [on_crash] propagate out of
    [run] (re-raised by [Domain.join]).

    [jobs = 1] runs the whole schedule inline on the calling domain —
    the same code path with no spawn, so a sequential run is the
    parallel machinery with N = 1. *)

type stats = {
  mutable executed : int;    (** tasks this worker completed *)
  mutable steals : int;      (** chunks stolen from other deques *)
  mutable respawns : int;    (** times the worker state was rebuilt *)
  mutable busy_seconds : float;  (** host wall time inside [task] *)
}

val run :
  jobs:int -> total:int -> init:(int -> 'w) -> task:('w -> int -> 'r) ->
  on_crash:(exn -> int -> 'r) -> 'r array * stats array * int array
(** [run ~jobs ~total ~init ~task ~on_crash] returns the results in
    index order, per-worker stats, and a [who] array mapping each
    index to the worker that executed it. *)
