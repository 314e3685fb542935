(** Automatic crash bisection: shrink a crashing replay to the
    smallest divergent suffix that still reproduces.

    Input is a clean seed prefix plus crashing seeds (the shape a
    {!Iris_fuzzer.Campaign} verdict yields: the recorded trace up to
    the mutated seed, then the mutant).  The bisector binary-searches
    the largest prefix that can be dropped while the mutant still
    kills the VM with the same crash.  Every start [j] a search tries
    is replayed once, on one dummy, and pinned with a copy-on-write
    {!Iris_hv.Checkpoint} mark; each attempt at [j] submits only its
    crasher there and rewinds to the mark, so the crashers of one
    prefix share every replayed state (rewinding to a mark is
    observably a fresh replay).  The surviving suffix plus the mutant
    is the reproducer, re-replayed twice from scratch under a seed
    recorder to prove the repro is deterministic (byte-identical
    encoded traces). *)

type result = {
  b_suffix_start : int;
      (** first kept prefix index; [seeds = prefix[start..] + crasher] *)
  b_seeds : Iris_core.Seed.t array;  (** the minimized reproducer *)
  b_crash_msg : string;
  b_attempts : int;  (** attempts the search made for this crasher *)
  b_seeds_replayed : int;
      (** seeds the search replayed; a start shared by several
          crashers is charged to the first that needed it *)
  b_digest : string;
      (** hex digest of the encoded verification trace *)
  b_deterministic : bool;
      (** both verification replays produced [b_digest] *)
}

type search = {
  s_start : int;  (** becomes [b_suffix_start] *)
  s_crash_msg : string;
  s_attempts : int;
  s_seeds_replayed : int;
}
(** One crasher's search outcome, before verification. *)

val search :
  make_replayer:(unit -> Iris_core.Replayer.t) ->
  prefix:Iris_core.Seed.t array ->
  crashers:Iris_core.Seed.t array ->
  search option array
(** Bisect every crasher over the same [prefix] at once; slot [i]
    answers [crashers.(i)].  [make_replayer] must return a replayer
    over a freshly-reverted dummy at the recording's initial state; it
    is called at most once per distinct start, and the pinned states
    live only for this call.  A slot is [None] when the full prefix +
    crasher does not crash (no repro to shrink), or when the full
    prefix crashes before the mutant is reached (the crash is not the
    mutant's).  Each slot equals what a search over that crasher
    alone returns, except that [s_seeds_replayed] charges shared
    starts to one crasher. *)

val verify :
  make_replayer:(unit -> Iris_core.Replayer.t) ->
  prefix:Iris_core.Seed.t array ->
  crasher:Iris_core.Seed.t ->
  search ->
  result
(** Replay [prefix[s_start..] + crasher] twice, each time on a fresh
    dummy from [make_replayer], and package the digests with the
    search outcome. *)

val minimize :
  make_replayer:(unit -> Iris_core.Replayer.t) ->
  prefix:Iris_core.Seed.t array ->
  crasher:Iris_core.Seed.t ->
  result option
(** [search] over the one crasher, then [verify]. *)

val to_trace : ?workload:string -> result -> Iris_core.Trace.t
(** Package the reproducer as a metrics-less trace for
    {!Iris_core.Trace.save}. *)
