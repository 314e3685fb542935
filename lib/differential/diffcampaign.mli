(** Differential sweep over a recorded trace, in the [Campaign] mold:
    pure plan (contiguous trace segments) → per-segment execute (the
    only hypervisor-touching part) → pure index-ordered finalize, so
    the orchestrator can shard segments across the domain pool and the
    merged divergence report is byte-identical for any job count.

    Segments — not independent cases — because the VM-entry checks
    after each handler consult guest state beyond the seed (mode/RIP
    consistency); each segment replays its prefix so every seed runs
    at its true predecessor state S_i (the §VI-B lesson). *)

type finding = {
  f_index : int;
  f_reason : string;
  f_kind : string;  (** ["semantic"] or ["crash-on-one"] *)
  f_detail : string;
}

type report = {
  total : int;
  comparable : int;
  lossy : int;
  agreements : int;
  findings : finding list;  (** index order *)
  lossy_reasons : (string * int) list;
  plant : string option;
}

val case_count : Iris_core.Trace.t -> int
val case : Iris_core.Trace.t -> int -> Iris_core.Seed.t

val segments : jobs:int -> total:int -> (int * int) array
(** Contiguous [[a, b)] shards covering [0, total), one per job slot
    (at least one, even when the trace is empty). *)

val execute_segment :
  ?plant:Iris_svm.Machine.asymmetry ->
  replayer:Iris_core.Replayer.t ->
  anchor:Iris_fuzzer.Campaign.anchor ->
  trace:Iris_core.Trace.t ->
  int * int ->
  Oracle.verdict array
(** Run one segment: revert to the S_0 anchor, replay the prefix to
    reach the segment start, then walk it — verdicts are a function of
    (seed, trace prefix) only, so any worker may run any segment and
    the merge is deterministic. *)

val finalize :
  ?plant:Iris_svm.Machine.asymmetry ->
  verdicts:Oracle.verdict array ->
  unit ->
  report
(** Pure ordered merge; [verdicts] holds one entry per trace seed. *)

val finding_indices : report -> int list

val expected_planted :
  plant:Iris_svm.Machine.asymmetry -> Iris_core.Trace.t -> int list
(** Ground truth finding set for a planted run (see
    {!Oracle.expected_planted}). *)

val pp_report : Format.formatter -> report -> unit
