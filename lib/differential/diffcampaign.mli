(** Differential sweep over a recorded trace: one walk in trace
    order, then a pure index-ordered finalize.

    A walk — not independent cases — because the VM-entry checks after
    each handler consult guest state beyond the seed (mode/RIP
    consistency): every seed must run at its true predecessor state
    S_i (the §VI-B lesson), so the sweep is not sharded. *)

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

val run :
  ?plant:Iris_svm.Machine.asymmetry ->
  replayer:Iris_core.Replayer.t ->
  trace:Iris_core.Trace.t ->
  unit ->
  report
(** Walk [trace] on [replayer], a dummy at the recording's snapshot
    with no prefix replayed: every seed is classified by
    {!Oracle.run_case} (VT-x against SVM, [plant] introducing an
    intentional SVM-side asymmetry) and lossy seeds are submitted on
    the VT-x side alone, so the walk stays on the recorded path.  If
    the VT-x context dies beyond the replayer's triage, every seed's
    verdict is a crash-on-one naming the exception. *)

val finding_indices : report -> int list

val expected_planted :
  plant:Iris_svm.Machine.asymmetry -> Iris_core.Trace.t -> int list
(** Ground truth finding set for a planted run (see
    {!Oracle.expected_planted}). *)

val pp_report : Format.formatter -> report -> unit
