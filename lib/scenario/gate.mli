(** The behaviour gates, each written once (DESIGN.md, "Gates").  A
    gate runs its scenario on the recording and sizes it is given and
    returns what it observed, or an [Error] naming the failed check.
    [dune test] calls every gate at small sizes and the bench at the
    paper's; the CLI's [inspect --perturb] and [diff] exit with
    {!locate}'s and {!diff}'s verdicts.  A [jobs] list must not be
    empty. *)

val same : what:string -> (string * string) list -> (unit, string) result
(** [Ok ()] when every value equals the first, else an [Error] naming
    [what] and the first label whose value differs.  Every gate's
    identity check goes through it. *)

val campaign :
  recording:Iris_core.Manager.recording ->
  config:Iris_fuzzer.Campaign.config -> jobs:int list ->
  ((int * Iris_orchestrator.Orchestrator.fuzz_outcome) list, string) result
(** The standard campaign: [Orchestrator.fuzz] at every jobs count
    reports byte-identically to the oracle — [Campaign.execute] on one
    [Orchestrator.dummy] restored through
    [Campaign.Anchor_full (Campaign.reach_sr ...)] — and the merged
    telemetry is byte-identical across jobs counts.  Returns the runs
    in order. *)

val trace_digest :
  (unit -> Iris_core.Manager.recording) -> (string, string) result
(** Two records have the same [Trace.digest], which is returned. *)

type locate = {
  divergence : Iris_core.Analysis.divergence;
      (** the linear ground truth: one instrumented whole-prefix replay *)
  report : Iris_inspect.Locator.report;
}

val locate :
  manager:Iris_core.Manager.t -> recording:Iris_core.Manager.recording ->
  reference:Iris_core.Trace.t -> ?planted:int -> ?thorough:bool ->
  every:int -> Iris_core.Seed.t array -> (locate, string) result
(** Replaying the seeds from the recording's snapshot, the locator
    (checkpoint period [every]) and the linear ground truth name the
    same first seed diverging from [reference], and it is [planted]
    when given. *)

type diff = {
  unperturbed : Iris_differential.Diffcampaign.report;
  planted :
    (Iris_svm.Machine.asymmetry * int list
    * Iris_differential.Diffcampaign.report)
    list;  (** with the ground-truth indices *)
}

val diff :
  recording:Iris_core.Manager.recording ->
  plants:Iris_svm.Machine.asymmetry list -> (diff, string) result
(** The VT-x vs SVM oracle, one {!Iris_differential.Diffcampaign.run}
    walk per sweep, finds nothing on the unperturbed trace, and each
    plant's findings are exactly the ground truth. *)

type drained = {
  label : string;  (** ["jobs=N"] or ["jobs=N reversed"] *)
  server : Iris_service.Server.t;
  summary : Iris_service.Server.drain_summary;
  wall_s : float;  (** host seconds to create, submit and drain *)
}

type serve = {
  drains : drained list;
  verify : Iris_service.Server.verify_summary;
}

val serve :
  recordings:Iris_service.Server.recordings -> quantum:int -> jobs:int list ->
  Iris_service.Jobspec.t list -> (serve, string) result
(** Drain the specs in order at every jobs count, and reversed at the
    last: every job completes, the merged reports are byte-identical,
    and [Server.verify] holds on the last in-order drain. *)
