(** The persistent campaign server: queue in, merged report out.

    Jobs ({!Jobspec.t}) enter a {!Jobqueue} and are executed in
    deficit-round-robin quanta over isolated per-job universes (built
    with {!Iris_orchestrator.Orchestrator.boot_universe}); each
    scheduling round runs up to [jobs] runnable jobs' quanta through
    {!Iris_orchestrator.Pool}, one task per job — inline when only one
    job is picked.  Completed campaigns feed the {!Corpus} store and
    crashes feed {!Triage}.  After each round, every bucket the round's
    crashes created or took over ({!Triage.take_changed}) has its
    representative minimized through {!Iris_inspect.Bisect}, in two
    pool phases on the same [jobs] domains: one search task per
    (recording, target seed) group, so the group's crashers share every
    replayed prefix state, then one verification task per bucket.  The
    repros are filled in before the round's status line; {!verify}
    re-minimizes through the same path.  Per-job telemetry hubs merge
    commutatively into the server hub, and every round can stream a
    JSONL status snapshot.

    Determinism contract.  A case outcome is a pure function of
    (S_R, seed); cases run in index order within their job; jobs own
    disjoint universes.  So per-job results, corpus admissions and
    triage representatives are functions of the submitted spec set
    alone, and the {!report} — keyed and sorted by content-derived
    spec keys — is byte-identical across [jobs] counts and submission
    orders.  The only scheduling-dependent surfaces are the status
    stream and jobs interrupted from outside (cancellation).

    Worker panics are contained per case: the case records a
    hypervisor-crash outcome, the job's universe is rebuilt and the
    job backs off exponentially; a job exceeding the respawn budget
    fails without taking the server down. *)

type status =
  | Queued
  | Running
  | Completed
  | No_seed     (** the recorded trace has no seed with the reason *)
  | Cancelled
  | Timed_out
  | Failed of string

type job_info = {
  ji_id : int;
  ji_key : string;
  ji_label : string;
  ji_tenant : string;
  ji_status : status;
  ji_done : int;       (** cases executed *)
  ji_total : int;      (** case count; -1 before planning *)
  ji_respawns : int;
  ji_cycles : int64;   (** modeled cycles consumed by its cases *)
}

type recordings
(** Cache of recordings keyed by (workload, exits, prng seed, boot
    scale) — shareable across servers so repeated drains of the same
    scenario set record, and index each recording's provenance,
    once. *)

val recordings : unit -> recordings

type t

val create :
  ?jobs:int -> ?quantum:int -> ?recordings:recordings ->
  ?status_sink:(string -> unit) -> unit -> t
(** [jobs] is the most jobs picked per round and the width of the
    {!Iris_orchestrator.Pool} their quanta and the round's crash
    bisections run on (default 1), [quantum]
    the DRR base budget in cases (default 256).  A job fails on a
    universe panic once it has been respawned 5 times.  [status_sink] receives one JSONL
    snapshot per round. *)

val submit : t -> Jobspec.t -> int
(** Enqueue; returns the job id (submission order). *)

val cancel : t -> int -> bool
(** Cancel a queued job immediately, or flag a running one to stop at
    its next quantum boundary; [false] when already finished. *)

val step : t -> bool
(** Run one scheduling round; [false] when the queue is idle. *)

type drain_summary = {
  d_rounds : int;
  d_completed : int;
  d_failed : int;
  d_crashes : int;          (** crashing cases across completed jobs *)
  d_buckets : int;
  d_corpus : int;
  d_report_digest : string;
}

val drain : t -> drain_summary
(** Step until idle. *)

val job_infos : t -> job_info list
(** Submission order. *)

val corpus : t -> Corpus.t
val triage : t -> Triage.t
val hub : t -> Iris_telemetry.Hub.t
(** Merged server hub: per-job campaign telemetry plus [service.*]
    counters. *)

val report : t -> Iris_telemetry.Json.t
(** The merged report: finished jobs grouped by spec key (sorted),
    the corpus digest and the triage buckets.  Independent of
    scheduling interleaving for drained queues — the bench gates its
    rendered bytes. *)

val report_digest : t -> string

val distill : t -> int * int
(** {!Corpus.distill} on the server's store. *)

type verify_summary = {
  v_corpus_checked : int;
  v_corpus_mismatches : int;
  v_buckets_checked : int;
  v_bucket_mismatches : int;
  v_buckets_unreproduced : int;  (** buckets without a minimized repro *)
}

val verify : t -> verify_summary
(** Re-replay the determinism contract: every corpus entry re-executes
    from a freshly booted universe and must reproduce its admission
    digest byte-identically; every triage bucket's representative is
    re-minimized, through the same pooled bisection phases as {!step},
    and must land on the stored reproducer digest. *)

val verify_ok : verify_summary -> bool

val status_fields : t -> (string * Iris_telemetry.Json.t) list
(** The live status snapshot: round, queue depths, corpus and bucket
    counts, one entry per job — the [status] wire response's fields
    and, with the hub snapshot, each round's status line. *)
