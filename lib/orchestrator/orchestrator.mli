(** Parallel fuzzing orchestrator: sharded multi-domain campaigns
    with a deterministic merge (DESIGN.md §8; scales out the paper's
    §VII campaign loop).

    Test cases are sharded across N worker domains, each owning a
    fully isolated hypervisor + dummy-VM universe: booted once
    (constructed, reverted to the recording snapshot, prefix replayed
    to the valid state S_R), then snapshot/reverted per case exactly
    like the sequential fuzzer.  Results carry their test-case index
    and are merged in index order; per-worker telemetry registries
    merge commutatively.  The merged campaign report, crash list and
    telemetry snapshot are byte-identical for any [jobs] — the test
    suite and the [scaling] bench enforce this by digest. *)

val cycles_per_second : float
(** The substrate's 3.6 GHz virtual TSC. *)

val cycles_to_seconds : int64 -> float

type worker_report = {
  w_id : int;
  w_executed : int;
  w_steals : int;
  w_respawns : int;
  w_setup_cycles : int64;   (** boot + prefix replay (all respawns) *)
  w_busy_cycles : int64;    (** modeled cycles executing test cases *)
  w_host_seconds : float;   (** host wall time inside tasks *)
}

type report = {
  r_jobs : int;
  r_workers : worker_report array;
  r_hub : Iris_telemetry.Hub.t;  (** merged, in worker-id order *)
  r_model_wall_cycles : int64;
      (** critical path: max over workers of setup + busy — how wall
          time composes on real hardware, independent of this host's
          CPU count *)
  r_model_busy_cycles : int64;  (** sum of executed-case cycles *)
  r_host_seconds : float;       (** host wall clock of the whole run *)
}

val utilization : report -> worker_report -> float
(** (setup + busy) / model wall, in [0, 1]. *)

val dummy :
  recording:Iris_core.Manager.recording -> name:string ->
  Iris_core.Replayer.t
(** A fresh dummy VM at the recording's initial state: constructed as
    [name], armed on the recording snapshot with guest memory dropped
    ({!Iris_core.Manager.arm_dummy}), no telemetry probe attached and
    no prefix replayed.  The dummy constructor behind every worker,
    sweep task and service universe (bisection attempts use
    {!dummy_on}); attach a probe to its context if the caller wants
    one. *)

val dummy_on :
  cov:Iris_coverage.Cov.t -> recording:Iris_core.Manager.recording ->
  name:string -> Iris_core.Replayer.t
(** {!dummy} over a caller-owned coverage store, reset and enabled
    first, so it behaves exactly like a fresh one.  For callers that
    build many short-lived dummies one after another (the service's
    bisection tasks): reusing one store spares the allocation of its
    per-component arrays, most of a dummy's heap cost.  The previous
    dummy on [cov] must be dead. *)

val boot_universe :
  ?hub:Iris_telemetry.Hub.t ->
  recording:Iris_core.Manager.recording ->
  seed_index:int -> name:string -> unit ->
  Iris_core.Replayer.t * Iris_fuzzer.Campaign.anchor * int64
(** Boot one isolated worker universe: a {!dummy} with the prefix
    replayed to the valid state S_R and pinned (COW anchor).  Returns the replayer, the
    anchor and the setup cost in modeled cycles.  When [hub] is given
    the telemetry probe is attached only after S_R, keeping setup out
    of mergeable counters.  The building block behind {!fuzz}'s
    workers, exposed for the service layer's per-job universes. *)

val render_workers : report -> string
(** Per-worker utilization table plus the model-wall summary line. *)

(** {2 Mutant-level sharding: one campaign, cases fanned out} *)

type fuzz_outcome = {
  fuzz_result : Iris_fuzzer.Campaign.result;
      (** byte-identical to the sequential [Campaign.run] result *)
  fuzz_report : report;
}

val fuzz :
  ?jobs:int -> config:Iris_fuzzer.Campaign.config ->
  recording:Iris_core.Manager.recording ->
  reason:Iris_vtx.Exit_reason.t -> area:Iris_fuzzer.Mutation.area ->
  unit -> fuzz_outcome option
(** Shard one campaign's [1 + mutations] test cases across [jobs]
    worker domains.  [None] if the trace has no seed with [reason].
    A worker whose hypervisor context dies beyond triage reports a
    [Hypervisor_crash] verdict for the offending case and is
    respawned. *)

(** {2 Run-level sharding: whole guided/naive runs fanned out} *)

type sweep_outcome = {
  sweep_results :
    (Iris_vtx.Exit_reason.t * Iris_fuzzer.Guided.result option) array;
      (** one per requested reason, in request order *)
  sweep_report : report;
}

val guided_sweep :
  ?jobs:int -> ?guided:bool -> config:Iris_fuzzer.Guided.config ->
  recording:Iris_core.Manager.recording ->
  reasons:Iris_vtx.Exit_reason.t array -> unit -> sweep_outcome
(** A guided run is inherently sequential (each round mutates the
    corpus previous rounds grew), so the unit of sharding is a whole
    run: one per exit reason.  [~guided:false] runs the naive
    baseline at the same budget. *)

(** {2 Differential sweeps} *)

type diff_outcome = {
  diff_report : Iris_differential.Diffcampaign.report;
      (** index-ordered merged divergence report *)
  diff_run : report;  (** worker/utilization accounting *)
}

val diff_sweep :
  ?jobs:int ->
  ?plant:Iris_svm.Machine.asymmetry ->
  recording:Iris_core.Manager.recording ->
  unit ->
  diff_outcome
(** Shard the VT-x vs SVM differential oracle across the domain pool
    by contiguous trace segments: every worker owns an isolated VT-x
    universe anchored at S_0 plus its own SVM machine, each segment
    replays its prefix so every seed executes at its true predecessor
    state S_i, each recorded seed is classified exactly once globally,
    and the merged report is byte-identical for any [jobs].  [plant]
    introduces an intentional SVM-side asymmetry (detector ground
    truth); the merged hub gains [diff.*] counters via
    {!Iris_core.Analysis.note_backend_divergence}. *)
