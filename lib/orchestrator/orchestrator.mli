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

type worker_report = {
  w_id : int;
  w_executed : int;
  w_respawns : int;
  w_setup_cycles : int64;   (** boot + prefix replay (all respawns) *)
  w_busy_cycles : int64;    (** modeled cycles executing test cases *)
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
  r_host_seconds : float;
      (** host wall time of the whole run, on the monotonic clock *)
}

val dummy :
  recording:Iris_core.Manager.recording -> name:string ->
  Iris_core.Replayer.t
(** A fresh dummy VM at the recording's initial state: constructed as
    [name], armed on the recording snapshot with guest memory dropped
    ({!Iris_core.Manager.arm_dummy}), no telemetry probe attached and
    no prefix replayed.  The dummy constructor behind every worker
    and service universe and the differential walk (bisection
    attempts use {!dummy_on}); attach a probe to its context if the
    caller wants one. *)

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
      (** byte-identical to [Campaign.run]'s result *)
  fuzz_report : report;
}

val fuzz :
  ?jobs:int -> config:Iris_fuzzer.Campaign.config ->
  recording:Iris_core.Manager.recording ->
  reason:Iris_vtx.Exit_reason.t -> area:Iris_fuzzer.Mutation.area ->
  unit -> fuzz_outcome option
(** Fan one campaign's [1 + mutations] test cases out across [jobs]
    worker domains, at most one per case ([jobs = 1]: in order on the
    calling domain).  [None] if the trace has no seed with [reason].
    A worker whose hypervisor context dies beyond triage reports a
    [Hypervisor_crash] verdict for the offending case and is
    respawned. *)
