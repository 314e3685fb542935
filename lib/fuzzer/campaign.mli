(** The IRIS-based fuzzer prototype (paper §VII).

    A *test case* is (workload behavior W, target seed [VMseed_R]
    drawn from W's recorded trace, seed area A ∈ {VMCS, GPR}).
    Executing it:

    + replays W's seeds up to (but excluding) R through a dummy VM
      reverted to the recording snapshot — reaching the valid state
      [S_R];
    + measures the baseline: the coverage of submitting [VMseed_R]
      itself from [S_R];
    + generates N mutated versions of [VMseed_R] (single bit-flips in
      area A) and submits each from [S_R] (the dummy VM is reverted
      between submissions), accumulating new coverage and triaging
      failures into VM crashes (domain killed: entry failure, triple
      fault, unknown exit...) and hypervisor crashes (panic/BUG). *)

type failure_class = No_failure | Vm_crash | Hypervisor_crash

val failure_name : failure_class -> string

type verdict = {
  mutation : Mutation.t;
  failure : failure_class;
  detail : string;  (** crash reason / log extract *)
  new_lines : int;  (** coverage beyond everything seen before it *)
}

type result = {
  reason : Iris_vtx.Exit_reason.t;
  area : Mutation.area;
  seed_index : int;          (** R *)
  executed : int;            (** mutated seeds actually submitted *)
  baseline_lines : int;      (** |coverage of the unmutated seed| *)
  fuzz_lines : int;          (** |baseline ∪ all mutated coverage| *)
  coverage_increase_pct : float;  (** Table I cell *)
  vm_crashes : int;
  hv_crashes : int;
  crashing : verdict list;   (** failures only, submission order *)
}

val pct_string : result -> string
(** Table I cell text, e.g. "+122%". *)

val submit_probed :
  Iris_core.Replayer.t -> Iris_core.Seed.t ->
  (failure_class * string) * Iris_coverage.Cov.Pset.t
(** Submit one seed inside a coverage span and triage the outcome.  A
    hypervisor panic also closes the probe's dangling exit spans and
    marks an [hv_crash] instant when the context has a probe. *)

type config = {
  mutations : int;       (** N, 10000 in the paper *)
  prng_seed : int;
}

val default_config : config

val run :
  config:config -> manager:Iris_core.Manager.t ->
  recording:Iris_core.Manager.recording ->
  reason:Iris_vtx.Exit_reason.t -> area:Mutation.area ->
  unit -> result option
(** [None] when the recording contains no seed with [reason] (a "-"
    cell in Table I).  [VMseed_R] is drawn uniformly among that
    reason's seeds.  [run] is {!plan}, then {!execute} on one dummy of
    [manager] whose S_R is pinned with a COW {!anchor}.  It writes no
    campaign telemetry of its own: a probe the manager attaches sees
    the prefix replay, the cases and their [cow.*] rewinds, nothing
    more. *)

(** {2 Sharded execution}

    [run] decomposes into a pure {!plan} (test-case generation), a
    per-case {!execute_case} (the only part that needs a hypervisor),
    and a pure ordered {!finalize} — the seams the orchestrator
    dispatches across worker domains. *)

type plan = {
  plan_reason : Iris_vtx.Exit_reason.t;
  plan_area : Mutation.area;
  plan_target : Iris_core.Seed.t;
  plan_mutations : Mutation.t array;
      (** accepted mutations, in PRNG draw order *)
}

val plan :
  config:config -> trace:Iris_core.Trace.t ->
  reason:Iris_vtx.Exit_reason.t -> area:Mutation.area -> plan option
(** Pure: replays [run]'s exact PRNG call sequence without touching a
    hypervisor.  [None] when the trace has no seed with [reason]. *)

val case : plan -> int -> Iris_core.Seed.t
(** Materialise test case [i]: case 0 is the unmutated baseline, case
    [i > 0] is mutation [i-1] applied to the target.  Pure. *)

val case_count : plan -> int
(** [1 + Array.length plan_mutations]. *)

val crashing_seed : plan -> verdict -> Iris_core.Seed.t
(** Rebuild the mutant seed behind a crashing verdict (the verdict's
    mutation applied to the plan target) — what
    [Iris_inspect.Bisect.minimize] takes as its crasher.  Pure. *)

type raw = {
  raw_failure : failure_class;
  raw_detail : string;
  raw_span : Iris_coverage.Cov.Pset.t;
  raw_cycles : int64;
      (** virtual cycles the submission consumed (revert excluded) —
          the orchestrator's model-time accounting unit *)
}
(** What executing one case observes, before any cross-case
    accounting — safe to compute on any worker in any order.
    Reverting resets the virtual clock to [S_R]'s, so every field is
    a function of (S_R, seed) alone. *)

val raw_digest : raw -> string
(** FNV-64 fingerprint over every [raw] field (span points in
    ascending order).  Equal outcomes digest equal, so independent
    replays of the same (S_R, seed) can be compared without keeping
    the spans around — the service layer's corpus replay check. *)

val crash_raw : string -> raw
(** The [Hypervisor_crash] outcome ("worker context died: [msg]") for
    a case whose worker context died beyond the replayer's triage. *)

val reach_sr :
  replayer:Iris_core.Replayer.t -> trace:Iris_core.Trace.t ->
  seed_index:int -> Iris_hv.Domain.snapshot
(** Replay the recorded prefix up to (excluding) [seed_index] and
    snapshot the valid state [S_R].  Raises [Invalid_argument] if the
    prefix itself crashes.  [Anchor_full (reach_sr ...)] is the
    full-restore equivalence oracle that tests and the bench compare
    COW campaigns against. *)

type cow_counters
(** The [cow.*] revert counters, resolved against one probe's hub. *)

type anchor =
  | Anchor_full of Iris_hv.Domain.snapshot
  | Anchor_cow of
      Iris_hv.Checkpoint.t * Iris_hv.Checkpoint.mark * cow_counters option ref
(** How a worker holds on to S_R between cases — a deep snapshot to
    transplant back (the oracle), or a live journal mark to rewind to
    (what {!anchor} pins).  The COW anchor also keeps the [cow.*]
    counters of the probe attached when a case last rewound to it, so
    {!execute_case} resolves them once per probe, not once per case:
    a probe attached after the anchor was pinned still counts. *)

val anchor :
  replayer:Iris_core.Replayer.t -> trace:Iris_core.Trace.t ->
  seed_index:int -> unit -> anchor
(** Replay the recorded prefix up to (excluding) [seed_index] and pin
    the valid state [S_R] under a COW journal mark: every restore
    rewinds only what the case dirtied.  Raises [Invalid_argument] if
    the prefix itself crashes. *)

val restore : replayer:Iris_core.Replayer.t -> anchor -> unit
(** Return the replayer's domain to the anchored state (which also
    resets the virtual clock).  Unlike {!execute_case} it records no
    [cow.*] telemetry. *)

val release : replayer:Iris_core.Replayer.t -> anchor -> unit
(** {!restore}, then drop the anchor: a COW mark is popped, folding its
    journal into the parent epoch. *)

val execute_case :
  replayer:Iris_core.Replayer.t -> anchor:anchor ->
  Iris_core.Seed.t -> raw
(** Submit one case from [S_R] and restore back to it through
    [anchor].  Restoring also resets the virtual clock, so the outcome
    is independent of what the worker executed before.  On the COW
    path, per-revert footprint telemetry is recorded when the
    replayer's context has a probe. *)

val finalize : plan:plan -> raws:raw array -> result
(** Pure ordered merge: [raws] must hold one entry per case in case
    order.  Per-verdict [new_lines] is recomputed here in index order,
    which is what makes the merged report independent of how cases
    were sharded. *)

val execute :
  replayer:Iris_core.Replayer.t -> anchor:anchor -> plan -> result
(** The one in-order case loop: {!execute_case} on every case of the
    plan in index order from [anchor]'s S_R, then {!finalize}.  What
    {!run} does after pinning S_R, and what tests and the bench run
    against a full-restore anchor as the oracle for sharded
    campaigns. *)
