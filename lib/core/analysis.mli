(** Accuracy and efficiency analysis of record-vs-replay runs — the
    computations behind Figures 6 through 10. *)

type seed_divergence = {
  d_index : int;  (** submission index of the divergent seed *)
  d_reason : Iris_vtx.Exit_reason.t;
  d_cov_lines : int;
      (** coverage symmetric-difference size (missing + extra lines) *)
  d_write_mismatch : bool;
      (** guest-state VMWRITE sequence differed from the recording *)
  d_crashed : string option;
      (** the replay died at this seed where the reference did not *)
}

type divergence = {
  dv_compared : int;  (** aligned-prefix length both traces share *)
  dv_divergent : seed_divergence list;  (** ascending index order *)
  dv_first : seed_divergence option;
  dv_by_reason : (Iris_vtx.Exit_reason.t * int) list;
      (** divergent-seed count per exit reason, by reason code *)
  dv_pct : float;
      (** coverage-divergent share only (Fig. 7-compatible with
          {!accuracy}'s [divergent_pct]) *)
}

val seed_diverges :
  ?noise_threshold:int ->
  index:int ->
  reason:Iris_vtx.Exit_reason.t ->
  recorded:Metrics.t ->
  replayed:Metrics.t ->
  unit ->
  seed_divergence option
(** The one divergence predicate everything shares — the accuracy
    report, the locator's probes and the CLI ground truth.  A seed
    diverges when its coverage difference exceeds [noise_threshold]
    (default {!Iris_coverage.Diff.noise_threshold}) or its VMWRITE
    sequence mismatches. *)

val divergence :
  ?noise_threshold:int ->
  ?crashed:int * string ->
  recorded:Trace.t ->
  replayed:Trace.t ->
  unit ->
  divergence
(** Structured replacement for bare [divergent_pct] consumers.
    [crashed] is the replay's crash site (index, message) when its
    outcome was [Vm_crashed]: a crash at or past the aligned prefix
    becomes the final divergence entry; a crash inside it annotates
    the matching entry. *)

val note_divergence :
  hub:Iris_telemetry.Hub.t -> recorded:Trace.t -> divergence -> unit
(** Export a divergence report through telemetry: increments the
    [replay.divergent_exits] counter family (one slot per exit
    reason) plus [replay.divergent_total], and emits a
    ["divergent-replay"] span (category ["divergence"]) bracketing
    per-seed instants at each divergent seed's recorded virtual
    timestamp, so the Chrome-trace export highlights the diverging
    region. *)

type accuracy = {
  fitting_pct : float;
      (** replayed share of recorded cumulative unique lines (Fig. 6's
          end-of-curve fit) *)
  record_curve : int array;
      (** cumulative unique covered lines per recorded exit *)
  replay_curve : int array;
  diff_summary : Iris_coverage.Diff.summary;
      (** per-seed difference clustering (Fig. 7) *)
  divergent_pct : float;
      (** share of seeds with a >30-LOC difference (paper: 0.36 % /
          0.18 % / 1.16 %) *)
  vmwrite_fit_pct : float;
      (** share of seeds whose guest-state VMWRITE sequence replayed
          exactly (Fig. 8's 100 % claim) *)
  divergence : divergence;
      (** the structured report behind [divergent_pct]: which seeds,
          which reasons, which kind of mismatch *)
}

val accuracy :
  recorded:Trace.t -> replayed:Trace.t -> accuracy
(** Both traces must carry metrics. *)

type efficiency = {
  real_seconds : float;       (** Fig. 9 "Real VM" *)
  replay_seconds : float;     (** Fig. 9 "IRIS VM" *)
  pct_decrease : float;
  speedup : float;
  replay_exits_per_sec : float;
}

val efficiency :
  recorded:Trace.t -> replay_cycles:int64 -> submitted:int -> efficiency

val mode_trace : Trace.t -> (int * Iris_x86.Cpu_mode.t) array
(** Operating mode after each exit that wrote CR0, derived from the
    recorded CR0-read-shadow VMWRITEs (Fig. 8's x/y series). *)

val handler_times_us : Trace.t -> float array
(** Per-exit handler service time in microseconds (Fig. 10 samples). *)

val handler_time_summary : Trace.t -> Iris_util.Stats.quantiles option
(** p50/p95/p99/max summary over {!handler_times_us}; [None] when the
    trace carries no metrics. *)

val ideal_throughput_exits_per_sec : float
(** Throughput of an empty preemption-timer exit/entry loop under the
    cost model (the paper's ~50 K exits/s upper bound). *)

val note_backend_divergence :
  hub:Iris_telemetry.Hub.t ->
  total:int -> comparable:int -> lossy:int -> findings:int -> unit
(** Export a cross-backend differential report's counts
    ([lib/differential]) as the [diff.cases_total]/[comparable]/
    [lossy]/[findings] counters.  No trace events: the report carries
    seed indices, not virtual cycles. *)
