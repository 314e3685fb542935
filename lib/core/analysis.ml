module Cov = Iris_coverage.Cov
module Diff = Iris_coverage.Diff
module F = Iris_vmcs.Field
module R = Iris_vtx.Exit_reason

type seed_divergence = {
  d_index : int;
  d_reason : R.t;
  d_cov_lines : int;
  d_write_mismatch : bool;
  d_crashed : string option;
}

type divergence = {
  dv_compared : int;
  dv_divergent : seed_divergence list;
  dv_first : seed_divergence option;
  dv_by_reason : (R.t * int) list;
  dv_pct : float;
}

type accuracy = {
  fitting_pct : float;
  record_curve : int array;
  replay_curve : int array;
  diff_summary : Diff.summary;
  divergent_pct : float;
  vmwrite_fit_pct : float;
  divergence : divergence;
}

let cumulative_counts metrics =
  let acc = ref Cov.Pset.empty in
  Array.map
    (fun m ->
      acc := Cov.Pset.union !acc m.Metrics.coverage;
      Cov.Pset.cardinal !acc)
    metrics

let union_all metrics =
  Array.fold_left
    (fun acc m -> Cov.Pset.union acc m.Metrics.coverage)
    Cov.Pset.empty metrics

(* Per-seed record/replay coverage differences, on the aligned prefix
   both traces share.  Repeated identical seeds are deduplicated the
   way the paper filters them when reporting divergence frequency. *)
let per_seed_diffs ~recorded ~replayed =
  let n =
    min (Array.length recorded.Trace.metrics)
      (Array.length replayed.Trace.metrics)
  in
  List.init n (fun i ->
      Diff.diff
        ~recorded:recorded.Trace.metrics.(i).Metrics.coverage
        ~replayed:replayed.Trace.metrics.(i).Metrics.coverage)

(* The shared divergence predicate: a seed diverges when its coverage
   difference exceeds the noise threshold, its guest-state VMWRITE
   sequence differs, or the replay crashed where the reference did
   not.  The locator and the accuracy report agree by construction
   because both call this. *)
let seed_diverges ?(noise_threshold = Diff.noise_threshold) ~index ~reason
    ~(recorded : Metrics.t) ~(replayed : Metrics.t) () =
  let d = Diff.diff ~recorded:recorded.Metrics.coverage
      ~replayed:replayed.Metrics.coverage in
  let cov_lines = Diff.total_lines d in
  let write_mismatch =
    not (Metrics.writes_match ~recorded ~replayed)
  in
  if cov_lines > noise_threshold || write_mismatch then
    Some { d_index = index; d_reason = reason; d_cov_lines = cov_lines;
           d_write_mismatch = write_mismatch; d_crashed = None }
  else None

let seed_reason (trace : Trace.t) i =
  if i < Array.length trace.Trace.seeds then
    trace.Trace.seeds.(i).Seed.reason
  else R.Preemption_timer

let divergence ?(noise_threshold = Diff.noise_threshold) ?crashed
    ~recorded ~replayed () =
  let compared =
    min (Array.length recorded.Trace.metrics)
      (Array.length replayed.Trace.metrics)
  in
  let divergent = ref [] in
  for i = compared - 1 downto 0 do
    match
      seed_diverges ~noise_threshold ~index:i ~reason:(seed_reason recorded i)
        ~recorded:recorded.Trace.metrics.(i)
        ~replayed:replayed.Trace.metrics.(i) ()
    with
    | Some d -> divergent := d :: !divergent
    | None -> ()
  done;
  (* A replay that crashed where the reference kept going is itself
     the divergence — even when no compared seed tripped the coverage
     or VMWRITE predicate (the crash truncates the replayed trace
     before its metrics land). *)
  (match crashed with
  | Some (i, msg) when i >= compared && i < Array.length recorded.Trace.metrics
    ->
      divergent :=
        !divergent
        @ [ { d_index = i; d_reason = seed_reason recorded i;
              d_cov_lines = 0; d_write_mismatch = false;
              d_crashed = Some msg } ]
  | Some (i, msg) ->
      divergent :=
        List.map
          (fun d ->
            if d.d_index = i then { d with d_crashed = Some msg } else d)
          !divergent
  | None -> ());
  let divergent = !divergent in
  let by_reason =
    List.fold_left
      (fun acc d ->
        let n = try List.assoc d.d_reason acc with Not_found -> 0 in
        (d.d_reason, n + 1) :: List.remove_assoc d.d_reason acc)
      [] divergent
    |> List.sort (fun (a, _) (b, _) -> compare (R.code a) (R.code b))
  in
  (* Fig. 7 counts only coverage divergence, so [dv_pct] stays
     comparable with the paper's 0.18–1.16 % numbers. *)
  let cov_divergent =
    List.length (List.filter (fun d -> d.d_cov_lines > noise_threshold)
                   divergent)
  in
  { dv_compared = compared;
    dv_divergent = divergent;
    dv_first = (match divergent with d :: _ -> Some d | [] -> None);
    dv_by_reason = by_reason;
    dv_pct =
      100.0 *. float_of_int cov_divergent /. float_of_int (max 1 compared) }

let accuracy ~recorded ~replayed =
  let record_curve = cumulative_counts recorded.Trace.metrics in
  let replay_curve = cumulative_counts replayed.Trace.metrics in
  let fitting_pct =
    Diff.fitting_pct
      ~recorded_cumulative:(union_all recorded.Trace.metrics)
      ~replayed_cumulative:(union_all replayed.Trace.metrics)
  in
  let diffs = per_seed_diffs ~recorded ~replayed in
  let diff_summary = Diff.summarise diffs in
  let total = max 1 (List.length diffs) in
  let divergent_pct =
    100.0 *. float_of_int diff_summary.Diff.divergent /. float_of_int total
  in
  let vmwrite_fit_pct =
    Metrics.vmwrite_fitting_pct
      ~recorded:(Array.to_list recorded.Trace.metrics)
      ~replayed:(Array.to_list replayed.Trace.metrics)
  in
  { fitting_pct; record_curve; replay_curve; diff_summary; divergent_pct;
    vmwrite_fit_pct; divergence = divergence ~recorded ~replayed () }

type efficiency = {
  real_seconds : float;
  replay_seconds : float;
  pct_decrease : float;
  speedup : float;
  replay_exits_per_sec : float;
}

let efficiency ~recorded ~replay_cycles ~submitted =
  let real_seconds =
    Iris_vtx.Clock.cycles_to_seconds recorded.Trace.wall_cycles
  in
  let replay_seconds = Iris_vtx.Clock.cycles_to_seconds replay_cycles in
  let pct_decrease =
    if real_seconds > 0.0 then
      100.0 *. (real_seconds -. replay_seconds) /. real_seconds
    else 0.0
  in
  let speedup =
    if replay_seconds > 0.0 then real_seconds /. replay_seconds else infinity
  in
  let replay_exits_per_sec =
    if replay_seconds > 0.0 then float_of_int submitted /. replay_seconds
    else 0.0
  in
  { real_seconds; replay_seconds; pct_decrease; speedup;
    replay_exits_per_sec }

let mode_trace trace =
  let points = ref [] in
  Array.iteri
    (fun i m ->
      List.iter
        (fun (f, v) ->
          if f = F.cr0_read_shadow then
            points := (i, Iris_x86.Cpu_mode.of_cr0 v) :: !points)
        m.Metrics.writes)
    trace.Trace.metrics;
  Array.of_list (List.rev !points)

let handler_times_us trace =
  Array.map
    (fun m ->
      Int64.to_float m.Metrics.handler_cycles /. Iris_vtx.Clock.hz *. 1e6)
    trace.Trace.metrics

let handler_time_summary trace =
  Iris_util.Stats.quantiles (handler_times_us trace)

(* Push a divergence report into a telemetry hub: per-reason counters
   for the registry, and a highlighted span on the trace track whose
   instants mark each divergent seed at its recorded virtual
   timestamp — so a diverging replay is visible in the Chrome-trace
   export without reading the textual report. *)
let note_divergence ~hub ~recorded dv =
  let module T = Iris_telemetry in
  let reg = hub.T.Hub.registry in
  let vec =
    T.Registry.counter_vec reg "replay.divergent_exits"
      ~labels:Iris_hv.Observe.reason_labels
  in
  let total = T.Registry.counter reg "replay.divergent_total" in
  List.iter
    (fun (r, n) -> T.Registry.vec_add64 vec (R.code r) (Int64.of_int n))
    dv.dv_by_reason;
  T.Registry.add total (List.length dv.dv_divergent);
  match dv.dv_divergent with
  | [] -> ()
  | divergent ->
      (* Recorded handler cycles give each seed a deterministic
         virtual timestamp on the trace timeline. *)
      let ts_of_index =
        let cum = Array.make (Array.length recorded.Trace.metrics + 1) 0L in
        Array.iteri
          (fun i m ->
            cum.(i + 1) <- Int64.add cum.(i) m.Metrics.handler_cycles)
          recorded.Trace.metrics;
        fun i -> cum.(min i (Array.length recorded.Trace.metrics))
      in
      let tracer = hub.T.Hub.tracer in
      let first = List.hd divergent in
      let last = List.nth divergent (List.length divergent - 1) in
      T.Tracer.begin_span tracer ~cat:"divergence" ~name:"divergent-replay"
        ~args:
          [ ("first_index", string_of_int first.d_index);
            ("divergent", string_of_int (List.length divergent)) ]
        ~ts:(ts_of_index first.d_index);
      List.iter
        (fun d ->
          T.Tracer.instant tracer ~cat:"divergence" ~name:"divergent-exit"
            ~args:
              ([ ("index", string_of_int d.d_index);
                 ("reason", R.short_name d.d_reason);
                 ("cov_lines", string_of_int d.d_cov_lines);
                 ("write_mismatch", string_of_bool d.d_write_mismatch) ]
              @
              match d.d_crashed with
              | Some m -> [ ("crashed", m) ]
              | None -> [])
            ~ts:(ts_of_index d.d_index))
        divergent;
      T.Tracer.end_span tracer ~ts:(ts_of_index (last.d_index + 1))

let ideal_throughput_exits_per_sec =
  let cycles_per_loop =
    Iris_vtx.Cost.exit_transition + Iris_vtx.Cost.dispatch_base
    + Iris_vtx.Cost.entry_transition
    + (2 * Iris_vtx.Cost.vmread_cost)
    + Iris_vtx.Cost.vmwrite_cost + 100
  in
  Iris_vtx.Clock.hz /. float_of_int cycles_per_loop

(* Cross-backend differential findings (the lib/differential oracle)
   exported through telemetry.  Plain counts in the signature — the
   oracle lives above this library. *)
let note_backend_divergence ~hub ~total ~comparable ~lossy ~findings =
  let module T = Iris_telemetry in
  let reg = hub.T.Hub.registry in
  T.Registry.add (T.Registry.counter reg "diff.cases_total") total;
  T.Registry.add (T.Registry.counter reg "diff.comparable") comparable;
  T.Registry.add (T.Registry.counter reg "diff.lossy") lossy;
  T.Registry.add (T.Registry.counter reg "diff.findings") findings
