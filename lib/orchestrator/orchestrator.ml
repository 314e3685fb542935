(* Parallel fuzzing orchestrator (paper §VII, scaled out).

   Shards campaign/guided test cases across N worker domains, each
   owning a fully isolated hypervisor + dummy-VM instance: booted
   once (constructed, reverted to the recording snapshot, prefix
   replayed to the valid state S_R), then snapshot/reverted per test
   case exactly as the sequential fuzzer does.

   Determinism is the subsystem's contract.  It rests on three facts:

   - reverting to S_R also resets the virtual clock, so a test case's
     outcome (verdict, coverage span, modeled cycles) is a pure
     function of (S_R, seed), independent of worker history;
   - results carry their test-case index and the merge folds them in
     index order ([Campaign.finalize]), recomputing every
     order-sensitive statistic (per-verdict novelty) on the merged
     sequence, never on the workers;
   - per-worker telemetry registries are merged with a commutative
     operation (counters/histograms add, gauges max), and each case
     is executed exactly once globally, so the merged snapshot is
     independent of the partition.  Worker *setup* (prefix replay) is
     kept out of the registries by attaching the probe only after S_R
     is reached — otherwise N workers would count the prefix N times.

   Model time: the substrate measures everything in virtual TSC
   cycles (3.6 GHz), so the scaling experiment does too.  A parallel
   campaign's modeled wall time is its critical path — the maximum
   over workers of (setup + executed-case cycles) — which is how wall
   time composes on real hardware, while host wall seconds on this
   machine measure only scheduler overhead. *)

module Ctx = Iris_hv.Ctx
module Cov = Iris_coverage.Cov
module Seed = Iris_core.Seed
module Manager = Iris_core.Manager
module Replayer = Iris_core.Replayer
module Campaign = Iris_fuzzer.Campaign
module Guided = Iris_fuzzer.Guided
module Hub = Iris_telemetry.Hub

let cycles_per_second = 3_600_000_000.0

let cycles_to_seconds c = Int64.to_float c /. cycles_per_second

(* --- worker lifecycle: boot → loop → drain → report --- *)

type worker = {
  wk_replayer : Replayer.t;
  wk_anchor : Campaign.anchor;
}

(* A dummy domain at the recording's initial state: constructed, armed
   on the recording snapshot, memory dropped, no probe.  Every worker,
   sweep task, service universe and bisection attempt starts here. *)
let build_dummy ~cov ~recording ~name =
  let hooks = Iris_hv.Hooks.create () in
  let ctx = Iris_hv.Xen.construct ~dummy:true ~cov ~hooks ~name () in
  Manager.arm_dummy ctx ~revert_to:(Some recording.Manager.snapshot)
    ~keep_memory:false;
  Replayer.create ctx

let dummy ~recording ~name = build_dummy ~cov:(Cov.create ()) ~recording ~name

(* A reset, enabled store reads exactly like a fresh one, so reusing it
   changes no outcome; it only spares the allocation of the store's
   per-component arrays, which dominates a dummy's cost. *)
let dummy_on ~cov ~recording ~name =
  Cov.reset cov;
  Cov.enable cov;
  build_dummy ~cov ~recording ~name

(* Boot one isolated universe: a [dummy] with its prefix replayed to
   S_R.  When a hub is given the probe is attached only after S_R so
   that setup (boot + prefix replay) never reaches the merged counters.
   Exposed for the service layer, whose per-job universes boot exactly
   like workers. *)
let boot_universe ?hub ~recording ~seed_index ~name () =
  let trace = recording.Manager.trace in
  let replayer = dummy ~recording ~name in
  let ctx = Replayer.ctx replayer in
  let t0 = Iris_vtx.Clock.now (Ctx.clock ctx) in
  let anchor = Campaign.anchor ~replayer ~trace ~seed_index () in
  let setup = Int64.sub (Iris_vtx.Clock.now (Ctx.clock ctx)) t0 in
  (match hub with
  | Some hub -> ignore (Iris_hv.Observe.attach hub ctx : Iris_telemetry.Probe.t)
  | None -> ());
  (replayer, anchor, setup)

let boot_worker ~recording ~seed_index ~hub ~setups wid =
  let replayer, anchor, setup =
    boot_universe ~hub ~recording ~seed_index
      ~name:(Printf.sprintf "worker%d-dummy" wid) ()
  in
  setups.(wid) <- Int64.add setups.(wid) setup;
  { wk_replayer = replayer; wk_anchor = anchor }

(* --- reports --- *)

type worker_report = {
  w_id : int;
  w_executed : int;
  w_steals : int;
  w_respawns : int;
  w_setup_cycles : int64;   (* boot + prefix replay (all respawns) *)
  w_busy_cycles : int64;    (* modeled cycles executing test cases *)
  w_host_seconds : float;   (* host wall time inside tasks *)
}

type report = {
  r_jobs : int;
  r_workers : worker_report array;
  r_hub : Hub.t;  (* merged, in worker-id order *)
  r_model_wall_cycles : int64;
      (* critical path: max over workers of setup + busy *)
  r_model_busy_cycles : int64;  (* sum of executed-case cycles *)
  r_host_seconds : float;       (* host wall clock of the whole run *)
}

let utilization rep w =
  if rep.r_model_wall_cycles = 0L then 0.0
  else
    Int64.to_float (Int64.add w.w_setup_cycles w.w_busy_cycles)
    /. Int64.to_float rep.r_model_wall_cycles

let render_workers rep =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    "  worker   cases  steals  respawns  busy(model s)  util\n";
  Array.iter
    (fun w ->
      Buffer.add_string buf
        (Printf.sprintf "  %6d  %6d  %6d  %8d  %13.3f  %4.0f%%\n" w.w_id
           w.w_executed w.w_steals w.w_respawns
           (cycles_to_seconds w.w_busy_cycles)
           (100.0 *. utilization rep w)))
    rep.r_workers;
  Buffer.add_string buf
    (Printf.sprintf "  model wall %.3fs  (ideal 1-worker %.3fs)\n"
       (cycles_to_seconds rep.r_model_wall_cycles)
       (cycles_to_seconds rep.r_model_busy_cycles));
  Buffer.contents buf

let build_report ~jobs ~hubs ~setups ~stats ~busy ~host_seconds =
  let merged = Hub.create () in
  Array.iter (fun h -> Hub.merge_into ~into:merged h) hubs;
  let workers =
    Array.init jobs (fun w ->
        { w_id = w;
          w_executed = stats.(w).Pool.executed;
          w_steals = stats.(w).Pool.steals;
          w_respawns = stats.(w).Pool.respawns;
          w_setup_cycles = setups.(w);
          w_busy_cycles = busy.(w);
          w_host_seconds = stats.(w).Pool.busy_seconds })
  in
  let wall =
    Array.fold_left
      (fun acc w -> Int64.(max acc (add w.w_setup_cycles w.w_busy_cycles)))
      0L workers
  in
  let total_busy =
    Array.fold_left (fun acc w -> Int64.add acc w.w_busy_cycles) 0L workers
  in
  { r_jobs = jobs;
    r_workers = workers;
    r_hub = merged;
    r_model_wall_cycles = wall;
    r_model_busy_cycles = total_busy;
    r_host_seconds = host_seconds }

(* --- mutant-level sharding: one campaign, cases fanned out --- *)

type fuzz_outcome = {
  fuzz_result : Campaign.result;
  fuzz_report : report;
}

let fuzz ?(jobs = 1) ~config ~recording ~reason ~area () =
  let trace = recording.Manager.trace in
  match Campaign.plan ~config ~trace ~reason ~area with
  | None -> None
  | Some plan ->
      let jobs = max 1 jobs in
      let seed_index = plan.Campaign.plan_target.Seed.index in
      let total = Campaign.case_count plan in
      let hubs = Array.init jobs (fun _ -> Hub.create ()) in
      let setups = Array.make jobs 0L in
      let init wid =
        boot_worker ~recording ~seed_index ~hub:hubs.(wid) ~setups wid
      in
      let task wk i =
        Campaign.execute_case ~replayer:wk.wk_replayer ~anchor:wk.wk_anchor
          (Campaign.case plan i)
      in
      (* Panic containment: a worker whose hypervisor context dies in
         a way the replayer could not triage still reports the crash
         verdict for its case; the pool respawns the worker. *)
      let on_crash exn _i = Campaign.crash_raw (Printexc.to_string exn) in
      let host_t0 = Unix.gettimeofday () in
      let raws, stats, who = Pool.run ~jobs ~total ~init ~task ~on_crash in
      let host_seconds = Unix.gettimeofday () -. host_t0 in
      (* Ordered merge: verdicts, coverage and novelty recomputed in
         case-index order — byte-identical for any [jobs]. *)
      let result = Campaign.finalize ~plan ~raws in
      let busy = Array.make jobs 0L in
      Array.iteri
        (fun i raw ->
          let w = who.(i) in
          if w >= 0 && w < jobs then
            busy.(w) <- Int64.add busy.(w) raw.Campaign.raw_cycles)
        raws;
      let report =
        build_report ~jobs ~hubs ~setups ~stats ~busy ~host_seconds
      in
      (* Campaign-level aggregates on the merged hub: the same totals
         the sequential runner's probe hub ends up with. *)
      Campaign.note_totals report.r_hub result;
      Some { fuzz_result = result; fuzz_report = report }

(* --- case-level sharding: whole guided/naive runs fanned out --- *)

type sweep_outcome = {
  sweep_results : (Iris_vtx.Exit_reason.t * Guided.result option) array;
      (* one per requested reason, in request order *)
  sweep_report : report;
}

(* A guided run is inherently sequential (each round mutates the
   corpus previous rounds grew), so the unit of sharding is a whole
   run.  Each task builds a fresh dummy VM exactly like the
   sequential [Guided.run] does, with the probe attached before the
   prefix replay: every run (prefix replay included) executes exactly
   once globally, so merged counters stay partition-independent. *)
let guided_sweep ?(jobs = 1) ?(guided = true) ~config ~recording ~reasons () =
  let trace = recording.Manager.trace in
  let jobs = max 1 jobs in
  let total = Array.length reasons in
  let hubs = Array.init jobs (fun _ -> Hub.create ()) in
  let setups = Array.make jobs 0L in
  let busy = Array.make jobs 0L in
  let init wid = (wid, hubs.(wid)) in
  let task (wid, hub) i =
    let replayer =
      dummy ~recording ~name:(Printf.sprintf "worker%d-dummy" wid)
    in
    ignore
      (Iris_hv.Observe.attach hub (Replayer.ctx replayer)
        : Iris_telemetry.Probe.t);
    let r =
      Guided.run_with ~config ~replayer ~trace ~reason:reasons.(i) ~guided ()
    in
    (match r with
    | Some g -> busy.(wid) <- Int64.add busy.(wid) g.Guided.total_cycles
    | None -> ());
    r
  in
  let on_crash _exn _i = None in
  let host_t0 = Unix.gettimeofday () in
  let results, stats, _who = Pool.run ~jobs ~total ~init ~task ~on_crash in
  let host_seconds = Unix.gettimeofday () -. host_t0 in
  let report = build_report ~jobs ~hubs ~setups ~stats ~busy ~host_seconds in
  { sweep_results = Array.mapi (fun i r -> (reasons.(i), r)) results;
    sweep_report = report }

(* --- differential sharding: recorded seeds fanned out across the
   VT-x/SVM oracle --- *)

module Diffcampaign = Iris_differential.Diffcampaign
module Oracle = Iris_differential.Oracle

type diff_outcome = {
  diff_report : Diffcampaign.report;
  diff_run : report;
}

(* Shard the differential sweep by contiguous trace segments: every
   worker boots an isolated VT-x universe anchored at S_0 plus its
   own SVM machine, and a segment's verdicts are a function of the
   trace prefix alone ([execute_segment] reverts to S_0 and replays
   the prefix before walking), so the index-ordered
   [Diffcampaign.finalize] merge is byte-identical for any [jobs].

   Workers deliberately do NOT attach a telemetry probe: a segment's
   prefix replay is repeated on steals and respawns, so per-exit
   counters could not merge partition-independently.  The merged hub
   instead carries the diff.* aggregates from
   [Analysis.note_backend_divergence]. *)
let diff_sweep ?(jobs = 1) ?plant ~recording () =
  let trace = recording.Manager.trace in
  let jobs = max 1 jobs in
  let segs =
    Diffcampaign.segments ~jobs ~total:(Diffcampaign.case_count trace)
  in
  let total = Array.length segs in
  let hubs = Array.init jobs (fun _ -> Hub.create ()) in
  let setups = Array.make jobs 0L in
  let init wid =
    let replayer, anchor, setup =
      boot_universe ~recording ~seed_index:0
        ~name:(Printf.sprintf "worker%d-dummy" wid) ()
    in
    setups.(wid) <- Int64.add setups.(wid) setup;
    (replayer, anchor)
  in
  let task (replayer, anchor) i =
    Diffcampaign.execute_segment ?plant ~replayer ~anchor ~trace segs.(i)
  in
  (* A worker context dying outside the replayer's triage still yields
     deterministic crash-on-one verdicts for its segment. *)
  let on_crash exn i =
    let a, b = segs.(i) in
    Array.init (b - a) (fun k ->
        let seed = Diffcampaign.case trace (a + k) in
        { Oracle.v_index = seed.Seed.index;
          v_reason = Iris_vtx.Exit_reason.name seed.Seed.reason;
          v_class =
            Oracle.Crash_on_one
              { left_crash =
                  Some ("worker context died: " ^ Printexc.to_string exn);
                right_crash = None } })
  in
  let host_t0 = Unix.gettimeofday () in
  let per_segment, stats, _who =
    Pool.run ~jobs ~total ~init ~task ~on_crash
  in
  let host_seconds = Unix.gettimeofday () -. host_t0 in
  let verdicts = Array.concat (Array.to_list per_segment) in
  let result = Diffcampaign.finalize ?plant ~verdicts () in
  (* The submit/revert cycle accounting lives inside the backends, so
     model-busy attribution is not split per worker here; the run
     report still carries setup cycles and host-side utilization. *)
  let busy = Array.make jobs 0L in
  let run = build_report ~jobs ~hubs ~setups ~stats ~busy ~host_seconds in
  Iris_core.Analysis.note_backend_divergence ~hub:run.r_hub
    ~total:result.Diffcampaign.total
    ~comparable:result.Diffcampaign.comparable
    ~lossy:result.Diffcampaign.lossy
    ~findings:
      (List.map
         (fun f ->
           ( f.Diffcampaign.f_index,
             f.Diffcampaign.f_reason,
             f.Diffcampaign.f_kind ))
         result.Diffcampaign.findings);
  { diff_report = result; diff_run = run }
