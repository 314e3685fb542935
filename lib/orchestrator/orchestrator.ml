(* Parallel fuzzing orchestrator (paper §VII, scaled out).

   Fans campaign test cases out across N worker domains, each owning
   a fully isolated hypervisor + dummy-VM instance: booted once
   (constructed, reverted to the recording snapshot, prefix replayed
   to the valid state S_R), then rewound to S_R per test case exactly
   as the sequential fuzzer does.

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
   time composes on real hardware, whatever the host's core count.
   The run's host wall seconds, read from the monotonic clock, are
   reported alongside; they depend on the host and never reach a
   digest.  Guided runs are not sharded: each round mutates the corpus
   the previous rounds grew, and neither is the VT-x vs SVM oracle,
   whose VT-x side must walk the trace in order. *)

module Ctx = Iris_hv.Ctx
module Cov = Iris_coverage.Cov
module Seed = Iris_core.Seed
module Manager = Iris_core.Manager
module Replayer = Iris_core.Replayer
module Campaign = Iris_fuzzer.Campaign
module Hub = Iris_telemetry.Hub

(* A dummy domain at the recording's initial state: constructed, armed
   on the recording snapshot, memory dropped, no probe.  Every worker,
   service universe, bisection attempt and differential walk starts
   here. *)
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

(* --- reports --- *)

type worker_report = {
  w_id : int;
  w_executed : int;
  w_respawns : int;
  w_setup_cycles : int64;   (* boot + prefix replay (all respawns) *)
  w_busy_cycles : int64;    (* modeled cycles executing test cases *)
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
  Buffer.add_string buf "  worker   cases  respawns  busy(model s)  util\n";
  Array.iter
    (fun w ->
      Buffer.add_string buf
        (Printf.sprintf "  %6d  %6d  %8d  %13.3f  %4.0f%%\n" w.w_id
           w.w_executed w.w_respawns
           (Iris_vtx.Clock.cycles_to_seconds w.w_busy_cycles)
           (100.0 *. utilization rep w)))
    rep.r_workers;
  Buffer.add_string buf
    (Printf.sprintf "  model wall %.3fs  (ideal 1-worker %.3fs)\n"
       (Iris_vtx.Clock.cycles_to_seconds rep.r_model_wall_cycles)
       (Iris_vtx.Clock.cycles_to_seconds rep.r_model_busy_cycles));
  Buffer.contents buf

(* --- mutant-level sharding: one campaign, cases fanned out --- *)

(* What a worker accumulates besides its universe. *)
type slot = {
  s_hub : Hub.t;
  mutable s_setup : int64;  (* boot + prefix replay (all respawns) *)
  mutable s_busy : int64;   (* modeled cycles executing test cases *)
}

type fuzz_outcome = {
  fuzz_result : Campaign.result;
  fuzz_report : report;
}

(* Campaign-level aggregates on the merged hub: per-campaign counters
   plus the coverage-gain gauge the paper's Table 2 reports per
   campaign. *)
let note_totals hub (r : Campaign.result) =
  let module R = Iris_telemetry.Registry in
  let reg = hub.Hub.registry in
  R.add (R.counter reg "fuzz.mutations") r.executed;
  R.add (R.counter reg "fuzz.new_lines") (r.fuzz_lines - r.baseline_lines);
  R.add (R.counter reg "fuzz.vm_crashes") r.vm_crashes;
  R.add (R.counter reg "fuzz.hv_crashes") r.hv_crashes;
  R.set (R.gauge reg "fuzz.coverage_gain_pct")
    (Int64.of_float r.coverage_increase_pct)

let fuzz ?(jobs = 1) ~config ~recording ~reason ~area () =
  let trace = recording.Manager.trace in
  match Campaign.plan ~config ~trace ~reason ~area with
  | None -> None
  | Some plan ->
      let seed_index = plan.Campaign.plan_target.Seed.index in
      let total = Campaign.case_count plan in
      (* [Pool.run] starts no worker beyond the case count. *)
      let jobs = max 1 (min jobs total) in
      let slots =
        Array.init jobs (fun _ ->
            { s_hub = Hub.create (); s_setup = 0L; s_busy = 0L })
      in
      let t0 = Monotonic_clock.now () in
      let raws, stats =
        Pool.run ~jobs ~total
          ~init:(fun w ->
            let s = slots.(w) in
            let replayer, anchor, setup =
              boot_universe ~hub:s.s_hub ~recording ~seed_index
                ~name:(Printf.sprintf "worker%d-dummy" w) ()
            in
            s.s_setup <- Int64.add s.s_setup setup;
            (s, replayer, anchor))
          ~task:(fun (s, replayer, anchor) i ->
            let raw =
              Campaign.execute_case ~replayer ~anchor (Campaign.case plan i)
            in
            s.s_busy <- Int64.add s.s_busy raw.Campaign.raw_cycles;
            raw)
            (* Panic containment: a worker whose hypervisor context dies
               in a way the replayer could not triage still reports the
               crash verdict for its case; the pool respawns the
               worker. *)
          ~on_crash:(fun exn _i -> Campaign.crash_raw (Printexc.to_string exn))
      in
      let host_seconds =
        Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9
      in
      let merged = Hub.create () in
      Array.iter (fun s -> Hub.merge_into ~into:merged s.s_hub) slots;
      let workers =
        Array.mapi
          (fun w (st : Pool.stats) ->
            { w_id = w;
              w_executed = st.executed;
              w_respawns = st.respawns;
              w_setup_cycles = slots.(w).s_setup;
              w_busy_cycles = slots.(w).s_busy })
          stats
      in
      let wall =
        Array.fold_left
          (fun acc w -> Int64.(max acc (add w.w_setup_cycles w.w_busy_cycles)))
          0L workers
      in
      let total_busy =
        Array.fold_left (fun acc w -> Int64.add acc w.w_busy_cycles) 0L workers
      in
      let report =
        { r_jobs = jobs;
          r_workers = workers;
          r_hub = merged;
          r_model_wall_cycles = wall;
          r_model_busy_cycles = total_busy;
          r_host_seconds = host_seconds }
      in
      (* Ordered merge: verdicts, coverage and novelty recomputed in
         case-index order — byte-identical for any [jobs]. *)
      let result = Campaign.finalize ~plan ~raws in
      note_totals merged result;
      Some { fuzz_result = result; fuzz_report = report }
