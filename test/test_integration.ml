(* End-to-end integration tests: the paper's experiments at reduced
   scale, checking the qualitative shape of every claim the benches
   reproduce quantitatively. *)

module Manager = Iris_core.Manager
module Trace = Iris_core.Trace
module Replayer = Iris_core.Replayer
module Analysis = Iris_core.Analysis
module Metrics = Iris_core.Metrics
module Diff = Iris_coverage.Diff
module Comp = Iris_coverage.Component
module W = Iris_guest.Workload
module R = Iris_vtx.Exit_reason
open Iris_x86

let check = Alcotest.check

let exits = 1200

(* One shared record+replay per workload (expensive); computed
   lazily. *)
let runs = Hashtbl.create 4

let run_of workload =
  match Hashtbl.find_opt runs workload with
  | Some r -> r
  | None ->
      let mgr = Manager.create ~boot_scale:0.02 ~prng_seed:33 () in
      let recording = Manager.record mgr workload ~exits in
      let replay = Manager.replay mgr recording in
      let acc =
        Analysis.accuracy ~recorded:recording.Manager.trace
          ~replayed:replay.Manager.replay_trace
      in
      let eff =
        Analysis.efficiency ~recorded:recording.Manager.trace
          ~replay_cycles:replay.Manager.replay_cycles
          ~submitted:replay.Manager.submitted
      in
      let r = (recording, replay, acc, eff) in
      Hashtbl.replace runs workload r;
      r

(* --- Fig. 6: cumulative coverage fitting --- *)

let test_fig6_fitting_all_workloads () =
  List.iter
    (fun w ->
      let _, _, acc, _ = run_of w in
      check Alcotest.bool
        (W.name w ^ " fitting in the paper's 92-100% band")
        true
        (acc.Analysis.fitting_pct >= 90.0
        && acc.Analysis.fitting_pct <= 100.0))
    [ W.Os_boot; W.Cpu_bound; W.Idle ]

let test_fig6_curves_track () =
  let _, _, acc, _ = run_of W.Os_boot in
  let n = Array.length acc.Analysis.record_curve in
  check Alcotest.bool "curves same length regime" true
    (Array.length acc.Analysis.replay_curve = n);
  (* The replay curve must stay within a few percent of the record
     curve at the end. *)
  let last a = a.(Array.length a - 1) in
  let r = float_of_int (last acc.Analysis.record_curve) in
  let p = float_of_int (last acc.Analysis.replay_curve) in
  check Alcotest.bool "end points close" true (Float.abs (r -. p) /. r < 0.25)

(* --- Fig. 7: difference clustering --- *)

let test_fig7_divergence_structure () =
  let recording, replay, acc, _ = run_of W.Os_boot in
  ignore recording;
  ignore replay;
  let s = acc.Analysis.diff_summary in
  (* Most seeds replay exactly. *)
  let total = s.Diff.exact + s.Diff.noise + s.Diff.divergent in
  check Alcotest.bool "exact majority" true
    (float_of_int s.Diff.exact /. float_of_int total > 0.5);
  (* Divergence is rare (paper: 0.18%..1.16%). *)
  check Alcotest.bool "divergence rare" true
    (acc.Analysis.divergent_pct < 5.0);
  (* The paper's clusters: noise lives in vlapic/irq/vpt/io-ish
     components, big divergences in the emulator family. *)
  if s.Diff.divergent > 0 then
    check Alcotest.bool "divergent cluster includes emulate.c/p2m-ept.c"
      true
      (List.exists
         (fun (c, _) -> c = Comp.Emulate_c || c = Comp.Ept_c || c = Comp.Intr_c)
         s.Diff.divergent_components)

(* --- Fig. 8: operating-mode ladder + VMWRITE accuracy --- *)

let test_fig8_mode_trace () =
  let recording, _, acc, _ = run_of W.Os_boot in
  let modes = Analysis.mode_trace recording.Manager.trace in
  check Alcotest.bool "CR0 writes observed" true (Array.length modes > 3);
  (* The first observed mode is low (real/protected) and the ladder
     reaches at least Mode5 (TS churn). *)
  let _, first = modes.(0) in
  check Alcotest.bool "starts low" true (Cpu_mode.to_int first <= 2);
  let top =
    Array.fold_left
      (fun acc (_, m) -> max acc (Cpu_mode.to_int m))
      0 modes
  in
  check Alcotest.bool "reaches Mode5+" true (top >= 5);
  check Alcotest.bool "vmwrite fit near 100%" true
    (acc.Analysis.vmwrite_fit_pct > 95.0)

let test_fig8_mode_trace_replay_matches () =
  let recording, replay, _, _ = run_of W.Os_boot in
  let a = Analysis.mode_trace recording.Manager.trace in
  let b = Analysis.mode_trace replay.Manager.replay_trace in
  check Alcotest.int "same CR0-write count" (Array.length a) (Array.length b);
  Array.iteri
    (fun i (_, m) ->
      let _, m' = b.(i) in
      check Alcotest.bool "same mode sequence" true (m = m'))
    a

(* --- Fig. 9: efficiency --- *)

let test_fig9_ordering () =
  let _, _, _, eff_cpu = run_of W.Cpu_bound in
  let _, _, _, eff_idle = run_of W.Idle in
  (* Replay wins everywhere; IDLE by a much larger factor than
     CPU-bound (paper: 294x vs 6.8x). *)
  check Alcotest.bool "cpu speedup > 2x" true (eff_cpu.Analysis.speedup > 2.0);
  check Alcotest.bool "idle speedup >> cpu speedup" true
    (eff_idle.Analysis.speedup > 5.0 *. eff_cpu.Analysis.speedup);
  check Alcotest.bool "idle decrease above 99%" true
    (eff_idle.Analysis.pct_decrease > 99.0)

let test_fig9_throughput_below_ideal () =
  let _, _, _, eff = run_of W.Cpu_bound in
  let ideal = Analysis.ideal_throughput_exits_per_sec in
  check Alcotest.bool "ideal near 50K/s" true
    (ideal > 40_000.0 && ideal < 70_000.0);
  check Alcotest.bool "replay below ideal" true
    (eff.Analysis.replay_exits_per_sec < ideal);
  (* §VI-C: the gap to ideal is roughly half. *)
  let ratio = eff.Analysis.replay_exits_per_sec /. ideal in
  check Alcotest.bool "roughly half the ideal" true
    (ratio > 0.25 && ratio < 0.8)

(* --- Fig. 10: recording overhead --- *)

let test_fig10_recording_overhead_small () =
  (* Record the same deterministic workload with and without IRIS
     callbacks; per-exit handler time must rise by only ~1%. *)
  let run ~record =
    let cov = Iris_coverage.Cov.create () in
    let hooks = Iris_hv.Hooks.create () in
    let ctx = Iris_hv.Xen.construct ~cov ~hooks ~name:"ovh" () in
    let recorder =
      if record then Some (Iris_core.Recorder.start ctx) else None
    in
    let start = Iris_vtx.Clock.now (Iris_hv.Ctx.clock ctx) in
    let res =
      Iris_hv.Xen.run ctx
        ~fetch:(W.program W.Cpu_bound ~seed:55)
        ~max_exits:800
    in
    ignore recorder;
    let cycles =
      Int64.sub (Iris_vtx.Clock.now (Iris_hv.Ctx.clock ctx)) start
    in
    (res.Iris_hv.Xen.exits, cycles)
  in
  let exits_off, cycles_off = run ~record:false in
  let exits_on, cycles_on = run ~record:true in
  check Alcotest.int "same exits" exits_off exits_on;
  let overhead_pct =
    100.0
    *. (Int64.to_float cycles_on -. Int64.to_float cycles_off)
    /. Int64.to_float cycles_off
  in
  check Alcotest.bool
    (Printf.sprintf "overhead %.3f%% below 3%%" overhead_pct)
    true
    (overhead_pct >= 0.0 && overhead_pct < 3.0)

(* --- §VI-D: memory overhead --- *)

let test_seed_memory_overhead () =
  let recording, _, _, _ = run_of W.Os_boot in
  let t = recording.Manager.trace in
  check Alcotest.bool "max rw within the paper's 32" true
    (Trace.max_rw_records t <= 32);
  check Alcotest.bool "average seed below worst case" true
    (Trace.total_seed_bytes t / Trace.length t
    <= Iris_core.Seed.worst_case_bytes)

(* --- determinism of the whole pipeline --- *)

let test_pipeline_deterministic () =
  let record () =
    let mgr = Manager.create ~boot_scale:0.02 ~prng_seed:44 () in
    (mgr, Manager.record mgr W.Cpu_bound ~exits:300)
  in
  (match Iris_scenario.Gate.trace_digest (fun () -> snd (record ())) with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  let once () =
    let mgr, recording = record () in
    let replay = Manager.replay mgr recording in
    ( Trace.length recording.Manager.trace,
      replay.Manager.replay_cycles,
      recording.Manager.trace.Trace.wall_cycles )
  in
  check Alcotest.bool "two identical runs" true (once () = once ())

(* --- whole-stack robustness: random guests, random seeds --- *)

let random_insn prng =
  let module P = Iris_util.Prng in
  match P.int prng 16 with
  | 0 -> Insn.Compute (P.int_in prng 1 100000)
  | 1 -> Insn.Rdtsc
  | 2 -> Insn.Cpuid { leaf = P.bits prng 8; subleaf = P.bits prng 2 }
  | 3 -> Insn.Rdmsr (P.bits prng 16)
  | 4 -> Insn.Wrmsr (P.bits prng 16, P.next64 prng)
  | 5 ->
      Insn.Out
        { port = P.int prng 0x10000; width = Insn.Io8; value = P.bits prng 8 }
  | 6 ->
      Insn.In { port = P.int prng 0x10000; width = Insn.Io8; dst = Gpr.Rax }
  | 7 -> Insn.Mov_to_cr (Insn.Creg0, P.next64 prng)
  | 8 -> Insn.Mov_to_cr (Insn.Creg4, P.bits prng 22)
  | 9 -> Insn.Read_mem { gpa = P.bits prng 33; width = 4 }
  | 10 -> Insn.Write_mem { gpa = P.bits prng 33; width = 4; value = P.next64 prng }
  | 11 -> Insn.Vmcall { nr = P.bits prng 6; arg = P.next64 prng }
  | 12 -> Insn.Sti
  | 13 -> Insn.Hlt
  | 14 -> Insn.Xsetbv { idx = P.bits prng 2; value = P.bits prng 4 }
  | _ -> Insn.Set_gpr (Gpr.Rbx, P.next64 prng)

let test_random_guest_programs_never_wedge () =
  (* Dumb random instruction streams — the thing the paper says risks
     "several crashes of the test VM" — must always terminate in a
     *classified* state: completion, a budget stop, a domain crash, or
     a hypervisor panic. *)
  for seed = 1 to 25 do
    let prng = Iris_util.Prng.of_int seed in
    let cov = Iris_coverage.Cov.create () in
    let hooks = Iris_hv.Hooks.create () in
    let ctx = Iris_hv.Xen.construct ~cov ~hooks ~name:"random" () in
    let fetch () = Some (random_insn prng) in
    match Iris_hv.Xen.run ctx ~fetch ~max_exits:400 with
    | { Iris_hv.Xen.stop = Iris_hv.Xen.Budget; exits; _ } ->
        check Alcotest.int "budget honoured" 400 exits
    | { Iris_hv.Xen.stop = Iris_hv.Xen.Crashed _; _ } -> ()
    | { Iris_hv.Xen.stop = Iris_hv.Xen.Completed; _ } ->
        Alcotest.fail "infinite stream completed"
    | exception Iris_hv.Ctx.Hypervisor_panic _ -> ()
  done

let test_random_seed_replay_never_wedges () =
  (* Arbitrary garbage seeds through the replayer: every submission
     ends in Replayed, Vm_crashed, or Hypervisor_panic. *)
  let mgr = Manager.create ~boot_scale:0.02 ~prng_seed:66 () in
  let recording = Manager.record mgr W.Cpu_bound ~exits:50 in
  let prng = Iris_util.Prng.of_int 1234 in
  let module P = Iris_util.Prng in
  let random_seed i =
    let n_reads = P.int prng 10 in
    { Iris_core.Seed.index = i;
      reason = P.choose prng (Array.of_list R.all);
      gprs =
        Array.to_list (Array.map (fun r -> (r, P.next64 prng)) Gpr.all);
      reads =
        List.init n_reads (fun _ ->
            ( Iris_vmcs.Field.all.(P.int prng Iris_vmcs.Field.count),
              P.next64 prng ));
      writes = [] }
  in
  let survived = ref 0 and crashed = ref 0 and panicked = ref 0 in
  for i = 0 to 199 do
    let replayer =
      Manager.make_dummy mgr ~revert_to:recording.Manager.snapshot ()
    in
    match Iris_core.Replayer.submit replayer (random_seed i) with
    | Iris_core.Replayer.Replayed -> incr survived
    | Iris_core.Replayer.Vm_crashed _ -> incr crashed
    | exception Iris_hv.Ctx.Hypervisor_panic _ -> incr panicked
  done;
  check Alcotest.int "all submissions classified" 200
    (!survived + !crashed + !panicked);
  (* Garbage must actually exercise all three outcomes. *)
  check Alcotest.bool "some survive" true (!survived > 0);
  check Alcotest.bool "some crash the VM" true (!crashed > 0);
  check Alcotest.bool "some panic the hypervisor" true (!panicked > 0)

let () =
  Alcotest.run "iris_integration"
    [ ( "fig6",
        [ Alcotest.test_case "fitting band" `Slow
            test_fig6_fitting_all_workloads;
          Alcotest.test_case "curves track" `Slow test_fig6_curves_track ] );
      ( "fig7",
        [ Alcotest.test_case "divergence structure" `Slow
            test_fig7_divergence_structure ] );
      ( "fig8",
        [ Alcotest.test_case "mode ladder" `Slow test_fig8_mode_trace;
          Alcotest.test_case "replayed CR0 writes match" `Slow
            test_fig8_mode_trace_replay_matches ] );
      ( "fig9",
        [ Alcotest.test_case "ordering" `Slow test_fig9_ordering;
          Alcotest.test_case "throughput vs ideal" `Slow
            test_fig9_throughput_below_ideal ] );
      ( "fig10",
        [ Alcotest.test_case "recording overhead" `Slow
            test_fig10_recording_overhead_small ] );
      ( "memory",
        [ Alcotest.test_case "seed sizes" `Slow test_seed_memory_overhead ] );
      ( "determinism",
        [ Alcotest.test_case "pipeline" `Slow test_pipeline_deterministic ] );
      ( "robustness",
        [ Alcotest.test_case "random guest programs" `Slow
            test_random_guest_programs_never_wedge;
          Alcotest.test_case "random seed replay" `Slow
            test_random_seed_replay_never_wedges ] ) ]
