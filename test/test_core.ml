(* Tests for the IRIS core: seed format, traces, recorder, replayer,
   manager, and the analysis layer. *)

module Seed = Iris_core.Seed
module Trace = Iris_core.Trace
module Metrics = Iris_core.Metrics
module Manager = Iris_core.Manager
module Replayer = Iris_core.Replayer
module Analysis = Iris_core.Analysis
module F = Iris_vmcs.Field
module R = Iris_vtx.Exit_reason
module W = Iris_guest.Workload
open Iris_x86

let check = Alcotest.check

let sample_seed () =
  { Seed.index = 3;
    reason = R.Cr_access;
    gprs = Array.to_list (Array.map (fun r -> (r, Int64.of_int (Gpr.encode r))) Gpr.all);
    reads =
      [ (F.vm_exit_reason, 28L); (F.exit_qualification, 0L);
        (F.cr0_read_shadow, 0x60000010L); (F.guest_rip, 0x1000L) ];
    writes = [ (F.guest_cr0, 0x60000011L); (F.cr0_read_shadow, 0x11L) ] }

(* --- Seed --- *)

let test_seed_wire_format_size () =
  (* §VI-D: 10-byte records, 470-byte worst case. *)
  check Alcotest.int "record size" 10 Seed.record_bytes;
  check Alcotest.int "worst case" 470 Seed.worst_case_bytes;
  check Alcotest.int "(15 + 32) * 10" ((15 + 32) * 10) Seed.worst_case_bytes;
  let s = sample_seed () in
  check Alcotest.int "size counts records" ((15 + 4 + 2) * 10)
    (Seed.size_bytes s)

let test_seed_encode_decode () =
  let s = sample_seed () in
  match Seed.decode (Seed.encode s) with
  | Ok s' -> check Alcotest.bool "roundtrip" true (Seed.equal s s')
  | Error e -> Alcotest.fail e

let test_seed_decode_garbage () =
  (match Seed.decode (Bytes.of_string "garbage!") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "decoded garbage");
  (* Truncate a valid encoding. *)
  let b = Seed.encode (sample_seed ()) in
  match Seed.decode (Bytes.sub b 0 (Bytes.length b - 3)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "decoded truncated seed"

let test_seed_accessors () =
  let s = sample_seed () in
  check Alcotest.int64 "gpr value" (Int64.of_int (Gpr.encode Gpr.Rsi))
    (Seed.gpr_value s Gpr.Rsi);
  check Alcotest.bool "first read" true
    (Seed.first_read s F.cr0_read_shadow = Some 0x60000010L);
  check Alcotest.bool "absent read" true (Seed.first_read s F.guest_cr3 = None)

(* --- Trace --- *)

let sample_trace () =
  let seeds =
    Array.init 10 (fun i ->
        { (sample_seed ()) with
          Seed.index = i;
          reason = (if i mod 2 = 0 then R.Rdtsc else R.Io_instruction) })
  in
  { Trace.workload = "test";
    prng_seed = 7;
    seeds;
    metrics = [||];
    wall_cycles = 360_000L }

let test_trace_mix_and_slicing () =
  let t = sample_trace () in
  check Alcotest.int "length" 10 (Trace.length t);
  let mix = Trace.exit_mix t in
  check Alcotest.bool "rdtsc counted" true (List.assoc R.Rdtsc mix = 5);
  check Alcotest.int "seeds by reason" 5
    (List.length (Trace.seeds_with_reason t R.Io_instruction));
  let s = Trace.sub t ~pos:2 ~len:3 in
  check Alcotest.int "slice length" 3 (Trace.length s);
  check Alcotest.int "slice preserves indices" 2 s.Trace.seeds.(0).Seed.index

let test_trace_serialisation () =
  let t = sample_trace () in
  match Trace.decode (Trace.encode t) with
  | Ok t' ->
      check Alcotest.string "workload" "test" t'.Trace.workload;
      check Alcotest.int "count" 10 (Trace.length t');
      check Alcotest.bool "seeds equal" true
        (Array.for_all2 Seed.equal t.Trace.seeds t'.Trace.seeds)
  | Error e -> Alcotest.fail e

let test_trace_file_roundtrip () =
  let t = sample_trace () in
  let path = Filename.temp_file "iris" ".trc" in
  Trace.save t ~path;
  (match Trace.load ~path with
  | Ok t' -> check Alcotest.int "loaded" 10 (Trace.length t')
  | Error e -> Alcotest.fail e);
  Sys.remove path

let test_trace_max_rw () =
  let t = sample_trace () in
  check Alcotest.int "max rw records" 6 (Trace.max_rw_records t)

let mgr_for_metrics () = Manager.create ~boot_scale:0.02 ~prng_seed:12 ()

let test_trace_metrics_roundtrip () =
  (* Format v2: per-exit metrics survive serialisation. *)
  let m = mgr_for_metrics () in
  let recording = Manager.record m W.Cpu_bound ~exits:60 in
  let t = recording.Manager.trace in
  match Trace.decode (Trace.encode t) with
  | Error e -> Alcotest.fail e
  | Ok t' ->
      check Alcotest.int "metrics count" (Array.length t.Trace.metrics)
        (Array.length t'.Trace.metrics);
      Array.iteri
        (fun i m ->
          let m' = t'.Trace.metrics.(i) in
          check Alcotest.bool "cycles preserved" true
            (m.Metrics.handler_cycles = m'.Metrics.handler_cycles);
          check Alcotest.bool "writes preserved" true
            (m.Metrics.writes = m'.Metrics.writes);
          check Alcotest.bool "coverage preserved" true
            (Iris_coverage.Cov.Pset.equal m.Metrics.coverage
               m'.Metrics.coverage))
        t.Trace.metrics

(* --- Metrics --- *)

let test_metrics_guest_state_filter () =
  let m =
    { Metrics.coverage = Iris_coverage.Cov.Pset.empty;
      writes =
        [ (F.guest_cr0, 1L); (F.tsc_offset, 2L); (F.cr0_read_shadow, 3L) ];
      handler_cycles = 0L }
  in
  (* Only the guest-state area counts for the VMWRITE accuracy
     metric. *)
  check Alcotest.int "guest-state writes" 1
    (List.length (Metrics.guest_state_writes m))

let test_metrics_vmwrite_fitting () =
  let m writes =
    { Metrics.coverage = Iris_coverage.Cov.Pset.empty; writes;
      handler_cycles = 0L }
  in
  let a = m [ (F.guest_cr0, 1L) ] in
  let b = m [ (F.guest_cr0, 2L) ] in
  check (Alcotest.float 1e-9) "identical" 100.0
    (Metrics.vmwrite_fitting_pct ~recorded:[ a; a ] ~replayed:[ a; a ]);
  check (Alcotest.float 1e-9) "half" 50.0
    (Metrics.vmwrite_fitting_pct ~recorded:[ a; a ] ~replayed:[ a; b ]);
  (* Control-field differences do not hurt the guest-state metric. *)
  let c = m [ (F.guest_cr0, 1L); (F.tsc_offset, 99L) ] in
  check (Alcotest.float 1e-9) "ctrl writes ignored" 100.0
    (Metrics.vmwrite_fitting_pct ~recorded:[ a ] ~replayed:[ c ])

(* --- Recorder on a live run --- *)

let mgr () = Manager.create ~boot_scale:0.02 ~prng_seed:11 ()

let test_recorder_seed_contents () =
  let recording = Manager.record (mgr ()) W.Cpu_bound ~exits:100 in
  let t = recording.Manager.trace in
  check Alcotest.int "one seed per exit" 100 (Trace.length t);
  check Alcotest.int "metrics aligned" 100 (Array.length t.Trace.metrics);
  Array.iter
    (fun s ->
      check Alcotest.int "all 15 GPRs" 15 (List.length s.Seed.gprs);
      (* Every seed records the dispatcher's read of the exit-reason
         field, and it matches the seed's labelled reason. *)
      match Seed.first_read s F.vm_exit_reason with
      | Some v ->
          check Alcotest.bool "reason matches" true
            (R.of_reason_field v = Some s.Seed.reason)
      | None -> Alcotest.fail "seed without an exit-reason read")
    t.Trace.seeds

let test_recorder_seed_size_bound () =
  let recording = Manager.record (mgr ()) W.Os_boot ~exits:800 in
  let t = recording.Manager.trace in
  (* §VI-D: at most 32 VMREAD/VMWRITE records per seed, 470 bytes. *)
  check Alcotest.bool "rw records within worst case" true
    (Trace.max_rw_records t <= Seed.worst_case_rw);
  Array.iter
    (fun s ->
      check Alcotest.bool "seed size within prealloc" true
        (Seed.size_bytes s <= Seed.preallocated_bytes))
    t.Trace.seeds

let test_recorder_modes () =
  let m = mgr () in
  let seeds_only =
    Manager.record ~store_metrics:false m W.Cpu_bound ~exits:50
  in
  check Alcotest.int "no metrics stored" 0
    (Array.length seeds_only.Manager.trace.Trace.metrics);
  check Alcotest.int "seeds stored" 50
    (Trace.length seeds_only.Manager.trace);
  let metrics_only =
    Manager.record ~store_seeds:false m W.Cpu_bound ~exits:50
  in
  check Alcotest.int "no seeds stored" 0
    (Trace.length metrics_only.Manager.trace);
  check Alcotest.int "metrics stored" 50
    (Array.length metrics_only.Manager.trace.Trace.metrics)

let test_recorder_handler_cycles_positive () =
  let recording = Manager.record (mgr ()) W.Cpu_bound ~exits:50 in
  Array.iter
    (fun m ->
      check Alcotest.bool "handler time positive" true
        (m.Metrics.handler_cycles > 0L))
    recording.Manager.trace.Trace.metrics

(* --- Replayer --- *)

let test_replay_reproduces_seed_stream () =
  let m = mgr () in
  let recording = Manager.record m W.Cpu_bound ~exits:300 in
  let replay = Manager.replay m recording in
  check Alcotest.int "all seeds submitted" 300 replay.Manager.submitted;
  check Alcotest.bool "no crash" true
    (replay.Manager.outcome = Replayer.Replayed);
  (* Replaying with record mode on reproduces the same seed stream:
     same reasons, same GPRs, same read values. *)
  let rt = recording.Manager.trace and pt = replay.Manager.replay_trace in
  check Alcotest.int "replay recorded too" 300 (Trace.length pt);
  Array.iteri
    (fun i rs ->
      let ps = pt.Trace.seeds.(i) in
      check Alcotest.bool "same reason" true (rs.Seed.reason = ps.Seed.reason);
      check Alcotest.bool "same gprs" true (rs.Seed.gprs = ps.Seed.gprs))
    rt.Trace.seeds

let test_replay_faster_than_real () =
  let m = mgr () in
  let recording = Manager.record m W.Cpu_bound ~exits:300 in
  let replay = Manager.replay m recording in
  let eff =
    Analysis.efficiency ~recorded:recording.Manager.trace
      ~replay_cycles:replay.Manager.replay_cycles
      ~submitted:replay.Manager.submitted
  in
  check Alcotest.bool "replay faster" true
    (eff.Analysis.replay_seconds < eff.Analysis.real_seconds);
  check Alcotest.bool "speedup sensible" true (eff.Analysis.speedup > 2.0);
  check Alcotest.bool "throughput in the paper's regime" true
    (eff.Analysis.replay_exits_per_sec > 10_000.0
    && eff.Analysis.replay_exits_per_sec < 60_000.0)

let test_replay_accuracy_high () =
  let m = mgr () in
  let recording = Manager.record m W.Cpu_bound ~exits:400 in
  let replay = Manager.replay m recording in
  let acc =
    Analysis.accuracy ~recorded:recording.Manager.trace
      ~replayed:replay.Manager.replay_trace
  in
  check Alcotest.bool "coverage fitting > 90%" true
    (acc.Analysis.fitting_pct > 90.0);
  check Alcotest.bool "vmwrite fitting > 95%" true
    (acc.Analysis.vmwrite_fit_pct > 95.0);
  check Alcotest.bool "record curve monotone" true
    (let ok = ref true in
     Array.iteri
       (fun i v ->
         if i > 0 && v < acc.Analysis.record_curve.(i - 1) then ok := false)
       acc.Analysis.record_curve;
     !ok)

let test_accuracy_identical_traces () =
  (* A trace compared against itself: no divergence, perfect fit. *)
  let m = mgr () in
  let recording = Manager.record m W.Cpu_bound ~exits:200 in
  let t = recording.Manager.trace in
  let acc = Analysis.accuracy ~recorded:t ~replayed:t in
  check (Alcotest.float 0.0) "0% divergent" 0.0 acc.Analysis.divergent_pct;
  check (Alcotest.float 0.0) "100% coverage fit" 100.0 acc.Analysis.fitting_pct;
  check (Alcotest.float 0.0) "100% vmwrite fit" 100.0
    acc.Analysis.vmwrite_fit_pct;
  let dv = acc.Analysis.divergence in
  check Alcotest.int "all seeds compared" (Trace.length t)
    dv.Analysis.dv_compared;
  check Alcotest.bool "no first divergent exit" true
    (dv.Analysis.dv_first = None);
  check (Alcotest.float 0.0) "0% in the report" 0.0 dv.Analysis.dv_pct

let test_accuracy_empty_traces () =
  let empty =
    { Trace.workload = "empty"; prng_seed = 0; seeds = [||]; metrics = [||];
      wall_cycles = 0L }
  in
  let acc = Analysis.accuracy ~recorded:empty ~replayed:empty in
  check (Alcotest.float 0.0) "0% divergent" 0.0 acc.Analysis.divergent_pct;
  check Alcotest.int "nothing compared" 0
    acc.Analysis.divergence.Analysis.dv_compared;
  check Alcotest.bool "no divergence entry" true
    (acc.Analysis.divergence.Analysis.dv_first = None);
  check Alcotest.bool "no handler-time summary" true
    (Analysis.handler_time_summary empty = None)

let test_divergence_known_first_index () =
  (* Hand-built metric pair with the first (and only) divergence
     planted at index 3: the structured report must name exactly
     it — the same predicate the lib/inspect locator is tested
     against over a live replay. *)
  let module Cov = Iris_coverage.Cov in
  let module Comp = Iris_coverage.Component in
  let span lo n =
    List.fold_left
      (fun s k -> Cov.Pset.add (Cov.point Comp.Vmx_c ((lo + k) * 16)) s)
      Cov.Pset.empty
      (List.init n (fun k -> k))
  in
  let mk cov = { Metrics.coverage = cov; writes = []; handler_cycles = 1L } in
  let trace metrics =
    { Trace.workload = "synthetic"; prng_seed = 0; seeds = [||]; metrics;
      wall_cycles = 0L }
  in
  let base = Array.init 8 (fun _ -> mk (span 0 10)) in
  let perturbed = Array.copy base in
  (* 10 + 50 differing lines: far above the noise threshold. *)
  perturbed.(3) <- mk (span 100 50);
  (* A sub-threshold wobble at 5 must NOT count as divergence. *)
  perturbed.(5) <- mk (span 0 15);
  let dv =
    Analysis.divergence ~recorded:(trace base) ~replayed:(trace perturbed) ()
  in
  check Alcotest.int "compared" 8 dv.Analysis.dv_compared;
  (match dv.Analysis.dv_first with
  | Some d ->
      check Alcotest.int "first divergent index" 3 d.Analysis.d_index;
      check Alcotest.int "differing lines" 60 d.Analysis.d_cov_lines;
      check Alcotest.bool "not a write mismatch" false
        d.Analysis.d_write_mismatch
  | None -> Alcotest.fail "planted divergence not found");
  check Alcotest.int "exactly one divergent seed" 1
    (List.length dv.Analysis.dv_divergent);
  check (Alcotest.float 0.01) "1/8 divergent" 12.5 dv.Analysis.dv_pct

let test_handler_time_summary () =
  let m = mgr () in
  let recording = Manager.record m W.Cpu_bound ~exits:200 in
  match Analysis.handler_time_summary recording.Manager.trace with
  | None -> Alcotest.fail "recorded trace must have handler times"
  | Some q ->
      let open Iris_util.Stats in
      check Alcotest.int "one sample per exit" 200 q.q_n;
      check Alcotest.bool "percentiles ordered" true
        (q.q_p50 > 0.0 && q.q_p50 <= q.q_p95 && q.q_p95 <= q.q_p99
        && q.q_p99 <= q.q_max)

let test_replay_fresh_state_crashes_bad_rip () =
  (* §VI-B: replaying post-boot seeds on a never-booted dummy VM
     crashes with Xen's "bad RIP for mode 0". *)
  let m = mgr () in
  let recording = Manager.record m W.Cpu_bound ~exits:200 in
  let fresh = Manager.replay_from_fresh m recording.Manager.trace in
  (match fresh.Manager.outcome with
  | Replayer.Vm_crashed msg ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec scan i =
          i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1))
        in
        nn = 0 || scan 0
      in
      check Alcotest.bool "bad RIP for mode 0" true
        (contains msg "bad RIP for mode 0")
  | Replayer.Replayed -> Alcotest.fail "fresh-state replay succeeded");
  check Alcotest.bool "crashed early" true (fresh.Manager.submitted < 10)

let test_replay_after_boot_succeeds () =
  (* §VI-B, the other half: from a state reached by replaying the
     recorded boot, the same workload completes. *)
  let m = mgr () in
  let boot = Manager.record m W.Os_boot ~exits:2500 in
  let replay = Manager.replay m boot in
  check Alcotest.bool "boot replay completes" true
    (replay.Manager.outcome = Replayer.Replayed)

let test_batch_submission () =
  (* §IX extension: batching preserves outcomes and coverage while
     strictly improving simulated throughput. *)
  let m = mgr () in
  let recording = Manager.record m W.Cpu_bound ~exits:400 in
  let seeds = recording.Manager.trace.Trace.seeds in
  let run submit =
    let replayer = Manager.make_dummy m ~revert_to:recording.Manager.snapshot () in
    let ctx = Iris_core.Replayer.ctx replayer in
    let start = Iris_vtx.Clock.now (Iris_hv.Ctx.clock ctx) in
    let n, outcome = submit replayer seeds in
    let cycles =
      Int64.sub (Iris_vtx.Clock.now (Iris_hv.Ctx.clock ctx)) start
    in
    (n, outcome, cycles)
  in
  let n1, o1, c1 = run Replayer.submit_all in
  let n2, o2, c2 = run Replayer.submit_batch in
  check Alcotest.int "same seeds consumed" n1 n2;
  check Alcotest.bool "same outcome" true (o1 = o2);
  check Alcotest.bool "batched is faster" true (c2 < c1)

let test_batch_ablation_switches_are_safe () =
  (* The ablation switches restore paper behaviour when toggled
     back. *)
  let m = mgr () in
  let recording = Manager.record m W.Cpu_bound ~exits:100 in
  let replayer = Manager.make_dummy m ~revert_to:recording.Manager.snapshot () in
  Replayer.set_shim_enabled replayer false;
  Replayer.set_shim_enabled replayer true;
  Replayer.set_entry_checks replayer false;
  Replayer.set_entry_checks replayer true;
  Replayer.set_trigger replayer `Hlt;
  Replayer.set_trigger replayer `Preemption_timer;
  let n, outcome =
    Replayer.submit_all replayer recording.Manager.trace.Trace.seeds
  in
  check Alcotest.int "all replayed" 100 n;
  check Alcotest.bool "ok" true (outcome = Replayer.Replayed)

let test_memory_oracle_removes_divergence () =
  (* DESIGN.md §4 ablation 1: replaying with the recorded final
     memory eliminates the >30-LOC emulator divergences. *)
  let m = mgr () in
  let recording = Manager.record m W.Idle ~exits:800 in
  let base = Manager.replay m recording in
  let oracle = Manager.replay ~keep_memory:true m recording in
  let acc_base =
    Analysis.accuracy ~recorded:recording.Manager.trace
      ~replayed:base.Manager.replay_trace
  in
  let acc_oracle =
    Analysis.accuracy ~recorded:recording.Manager.trace
      ~replayed:oracle.Manager.replay_trace
  in
  check Alcotest.bool "idle replay diverges without memory" true
    (acc_base.Analysis.divergent_pct > 0.0);
  check Alcotest.bool "oracle removes divergence" true
    (acc_oracle.Analysis.divergent_pct < acc_base.Analysis.divergent_pct)

let test_replayer_counts () =
  let m = mgr () in
  let recording = Manager.record m W.Cpu_bound ~exits:50 in
  let replayer = Manager.make_dummy m ~revert_to:recording.Manager.snapshot () in
  match Replayer.submit replayer recording.Manager.trace.Trace.seeds.(0) with
  | Replayer.Replayed -> ()
  | Replayer.Vm_crashed m -> Alcotest.fail m

(* --- Manager hypercall façade --- *)

let test_hypercall_interface () =
  let m = mgr () in
  let s = Manager.open_session m in
  (* Submitting outside replay mode is an error. *)
  (match Manager.xc_vmcs_fuzzing s (Manager.Op_submit_seed (sample_seed ())) with
  | Manager.R_error _ -> ()
  | _ -> Alcotest.fail "expected error outside replay mode");
  check Alcotest.bool "replay mode on" true
    (Manager.xc_vmcs_fuzzing s (Manager.Op_set_mode `Replay) = Manager.R_ok);
  (* Double mode set rejected. *)
  (match Manager.xc_vmcs_fuzzing s (Manager.Op_set_mode `Record) with
  | Manager.R_error _ -> ()
  | _ -> Alcotest.fail "expected mode conflict");
  check Alcotest.bool "off" true
    (Manager.xc_vmcs_fuzzing s (Manager.Op_set_mode `Off) = Manager.R_ok)

(* --- properties --- *)

let arb_seed =
  let gen =
    QCheck.Gen.(
      let* idx = int_bound 10000 in
      let* reason_idx = int_bound (List.length R.all - 1) in
      let* gprs =
        list_size (int_range 0 15)
          (map2
             (fun i v -> (Gpr.all.(i mod Array.length Gpr.all), v))
             (int_bound 14) int64)
      in
      let* reads =
        list_size (int_range 0 20)
          (map2
             (fun i v -> (F.all.(i mod F.count), v))
             (int_bound (F.count - 1))
             int64)
      in
      let+ writes =
        list_size (int_range 0 12)
          (map2
             (fun i v -> (F.all.(i mod F.count), v))
             (int_bound (F.count - 1))
             int64)
      in
      { Seed.index = idx;
        reason = List.nth R.all reason_idx;
        gprs;
        reads;
        writes })
  in
  QCheck.make gen

let prop_seed_roundtrip =
  QCheck.Test.make ~name:"seed encode/decode roundtrip" ~count:300 arb_seed
    (fun s ->
      match Seed.decode (Seed.encode s) with
      | Ok s' -> Seed.equal s s'
      | Error _ -> false)

let prop_decode_total_on_garbage =
  (* Adversarial robustness: decoding arbitrary bytes returns Error,
     never raises. *)
  QCheck.Test.make ~name:"seed/trace decode never raises" ~count:300
    QCheck.(string_of_size Gen.(int_range 0 200))
    (fun s ->
      let b = Bytes.of_string s in
      (match Seed.decode b with Ok _ | Error _ -> true)
      && (match Trace.decode b with Ok _ | Error _ -> true))

let prop_mutated_trace_decode_total =
  (* Bit-flipped valid encodings must also decode safely. *)
  QCheck.Test.make ~name:"decode survives bit flips of valid traces"
    ~count:200
    QCheck.(pair small_int small_int)
    (fun (pos_seed, bit) ->
      let t = sample_trace () in
      let b = Trace.encode t in
      let pos = pos_seed mod Bytes.length b in
      let c = Char.code (Bytes.get b pos) in
      Bytes.set b pos (Char.chr (c lxor (1 lsl (bit mod 8))));
      match Trace.decode b with Ok _ | Error _ -> true)

let prop_seed_size_formula =
  QCheck.Test.make ~name:"seed size = 10 bytes per record" ~count:300 arb_seed
    (fun s ->
      Seed.size_bytes s
      = 10
        * (List.length s.Seed.gprs + List.length s.Seed.reads
          + List.length s.Seed.writes))

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "iris_core"
    [ ( "seed",
        [ Alcotest.test_case "wire format sizes" `Quick
            test_seed_wire_format_size;
          Alcotest.test_case "encode/decode" `Quick test_seed_encode_decode;
          Alcotest.test_case "garbage rejected" `Quick
            test_seed_decode_garbage;
          Alcotest.test_case "accessors" `Quick test_seed_accessors ] );
      ( "trace",
        [ Alcotest.test_case "mix/slicing" `Quick test_trace_mix_and_slicing;
          Alcotest.test_case "serialisation" `Quick test_trace_serialisation;
          Alcotest.test_case "file roundtrip" `Quick
            test_trace_file_roundtrip;
          Alcotest.test_case "max rw" `Quick test_trace_max_rw;
          Alcotest.test_case "metrics roundtrip (v2)" `Slow
            test_trace_metrics_roundtrip ] );
      ( "metrics",
        [ Alcotest.test_case "guest-state filter" `Quick
            test_metrics_guest_state_filter;
          Alcotest.test_case "vmwrite fitting" `Quick
            test_metrics_vmwrite_fitting ] );
      ( "recorder",
        [ Alcotest.test_case "seed contents" `Slow test_recorder_seed_contents;
          Alcotest.test_case "seed size bound" `Slow
            test_recorder_seed_size_bound;
          Alcotest.test_case "store modes" `Slow test_recorder_modes;
          Alcotest.test_case "handler cycles" `Slow
            test_recorder_handler_cycles_positive ] );
      ( "replayer",
        [ Alcotest.test_case "reproduces stream" `Slow
            test_replay_reproduces_seed_stream;
          Alcotest.test_case "faster than real" `Slow
            test_replay_faster_than_real;
          Alcotest.test_case "accuracy" `Slow test_replay_accuracy_high;
          Alcotest.test_case "accuracy: identical traces" `Slow
            test_accuracy_identical_traces;
          Alcotest.test_case "accuracy: empty traces" `Quick
            test_accuracy_empty_traces;
          Alcotest.test_case "divergence: known first index" `Quick
            test_divergence_known_first_index;
          Alcotest.test_case "handler time summary" `Slow
            test_handler_time_summary;
          Alcotest.test_case "fresh state crashes (bad RIP)" `Slow
            test_replay_fresh_state_crashes_bad_rip;
          Alcotest.test_case "after boot succeeds" `Slow
            test_replay_after_boot_succeeds;
          Alcotest.test_case "batched submission" `Slow
            test_batch_submission;
          Alcotest.test_case "ablation switches" `Slow
            test_batch_ablation_switches_are_safe;
          Alcotest.test_case "memory oracle" `Slow
            test_memory_oracle_removes_divergence;
          Alcotest.test_case "submission counts" `Slow test_replayer_counts ]
      );
      ( "manager",
        [ Alcotest.test_case "hypercall interface" `Slow
            test_hypercall_interface ] );
      ( "properties",
        qcheck
          [ prop_seed_roundtrip; prop_seed_size_formula;
            prop_decode_total_on_garbage; prop_mutated_trace_decode_total ] )
    ]
