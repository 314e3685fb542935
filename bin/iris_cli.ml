(* The IRIS command-line interface.

   Mirrors the paper's user-space CLI on top of the manager's
   xc_vmcs_fuzzing-style API: choose the operation mode, record VM
   behaviors into trace files, replay them through a dummy VM, and run
   PoC fuzzing campaigns.

     dune exec bin/iris_cli.exe -- record --workload cpu-bound -o cpu.iris
     dune exec bin/iris_cli.exe -- info cpu.iris
     dune exec bin/iris_cli.exe -- replay --workload cpu-bound
     dune exec bin/iris_cli.exe -- fuzz --workload idle --reason RDTSC *)

open Cmdliner
module Manager = Iris_core.Manager
module Trace = Iris_core.Trace
module Analysis = Iris_core.Analysis
module Replayer = Iris_core.Replayer
module W = Iris_guest.Workload
module R = Iris_vtx.Exit_reason
module T = Iris_telemetry
module Orch = Iris_orchestrator.Orchestrator
module Gate = Iris_scenario.Gate

(* --- shared options --- *)

let workload_conv =
  let parse s =
    match W.of_name s with
    | Some w -> Ok w
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown workload %S (try: %s)" s
               (String.concat ", " (List.map W.name W.all))))
  in
  Arg.conv (parse, fun fmt w -> Format.pp_print_string fmt (W.name w))

let workload =
  Arg.(
    value
    & opt workload_conv W.Cpu_bound
    & info [ "w"; "workload" ] ~docv:"WORKLOAD"
        ~doc:"Guest workload: os-boot, cpu-bound, mem-bound, i-o-bound, idle.")

let exits =
  Arg.(
    value
    & opt int 5000
    & info [ "n"; "exits" ] ~docv:"N" ~doc:"VM exits to record (trace length).")

let prng_seed =
  Arg.(
    value
    & opt int 2023
    & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Deterministic PRNG seed.")

let boot_scale =
  Arg.(
    value
    & opt float 0.1
    & info [ "boot-scale" ] ~docv:"F"
        ~doc:
          "Scale of the unrecorded boot used to reach a valid post-boot \
           state (1.0 = full ~500K-exit boot).")

(* --- telemetry options (shared by record/replay/fuzz/stats) --- *)

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event file of the run (spans per VM exit, \
           phase and campaign; load it in Perfetto or about://tracing).")

let metrics_flag =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Print the telemetry metrics summary when the command finishes.")

(* Telemetry is opt-in: without either flag no hub exists and the
   hypervisor hot path keeps its single [None] check. *)
let telemetry_hub ~trace_out ~metrics mgr =
  if trace_out = None && not metrics then None
  else begin
    let hub = T.Hub.create () in
    Manager.set_hub mgr (Some hub);
    Some hub
  end

(* Allocator-pressure gauges, sampled once at campaign finalize so
   [stats] can attribute GC load per run.  Sampled here in the CLI
   layer — never inside per-worker registries, whose merged snapshots
   must stay byte-identical across [--jobs N] (host GC counters are
   partition-dependent). *)
let sample_gc reg =
  let module R = T.Registry in
  let g = Gc.quick_stat () in
  let setf name v = R.set (R.gauge reg name) (Int64.of_float v) in
  setf "gc.minor_words" g.Gc.minor_words;
  setf "gc.promoted_words" g.Gc.promoted_words;
  setf "gc.major_words" g.Gc.major_words;
  R.set (R.gauge reg "gc.minor_collections")
    (Int64.of_int g.Gc.minor_collections);
  R.set (R.gauge reg "gc.major_collections")
    (Int64.of_int g.Gc.major_collections)

let telemetry_report ~trace_out ~metrics hub =
  match hub with
  | None -> ()
  | Some hub ->
      sample_gc hub.T.Hub.registry;
      (match trace_out with
      | None -> ()
      | Some path ->
          T.Export.write_file ~path
            (T.Export.chrome_trace_string ~process_name:"iris"
               hub.T.Hub.tracer);
          Printf.printf "chrome trace written to %s (load in Perfetto)\n" path);
      if metrics then print_string (T.Hub.summary ~title:"telemetry" hub)

(* --- record --- *)

let record_cmd =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Save the trace here.")
  in
  let full_boot =
    Arg.(
      value & flag
      & info [ "full-boot" ]
          ~doc:"For os-boot: record the BIOS phase too (Fig. 4 style).")
  in
  let run workload exits prng_seed boot_scale out full_boot trace_out metrics
      =
    let mgr = Manager.create ~boot_scale ~prng_seed () in
    let hub = telemetry_hub ~trace_out ~metrics mgr in
    Printf.printf "recording %d exits of %s (seed %d)...\n%!" exits
      (W.name workload) prng_seed;
    let recording =
      Manager.record ~record_full_boot:full_boot mgr workload ~exits
    in
    let trace = recording.Manager.trace in
    Format.printf "%a@." Trace.pp_summary trace;
    Printf.printf "wall time in guest: %.3f s\n"
      (Iris_vtx.Clock.cycles_to_seconds trace.Trace.wall_cycles);
    (match out with
    | Some path ->
        Trace.save trace ~path;
        Printf.printf "trace written to %s (%d seed bytes)\n" path
          (Trace.total_seed_bytes trace)
    | None -> ());
    telemetry_report ~trace_out ~metrics hub
  in
  Cmd.v
    (Cmd.info "record" ~doc:"Record a VM behavior as a trace of VM seeds.")
    Term.(
      const run $ workload $ exits $ prng_seed $ boot_scale $ out $ full_boot
      $ trace_out $ metrics_flag)

(* --- replay --- *)

let replay_cmd =
  let fresh =
    Arg.(
      value & flag
      & info [ "fresh" ]
          ~doc:
            "Replay onto a never-booted dummy VM (the paper's §VI-B \
             experiment: post-boot seeds crash with 'bad RIP for mode 0').")
  in
  let run workload exits prng_seed boot_scale fresh trace_out metrics =
    let mgr = Manager.create ~boot_scale ~prng_seed () in
    let hub = telemetry_hub ~trace_out ~metrics mgr in
    Printf.printf "recording %d exits of %s...\n%!" exits (W.name workload);
    let recording = Manager.record mgr workload ~exits in
    Printf.printf "replaying through the dummy VM%s...\n%!"
      (if fresh then " (fresh, no snapshot revert)" else "");
    let replay =
      if fresh then Manager.replay_from_fresh mgr recording.Manager.trace
      else Manager.replay mgr recording
    in
    (match replay.Manager.outcome with
    | Replayer.Replayed ->
        Printf.printf "replayed %d/%d seeds successfully\n"
          replay.Manager.submitted
          (Trace.length recording.Manager.trace)
    | Replayer.Vm_crashed msg ->
        Printf.printf "dummy VM crashed after %d seeds: %s\n"
          replay.Manager.submitted msg);
    let eff =
      Analysis.efficiency ~recorded:recording.Manager.trace
        ~replay_cycles:replay.Manager.replay_cycles
        ~submitted:replay.Manager.submitted
    in
    Printf.printf
      "real VM: %.3f s   IRIS VM: %.3f s   decrease %.1f%%   throughput %.0f \
       exits/s\n"
      eff.Analysis.real_seconds eff.Analysis.replay_seconds
      eff.Analysis.pct_decrease eff.Analysis.replay_exits_per_sec;
    if not fresh then begin
      let acc =
        Analysis.accuracy ~recorded:recording.Manager.trace
          ~replayed:replay.Manager.replay_trace
      in
      Printf.printf "coverage fitting %.1f%%   VMWRITE fitting %.1f%%\n"
        acc.Analysis.fitting_pct acc.Analysis.vmwrite_fit_pct
    end;
    telemetry_report ~trace_out ~metrics hub
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Record a behavior and replay it through a dummy VM.")
    Term.(
      const run $ workload $ exits $ prng_seed $ boot_scale $ fresh
      $ trace_out $ metrics_flag)

(* --- fuzz --- *)

let reason_conv =
  let parse s =
    let s' = String.uppercase_ascii s in
    match
      List.find_opt
        (fun r ->
          String.uppercase_ascii (R.short_name r) = s'
          || String.uppercase_ascii (R.name r) = s')
        R.all
    with
    | Some r -> Ok r
    | None -> Error (`Msg (Printf.sprintf "unknown exit reason %S" s))
  in
  Arg.conv (parse, fun fmt r -> Format.pp_print_string fmt (R.short_name r))

let fuzz_cmd =
  let reason =
    Arg.(
      value
      & opt reason_conv R.Rdtsc
      & info [ "r"; "reason" ] ~docv:"REASON"
          ~doc:"Exit reason of the target seed (e.g. RDTSC, CPUID, 'CR ACC.').")
  in
  let area =
    Arg.(
      value
      & opt (enum [ ("vmcs", Iris_fuzzer.Mutation.Area_vmcs);
                    ("gpr", Iris_fuzzer.Mutation.Area_gpr) ])
          Iris_fuzzer.Mutation.Area_vmcs
      & info [ "a"; "area" ] ~docv:"AREA" ~doc:"Seed area to mutate.")
  in
  let mutations =
    Arg.(
      value
      & opt int 10_000
      & info [ "m"; "mutations" ] ~docv:"N"
          ~doc:"Mutated seed versions per test case (paper: 10000).")
  in
  let guided =
    Arg.(
      value & flag
      & info [ "g"; "guided" ]
          ~doc:
            "Use the coverage-guided loop (corpus + bitmap novelty) instead \
             of the PoC's naive single bit-flips.")
  in
  let jobs =
    Arg.(
      value
      & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Shard the campaign's test cases across N worker domains, each \
             with an isolated dummy VM; results are merged in case-index \
             order, so the report is byte-identical for any N.")
  in
  let print_campaign r =
    Printf.printf
      "VMseed_R = #%d   baseline %d LOC -> %d LOC (%s new coverage)\n"
      r.Iris_fuzzer.Campaign.seed_index
      r.Iris_fuzzer.Campaign.baseline_lines r.Iris_fuzzer.Campaign.fuzz_lines
      (Iris_fuzzer.Campaign.pct_string r);
    Printf.printf "failures: %d VM crashes, %d hypervisor crashes\n"
      r.Iris_fuzzer.Campaign.vm_crashes r.Iris_fuzzer.Campaign.hv_crashes;
    List.iteri
      (fun i v ->
        if i < 10 then
          Printf.printf "  [%s] %s -> %s\n"
            (Iris_fuzzer.Campaign.failure_name v.Iris_fuzzer.Campaign.failure)
            (Iris_fuzzer.Mutation.describe v.Iris_fuzzer.Campaign.mutation)
            v.Iris_fuzzer.Campaign.detail)
      r.Iris_fuzzer.Campaign.crashing
  in
  let run workload exits prng_seed boot_scale reason area mutations guided
      jobs trace_out metrics =
    let mgr = Manager.create ~boot_scale ~prng_seed () in
    let hub = telemetry_hub ~trace_out ~metrics mgr in
    Printf.printf "recording %d exits of %s...\n%!" exits (W.name workload);
    let recording = Manager.record mgr workload ~exits in
    Printf.printf "fuzzing: reason=%s area=%s N=%d%s%s...\n%!"
      (R.short_name reason)
      (Iris_fuzzer.Mutation.area_name area)
      mutations
      (if guided then " (coverage-guided)" else "")
      (if jobs > 1 then Printf.sprintf " jobs=%d" jobs else "");
    if guided then begin
      if jobs > 1 then
        Printf.printf
          "note: the guided loop is inherently sequential (each round \
           mutates the corpus\nprevious rounds grew); --jobs applies to \
           plain campaigns, ignoring it here\n";
      let config = { Iris_fuzzer.Guided.iterations = mutations; prng_seed } in
      match
        Iris_fuzzer.Guided.run ~config ~manager:mgr ~recording ~reason
      with
      | None ->
          Printf.printf "the trace has no seed with exit reason %s\n"
            (R.short_name reason)
      | Some g ->
          Printf.printf
            "VMseed_R = #%d   baseline %d LOC -> %d LOC, corpus %d entries\n"
            g.Iris_fuzzer.Guided.seed_index
            g.Iris_fuzzer.Guided.baseline_lines
            g.Iris_fuzzer.Guided.unique_lines
            g.Iris_fuzzer.Guided.corpus_size;
          Printf.printf "failures: %d VM crashes, %d hypervisor crashes\n"
            g.Iris_fuzzer.Guided.vm_crashes g.Iris_fuzzer.Guided.hv_crashes;
          List.iteri
            (fun i (_, cls, detail) ->
              if i < 10 then
                Printf.printf "  [%s] %s\n"
                  (Iris_fuzzer.Campaign.failure_name cls)
                  detail)
            g.Iris_fuzzer.Guided.crashing
    end
    else if jobs > 1 then begin
      (* Sharded campaign: each worker owns an isolated hypervisor +
         dummy VM; the ordered merge makes the report identical to a
         sequential run. *)
      let config = { Iris_fuzzer.Campaign.mutations; prng_seed } in
      match Orch.fuzz ~jobs ~config ~recording ~reason ~area () with
      | None ->
          Printf.printf "the trace has no seed with exit reason %s\n"
            (R.short_name reason)
      | Some o ->
          print_campaign o.Orch.fuzz_result;
          print_newline ();
          print_string (Orch.render_workers o.Orch.fuzz_report);
          if metrics then begin
            sample_gc o.Orch.fuzz_report.Orch.r_hub.T.Hub.registry;
            print_string
              (T.Hub.summary ~title:"telemetry (merged)"
                 o.Orch.fuzz_report.Orch.r_hub)
          end
    end
    else begin
      let config = { Iris_fuzzer.Campaign.mutations; prng_seed } in
      match
        Iris_fuzzer.Campaign.run ~config ~manager:mgr ~recording ~reason ~area ()
      with
      | None ->
          Printf.printf "the trace has no seed with exit reason %s\n"
            (R.short_name reason)
      | Some r -> print_campaign r
    end;
    telemetry_report ~trace_out ~metrics hub
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Run one PoC fuzzing test case (replay to S_R, mutate, triage).")
    Term.(
      const run $ workload $ exits $ prng_seed $ boot_scale $ reason $ area
      $ mutations $ guided $ jobs $ trace_out $ metrics_flag)

(* --- stats --- *)

let stats_cmd =
  let top =
    Arg.(
      value
      & opt int 10
      & info [ "top" ] ~docv:"N" ~doc:"Exit reasons to list (default 10).")
  in
  (* Pull the per-reason members of a vec family out of a snapshot:
     ["hv.exits{CPUID}"] becomes [("CPUID", count)]. *)
  let vec_members snap prefix =
    let plen = String.length prefix in
    List.filter_map
      (fun (name, sample) ->
        if
          String.length name > plen + 1
          && String.sub name 0 plen = prefix
          && name.[plen] = '{'
        then
          match sample with
          | T.Registry.S_counter v when v > 0L ->
              Some (String.sub name (plen + 1) (String.length name - plen - 2),
                    v)
          | _ -> None
        else None)
      snap
  in
  let jobs =
    Arg.(
      value
      & opt int 0
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Also run a small sharded fuzzing campaign with N worker \
             domains and print per-worker utilization.")
  in
  let run workload exits prng_seed boot_scale trace_out top jobs =
    let mgr = Manager.create ~boot_scale ~prng_seed () in
    let hub = T.Hub.create () in
    Manager.set_hub mgr (Some hub);
    Printf.printf "recording %d exits of %s (seed %d)...\n%!" exits
      (W.name workload) prng_seed;
    let recording = Manager.record mgr workload ~exits in
    let trace = recording.Manager.trace in
    sample_gc hub.T.Hub.registry;
    let snap = T.Hub.snapshot hub in
    let by_count =
      List.sort
        (fun (_, a) (_, b) -> compare b a)
        (vec_members snap "hv.exits")
    in
    let cycles = vec_members snap "hv.exit_cycles" in
    Printf.printf "\ntop exit reasons (%d recorded, %d during boot):\n"
      (Trace.length trace) recording.Manager.boot_exits;
    Printf.printf "  %-16s %10s %16s\n" "reason" "exits" "handler cycles";
    List.iteri
      (fun i (label, n) ->
        if i < top then
          let cyc = Option.value ~default:0L (List.assoc_opt label cycles) in
          Printf.printf "  %-16s %10Ld %16Ld\n" label n cyc)
      by_count;
    (* Exact per-exit percentiles from the recorded metrics
       (Fig. 10's per-exit view)... *)
    let samples =
      Array.map
        (fun m -> Int64.to_float m.Iris_core.Metrics.handler_cycles)
        trace.Trace.metrics
    in
    if Array.length samples > 0 then begin
      let p q = Iris_util.Stats.percentile samples q in
      Printf.printf
        "\nhandler cycles per exit: p50 %.0f   p90 %.0f   p99 %.0f   max %.0f\n"
        (p 50.) (p 90.) (p 99.) (p 100.)
    end;
    (match Analysis.handler_time_summary trace with
    | Some q ->
        Printf.printf
          "handler service time:     p50 %.2f us  p95 %.2f us  p99 %.2f us  \
           max %.2f us  (n=%d)\n"
          q.Iris_util.Stats.q_p50 q.Iris_util.Stats.q_p95
          q.Iris_util.Stats.q_p99 q.Iris_util.Stats.q_max
          q.Iris_util.Stats.q_n
    | None -> ());
    (* ...and the registry's O(1) log2-histogram approximation of the
       same distribution, which is what a live campaign exports. *)
    let h = T.Registry.histogram hub.T.Hub.registry "hv.handler_cycles" in
    if T.Registry.hist_count h > 0L then
      Printf.printf
        "log2-histogram estimate:  p50 %.0f   p99 %.0f   (n=%Ld)\n"
        (T.Registry.hist_quantile h 0.5)
        (T.Registry.hist_quantile h 0.99)
        (T.Registry.hist_count h);
    print_newline ();
    print_string (T.Export.summary ~title:"telemetry" snap);
    (* Worker utilization of a sharded smoke campaign (the orchestrator's
       scaling view; model time, see the bench for the full sweep). *)
    if jobs > 0 then begin
      let config = { Iris_fuzzer.Campaign.mutations = 500; prng_seed } in
      match
        Orch.fuzz ~jobs ~config ~recording ~reason:R.Rdtsc
          ~area:Iris_fuzzer.Mutation.Area_vmcs ()
      with
      | None ->
          Printf.printf "\nno RDTSC seed in this workload; skipping the \
                         sharded smoke campaign\n"
      | Some o ->
          Printf.printf "\nsharded smoke campaign (RDTSC/vmcs, 500 mutations, \
                         jobs=%d):\n" jobs;
          print_string (Orch.render_workers o.Orch.fuzz_report)
    end;
    telemetry_report ~trace_out ~metrics:false (Some hub)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Record a short run and print its telemetry: per-exit-reason \
          counts and cycle totals, handler-cycle percentiles, and the full \
          metrics table.")
    Term.(
      const run $ workload $ exits $ prng_seed $ boot_scale $ trace_out $ top
      $ jobs)

(* --- inspect --- *)

module Insp = Iris_inspect

let int64_opt_str = function
  | Some v -> Printf.sprintf "0x%Lx" v
  | None -> "-"

let print_diagnosis (d : Insp.Locator.diagnosis) =
  Printf.printf "first divergent exit: #%d (%s)\n" d.Insp.Locator.dg_index
    (R.short_name d.Insp.Locator.dg_reason);
  (match d.Insp.Locator.dg_crashed with
  | Some msg -> Printf.printf "  dummy VM crashed: %s\n" msg
  | None -> ());
  if d.Insp.Locator.dg_cov_missing + d.Insp.Locator.dg_cov_extra > 0 then begin
    Printf.printf "  coverage delta: %d missing, %d extra lines\n"
      d.Insp.Locator.dg_cov_missing d.Insp.Locator.dg_cov_extra;
    List.iteri
      (fun i (c, n) ->
        if i < 5 then
          Printf.printf "    %-14s %d lines\n" (Iris_coverage.Component.name c)
            n)
      d.Insp.Locator.dg_components
  end;
  List.iteri
    (fun i (f, rv, pv) ->
      if i < 8 then
        Printf.printf "  VMWRITE delta: %-26s recorded %-18s replayed %s\n"
          (Iris_vmcs.Field.name f) (int64_opt_str rv) (int64_opt_str pv))
    d.Insp.Locator.dg_write_deltas

let print_provenance ~trace ~before fname =
  match
    Array.to_list Iris_vmcs.Field.all
    |> List.find_opt (fun f ->
           String.lowercase_ascii (Iris_vmcs.Field.name f)
           = String.lowercase_ascii fname)
  with
  | None ->
      Printf.eprintf "unknown VMCS field %S\n" fname;
      exit 1
  | Some f ->
      let prov = Insp.Provenance.build trace in
      let touches = Insp.Provenance.field_touches prov f in
      let describe (t : Insp.Provenance.touch) =
        Printf.sprintf "exit #%d (%s) %s 0x%Lx" t.Insp.Provenance.t_index
          (R.short_name t.Insp.Provenance.t_reason)
          (match t.Insp.Provenance.t_access with
          | Insp.Provenance.Read -> "read"
          | Insp.Provenance.Write -> "wrote")
          t.Insp.Provenance.t_value
      in
      Printf.printf "\nprovenance of %s: %d recorded touches\n"
        (Iris_vmcs.Field.name f) (List.length touches);
      (match Insp.Provenance.first_touch prov f with
      | Some t -> Printf.printf "  first touch:          %s\n" (describe t)
      | None -> ());
      (match Insp.Provenance.last_touch_before prov f before with
      | Some t ->
          Printf.printf "  last touch before #%d: %s\n" before (describe t)
      | None -> Printf.printf "  no touch before #%d\n" before)

let inspect_cmd =
  let perturb =
    Arg.(
      value
      & opt (some int) None
      & info [ "perturb" ] ~docv:"IDX"
          ~doc:
            "Plant a synthetic fault: rewrite the first seed at index >= \
             $(docv) that reads guest RIP to a non-canonical value, then \
             diagnose against an unperturbed baseline replay.")
  in
  let every =
    Arg.(
      value
      & opt int 64
      & info [ "k"; "every" ] ~docv:"K"
          ~doc:"Checkpoint period of the detection pass, in seeds.")
  in
  let thorough =
    Arg.(
      value & flag
      & info [ "thorough" ]
          ~doc:
            "Scan every segment down to seed 0 instead of stopping at the \
             first clean segment below a divergence (guaranteed-global \
             minimum for multi-fault traces).")
  in
  let field =
    Arg.(
      value
      & opt (some string) None
      & info [ "field" ] ~docv:"FIELD"
          ~doc:
            "Also print the provenance of this VMCS field (e.g. GUEST_RIP): \
             first recorded touch, and the reverse-continue target before \
             the divergence.")
  in
  let run workload exits prng_seed boot_scale perturb every thorough field
      trace_out metrics =
    let mgr = Manager.create ~boot_scale ~prng_seed () in
    let hub = telemetry_hub ~trace_out ~metrics mgr in
    Printf.printf "recording %d exits of %s (seed %d)...\n%!" exits
      (W.name workload) prng_seed;
    let recording = Manager.record mgr workload ~exits in
    let rec_trace = recording.Manager.trace in
    (* The reference: against the recording itself in the ordinary
       diagnosis mode, or — when planting a synthetic fault — against
       an unperturbed baseline replay, whose determinism guarantees
       the planted index is the only divergence. *)
    let reference, seeds, planted =
      match perturb with
      | None -> (rec_trace, rec_trace.Trace.seeds, None)
      | Some at -> (
          Printf.printf "baseline replay (the perturbed run's reference)...\n%!";
          let baseline = Manager.replay mgr recording in
          (match baseline.Manager.outcome with
          | Replayer.Replayed -> ()
          | Replayer.Vm_crashed msg ->
              Printf.eprintf "baseline replay crashed: %s\n" msg;
              exit 1);
          match Iris_scenario.Scenario.plant ~at rec_trace.Trace.seeds with
          | Error msg ->
              Printf.eprintf "%s; nothing to perturb\n" msg;
              exit 1
          | Ok (idx, seeds) ->
              Printf.printf "perturbed seed #%d (non-canonical guest RIP)\n"
                idx;
              (baseline.Manager.replay_trace, seeds, Some idx))
    in
    (* The gate: the locator agrees with one linear instrumented
       replay (and with the planted index). *)
    let locate ~thorough =
      Gate.locate ~manager:mgr ~recording ~reference ?planted ~thorough ~every
        seeds
    in
    let verdict =
      match locate ~thorough with
      | Error _ when not thorough ->
          (* The fast scan stops at the first clean segment; a
             multi-fault trace with healed divergence can fool it. *)
          Printf.printf
            "fast scan disagrees with ground truth; re-running thorough...\n";
          locate ~thorough:true
      | v -> v
    in
    match verdict with
    | Error msg ->
        telemetry_report ~trace_out ~metrics hub;
        Printf.eprintf "locator disagrees with the linear ground truth: %s\n"
          msg;
        exit 1
    | Ok { Gate.divergence = dv; report = r; _ } ->
        (match hub with
        | None -> ()
        | Some hub -> Analysis.note_divergence ~hub ~recorded:reference dv);
        (match r.Insp.Locator.first_divergent with
        | None ->
            Printf.printf
              "no divergence: the replay fits the reference on all %d \
               compared seeds\n"
              dv.Analysis.dv_compared
        | Some d -> print_diagnosis d);
        Option.iter
          (Printf.printf "planted fault at #%d -> locator found the exact \
                          index\n")
          planted;
        Printf.printf
          "cost: %d checkpoints, %d reverts, %d probes, %d instrumented seeds\n"
          r.Insp.Locator.checkpoints r.Insp.Locator.reverts
          r.Insp.Locator.probes r.Insp.Locator.seeds_instrumented;
        if r.Insp.Locator.seeds_instrumented > 0 then
          Printf.printf
            "linear instrumented re-replay would have cost %d seeds -> %.1fx \
             fewer\n"
            r.Insp.Locator.linear_seeds
            (float_of_int r.Insp.Locator.linear_seeds
            /. float_of_int r.Insp.Locator.seeds_instrumented);
        Option.iter
          (print_provenance ~trace:rec_trace
             ~before:
               (match dv.Analysis.dv_first with
               | Some d -> d.Analysis.d_index
               | None -> Trace.length rec_trace))
          field;
        telemetry_report ~trace_out ~metrics hub
  in
  Cmd.v
    (Cmd.info "inspect"
       ~doc:
         "Record, replay and diagnose: find the first divergent exit with \
          checkpoint search instead of linear re-replay, and answer \
          field-provenance queries.")
    Term.(
      const run $ workload $ exits $ prng_seed $ boot_scale $ perturb $ every
      $ thorough $ field $ trace_out $ metrics_flag)

(* --- bisect --- *)

let bisect_cmd =
  let reason =
    Arg.(
      value
      & opt reason_conv R.Rdtsc
      & info [ "r"; "reason" ] ~docv:"REASON"
          ~doc:"Exit reason of the fuzzed seed.")
  in
  let area =
    Arg.(
      value
      & opt (enum [ ("vmcs", Iris_fuzzer.Mutation.Area_vmcs);
                    ("gpr", Iris_fuzzer.Mutation.Area_gpr) ])
          Iris_fuzzer.Mutation.Area_vmcs
      & info [ "a"; "area" ] ~docv:"AREA" ~doc:"Seed area to mutate.")
  in
  let mutations =
    Arg.(
      value
      & opt int 2_000
      & info [ "m"; "mutations" ] ~docv:"N"
          ~doc:"Mutated seed versions to try while hunting for a crash.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Save the minimized reproducer trace here.")
  in
  let run workload exits prng_seed boot_scale reason area mutations out
      trace_out metrics =
    let mgr = Manager.create ~boot_scale ~prng_seed () in
    let hub = telemetry_hub ~trace_out ~metrics mgr in
    Printf.printf "recording %d exits of %s (seed %d)...\n%!" exits
      (W.name workload) prng_seed;
    let recording = Manager.record mgr workload ~exits in
    let trace = recording.Manager.trace in
    let config = { Iris_fuzzer.Campaign.mutations; prng_seed } in
    Printf.printf "fuzzing %s/%s for a crashing mutant...\n%!"
      (R.short_name reason)
      (Iris_fuzzer.Mutation.area_name area);
    let result =
      Iris_fuzzer.Campaign.run ~config ~manager:mgr ~recording ~reason ~area
        ()
    in
    let plan =
      Iris_fuzzer.Campaign.plan ~config ~trace ~reason ~area
    in
    (match (result, plan) with
    | None, _ | _, None ->
        Printf.printf "the trace has no seed with exit reason %s\n"
          (R.short_name reason);
        exit 1
    | Some r, Some plan -> (
        match r.Iris_fuzzer.Campaign.crashing with
        | [] ->
            Printf.printf
              "no crashing mutant in %d mutations; try more with -m\n"
              mutations;
            exit 1
        | v :: _ ->
            let seed_index = r.Iris_fuzzer.Campaign.seed_index in
            let crasher = Iris_fuzzer.Campaign.crashing_seed plan v in
            Printf.printf
              "crashing mutant of VMseed #%d: [%s] %s\n  mutation: %s\n%!"
              seed_index
              (Iris_fuzzer.Campaign.failure_name
                 v.Iris_fuzzer.Campaign.failure)
              v.Iris_fuzzer.Campaign.detail
              (Iris_fuzzer.Mutation.describe v.Iris_fuzzer.Campaign.mutation);
            let prefix = Array.sub trace.Trace.seeds 0 seed_index in
            let make_replayer () =
              Manager.make_dummy mgr ~revert_to:recording.Manager.snapshot ()
            in
            (match Insp.Bisect.minimize ~make_replayer ~prefix ~crasher with
            | None ->
                Printf.printf
                  "the crash does not reproduce on a linear replay (flaky \
                   mutant); nothing to bisect\n";
                exit 1
            | Some b ->
                Printf.printf
                  "minimized: prefix %d seeds -> suffix [%d..%d) + mutant = \
                   %d seeds\n"
                  seed_index b.Insp.Bisect.b_suffix_start seed_index
                  (Array.length b.Insp.Bisect.b_seeds);
                Printf.printf "  crash: %s\n" b.Insp.Bisect.b_crash_msg;
                Printf.printf
                  "  search: %d attempts, %d seeds replayed\n"
                  b.Insp.Bisect.b_attempts b.Insp.Bisect.b_seeds_replayed;
                Printf.printf "  verification digest: %s (%s)\n"
                  b.Insp.Bisect.b_digest
                  (if b.Insp.Bisect.b_deterministic then
                     "deterministic across two replays"
                   else "NON-DETERMINISTIC");
                (match out with
                | Some path ->
                    Trace.save
                      (Insp.Bisect.to_trace
                         ~workload:(W.name recording.Manager.workload)
                         b)
                      ~path;
                    Printf.printf "reproducer written to %s\n" path
                | None -> ());
                if not b.Insp.Bisect.b_deterministic then exit 1)));
    telemetry_report ~trace_out ~metrics hub
  in
  Cmd.v
    (Cmd.info "bisect"
       ~doc:
         "Fuzz until a mutant kills the VM, then shrink the crash to the \
          smallest divergent suffix and emit a deterministic reproducer.  \
          Exits 1 when no mutant crashes, when the crash does not \
          reproduce, or when the reproducer is not deterministic.")
    Term.(
      const run $ workload $ exits $ prng_seed $ boot_scale $ reason $ area
      $ mutations $ out $ trace_out $ metrics_flag)

(* --- info --- *)

let info_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE" ~doc:"Trace file written by 'record -o'.")
  in
  let run path =
    match Trace.load ~path with
    | Error e ->
        Printf.eprintf "cannot load %s: %s\n" path e;
        exit 1
    | Ok trace ->
        Format.printf "%a@." Trace.pp_summary trace;
        Printf.printf
          "seed bytes total %d, max rw records per seed %d (worst-case \
           pre-allocation %d bytes/exit)\n"
          (Trace.total_seed_bytes trace)
          (Trace.max_rw_records trace)
          Iris_core.Seed.preallocated_bytes
  in
  Cmd.v
    (Cmd.info "info" ~doc:"Summarise a recorded trace file.")
    Term.(const run $ file)

(* --- port --- *)

let port_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE" ~doc:"Trace file written by 'record -o'.")
  in
  let run path =
    match Trace.load ~path with
    | Error e ->
        Printf.eprintf "cannot load %s: %s\n" path e;
        exit 1
    | Ok trace ->
        Printf.printf
          "%s: %.1f%% of VMREAD records translate to AMD VMCB fields\n"
          path
          (Iris_svm.Port.coverage_pct trace);
        let dropped = Hashtbl.create 16 in
        Array.iter
          (fun s ->
            let t = Iris_svm.Port.translate s in
            List.iter
              (fun d ->
                let f = d.Iris_svm.Port.vmcs_field in
                Hashtbl.replace dropped f
                  (1 + Option.value ~default:0 (Hashtbl.find_opt dropped f)))
              t.Iris_svm.Port.dropped)
          trace.Trace.seeds;
        Hashtbl.fold (fun f n acc -> (f, n) :: acc) dropped []
        |> List.sort (fun (_, a) (_, b) -> compare b a)
        |> List.iter (fun (f, n) ->
               Printf.printf "  VT-x-only: %-28s dropped %d times\n"
                 (Iris_vmcs.Field.name f) n)
  in
  Cmd.v
    (Cmd.info "port"
       ~doc:"Report how much of a recorded trace ports to AMD SVM (§IX).")
    Term.(const run $ file)

(* --- diff --- *)

let diff_cmd =
  let module Diffc = Iris_differential.Diffcampaign in
  let module Machine = Iris_svm.Machine in
  let jobs =
    Arg.(
      value
      & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains to shard the differential sweep across.")
  in
  let plant =
    Arg.(
      value
      & opt (some string) None
      & info [ "plant" ] ~docv:"KIND"
          ~doc:
            "Plant an intentional SVM-side asymmetry and gate the detector \
             against ground truth (the finding set of an SVM-vs-SVM diff). \
             KIND is next-rip-skew, cpuid-ecx-flip, rflags-cf-flip, \
             reject-asid, or 'all'.")
  in
  let run workload exits prng_seed boot_scale jobs plant trace_out metrics =
    let plants =
      match plant with
      | None -> Ok []
      | Some "all" -> Ok Machine.all_asymmetries
      | Some name -> (
          match Machine.asymmetry_of_name name with
          | Some k -> Ok [ k ]
          | None ->
              Error
                (Printf.sprintf "unknown asymmetry %S (try: %s, all)" name
                   (String.concat ", "
                      (List.map Machine.asymmetry_name
                         Machine.all_asymmetries))))
    in
    match plants with
    | Error msg ->
        Printf.eprintf "%s\n" msg;
        exit 1
    | Ok plants ->
        let mgr = Manager.create ~boot_scale ~prng_seed () in
        Printf.printf "recording %d exits of %s (seed %d)...\n%!" exits
          (W.name workload) prng_seed;
        let recording = Manager.record mgr workload ~exits in
        match Gate.diff ~recording ~jobs:[ jobs ] ~plants with
        | Error msg ->
            Printf.eprintf "differential gate failed: %s\n" msg;
            exit 1
        | Ok facts ->
            let merged_hub = T.Hub.create () in
            List.iter
              (fun o ->
                T.Hub.merge_into ~into:merged_hub o.Orch.diff_run.Orch.r_hub;
                Format.printf "%a@." Diffc.pp_report o.Orch.diff_report;
                if jobs > 1 then
                  print_string (Orch.render_workers o.Orch.diff_run))
              (List.map snd facts.Gate.unperturbed
              @ List.map (fun (_, _, o) -> o) facts.Gate.planted);
            Printf.printf
              "backends agree on every comparable case; %d planted \
               asymmetries detected exactly\n"
              (List.length facts.Gate.planted);
            (match trace_out with
            | None -> ()
            | Some path ->
                T.Export.write_file ~path
                  (T.Export.chrome_trace_string ~process_name:"iris-diff"
                     merged_hub.T.Hub.tracer);
                Printf.printf "chrome trace written to %s\n" path);
            if metrics then
              print_string (T.Hub.summary ~title:"differential" merged_hub)
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Differential fuzzing oracle: replay a recorded trace on both the \
          VT-x and SVM substrates and treat any normalized-verdict \
          disagreement as a finding; with --plant, gate the detector \
          against planted ground truth.")
    Term.(
      const run $ workload $ exits $ prng_seed $ boot_scale $ jobs $ plant
      $ trace_out $ metrics_flag)

(* --- serve / submit / status / corpus: the campaign service --- *)

module Svc = Iris_service

let socket_path =
  Arg.(
    value
    & opt string "/tmp/iris-serve.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket the daemon listens on (clients dial it).")

let serve_cmd =
  let jobs =
    Arg.(
      value
      & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Domain-pool width: runnable jobs dispatched per scheduling \
             round, each on its own worker domain.")
  in
  let quantum =
    Arg.(
      value
      & opt int 256
      & info [ "quantum" ] ~docv:"CASES"
          ~doc:"Deficit-round-robin base budget, in campaign cases.")
  in
  let stdin_mode =
    Arg.(
      value & flag
      & info [ "stdin" ]
          ~doc:
            "Pipe mode: read request lines from stdin and answer on stdout \
             instead of binding a socket (what CI drives); exits non-zero \
             if any response was not ok.")
  in
  let status_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "status-out" ] ~docv:"FILE"
          ~doc:
            "Append one JSONL status snapshot per scheduling round \
             (sequence number, queue depths, corpus and triage sizes, \
             merged metrics).")
  in
  let corpus_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus-file" ] ~docv:"FILE"
          ~doc:
            "Durable corpus: load it at startup when present, save it back \
             on shutdown.")
  in
  let run jobs quantum socket stdin_mode status_out corpus_file =
    let status_chan = Option.map open_out status_out in
    let status_sink =
      Option.map
        (fun oc line ->
          output_string oc line;
          output_char oc '\n';
          flush oc)
        status_chan
    in
    let server = Svc.Server.create ~jobs ~quantum ?status_sink () in
    (match corpus_file with
    | Some path when Sys.file_exists path -> (
        match Svc.Corpus.load ~path with
        | Ok loaded ->
            let added =
              Svc.Corpus.merge_from (Svc.Server.corpus server) loaded
            in
            Printf.eprintf "corpus: loaded %d entries from %s\n%!" added path
        | Error e ->
            Printf.eprintf "cannot load corpus %s: %s\n" path e;
            exit 1)
    | _ -> ());
    let ok =
      if stdin_mode then Svc.Wire.serve_pipe server Stdlib.stdin Stdlib.stdout
      else begin
        Printf.eprintf "iris serve: listening on %s (jobs=%d quantum=%d)\n%!"
          socket jobs quantum;
        Svc.Wire.serve_socket server ~path:socket
      end
    in
    (match corpus_file with
    | Some path ->
        Svc.Corpus.save (Svc.Server.corpus server) ~path;
        Printf.eprintf "corpus: saved %d entries to %s\n%!"
          (Svc.Corpus.count (Svc.Server.corpus server))
          path
    | None -> ());
    Option.iter close_out status_chan;
    if not ok then exit 1
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent campaign daemon: a multi-tenant job queue with \
          deficit-round-robin fair scheduling, a coverage-keyed corpus \
          store and automatic crash triage.  Drained reports are \
          byte-identical across --jobs counts and submission orders.")
    Term.(
      const run $ jobs $ quantum $ socket_path $ stdin_mode $ status_out
      $ corpus_file)

(* Client side: one request line against a running daemon. *)
let client_call ~socket line =
  match Svc.Wire.call ~path:socket line with
  | Error e ->
      Printf.eprintf "cannot reach daemon at %s: %s\n" socket e;
      exit 1
  | Ok resp ->
      print_endline resp;
      if not (Svc.Wire.response_ok resp) then exit 1

let submit_cmd =
  let tenant =
    Arg.(
      value
      & opt string "default"
      & info [ "tenant" ] ~docv:"NAME"
          ~doc:"Owner of the job; the fair scheduler's flow id.")
  in
  let priority =
    Arg.(
      value
      & opt int 1
      & info [ "p"; "priority" ] ~docv:"N"
          ~doc:"Scheduling weight (>= 1): deficit accrues N times faster.")
  in
  let reason =
    Arg.(
      value
      & opt reason_conv R.Rdtsc
      & info [ "r"; "reason" ] ~docv:"REASON"
          ~doc:"Exit reason of the target seed.")
  in
  let area =
    Arg.(
      value
      & opt (enum [ ("vmcs", Iris_fuzzer.Mutation.Area_vmcs);
                    ("gpr", Iris_fuzzer.Mutation.Area_gpr) ])
          Iris_fuzzer.Mutation.Area_vmcs
      & info [ "a"; "area" ] ~docv:"AREA" ~doc:"Seed area to mutate.")
  in
  let mutations =
    Arg.(
      value
      & opt int 1_000
      & info [ "m"; "mutations" ] ~docv:"N" ~doc:"Campaign budget.")
  in
  let timeout =
    Arg.(
      value
      & opt (some int64) None
      & info [ "timeout-cycles" ] ~docv:"CYCLES"
          ~doc:
            "Modeled-cycle budget; the job truncates at the same case \
             regardless of scheduling.")
  in
  let run socket tenant priority workload exits reason area mutations
      prng_seed boot_scale timeout =
    let spec =
      Svc.Jobspec.make ~tenant ~priority ~boot_scale
        ?timeout_cycles:timeout ~workload ~exits ~reason ~area ~mutations
        ~prng_seed ()
    in
    client_call ~socket (Svc.Wire.request_to_line (Svc.Wire.Submit spec))
  in
  Cmd.v
    (Cmd.info "submit" ~doc:"Submit a campaign job to a running daemon.")
    Term.(
      const run $ socket_path $ tenant $ priority $ workload $ exits $ reason
      $ area $ mutations $ prng_seed $ boot_scale $ timeout)

let status_cmd =
  let drain =
    Arg.(
      value & flag
      & info [ "drain" ]
          ~doc:
            "Block until the queue is empty and print the drain summary \
             (including the scheduling-independent report digest).")
  in
  let verify =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "Re-replay the determinism contract: every corpus entry and \
             every triage reproducer must land on its stored digest.")
  in
  let cancel =
    Arg.(
      value
      & opt (some int) None
      & info [ "cancel" ] ~docv:"ID" ~doc:"Cancel this job id instead.")
  in
  let shutdown =
    Arg.(
      value & flag
      & info [ "shutdown" ] ~doc:"Ask the daemon to exit instead.")
  in
  let run socket drain verify cancel shutdown =
    let req =
      match (cancel, drain, verify, shutdown) with
      | Some id, _, _, _ -> Svc.Wire.Cancel id
      | None, true, _, _ -> Svc.Wire.Drain
      | None, false, true, _ -> Svc.Wire.Verify
      | None, false, false, true -> Svc.Wire.Shutdown
      | None, false, false, false -> Svc.Wire.Status
    in
    client_call ~socket (Svc.Wire.request_to_line req)
  in
  Cmd.v
    (Cmd.info "status"
       ~doc:
         "Query a running daemon: queue snapshot by default, or --drain, \
          --verify, --cancel ID, --shutdown.")
    Term.(const run $ socket_path $ drain $ verify $ cancel $ shutdown)

let corpus_cmd =
  let distill =
    Arg.(
      value & flag
      & info [ "distill" ]
          ~doc:
            "Drop corpus entries whose coverage is subsumed by the rest \
             (greedy set cover; the coverage union is preserved exactly).")
  in
  let save =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE" ~doc:"Save the daemon's corpus here.")
  in
  let load =
    Arg.(
      value
      & opt (some string) None
      & info [ "load" ] ~docv:"FILE"
          ~doc:"Merge a saved corpus into the daemon's store.")
  in
  let run socket distill save load =
    let req =
      match (distill, save, load) with
      | true, _, _ -> Svc.Wire.Distill
      | false, Some p, _ -> Svc.Wire.Corpus_save p
      | false, None, Some p -> Svc.Wire.Corpus_load p
      | false, None, None -> Svc.Wire.Corpus_stats
    in
    client_call ~socket (Svc.Wire.request_to_line req)
  in
  Cmd.v
    (Cmd.info "corpus"
       ~doc:
         "Inspect or manage a running daemon's corpus: stats by default, \
          or --distill, --save FILE, --load FILE.")
    Term.(const run $ socket_path $ distill $ save $ load)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "iris" ~version:"1.0.0"
             ~doc:
               "Record and replay of hardware-assisted virtualization \
                behaviors (IRIS, DSN'23) on a simulated Xen/VT-x substrate.")
          [ record_cmd; replay_cmd; fuzz_cmd; diff_cmd; inspect_cmd; bisect_cmd;
            serve_cmd; submit_cmd; status_cmd; corpus_cmd;
            stats_cmd; info_cmd; port_cmd ]))
