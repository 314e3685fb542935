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

(* The campaign target, parsed exactly as the wire protocol parses it
   ([Jobspec.reason_of_string] and [Jobspec.area_of_string]): a reason
   is a name such as RDTSC or 'CR ACC.', or its decimal code. *)
let reason_conv =
  let parse s =
    match Iris_service.Jobspec.reason_of_string s with
    | Some r -> Ok r
    | None -> Error (`Msg (Printf.sprintf "unknown exit reason %S" s))
  in
  Arg.conv (parse, fun fmt r -> Format.pp_print_string fmt (R.short_name r))

let area_conv =
  let parse s =
    match Iris_service.Jobspec.area_of_string s with
    | Some a -> Ok a
    | None -> Error (`Msg (Printf.sprintf "unknown area %S (try: vmcs, gpr)" s))
  in
  Arg.conv
    ( parse,
      fun fmt a ->
        Format.pp_print_string fmt (Iris_service.Jobspec.area_string a) )

let reason ~doc =
  Arg.(
    value
    & opt reason_conv R.Rdtsc
    & info [ "r"; "reason" ] ~docv:"REASON" ~doc)

let area =
  Arg.(
    value
    & opt area_conv Iris_fuzzer.Mutation.Area_vmcs
    & info [ "a"; "area" ] ~docv:"AREA" ~doc:"Seed area to mutate: vmcs or gpr.")

(* A worker-domain count.  The runtime allows 128 domains at once
   (Max_domains), the main domain among them, so a run can spawn at
   most 127 workers; a value outside 1..127 is a usage error. *)
let jobs ~doc =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 && n <= 127 -> Ok n
    | _ ->
        Error
          (`Msg (Printf.sprintf "invalid worker count %S (expected 1..127)" s))
  in
  Arg.(
    value
    & opt (conv (parse, Format.pp_print_int)) 1
    & info [ "j"; "jobs" ] ~docv:"N" ~doc)

(* --- the recording every run command starts from --- *)

type setup = {
  workload : W.t;
  exits : int;
  prng_seed : int;
  boot_scale : float;
}

let setup =
  Term.(
    const (fun workload exits prng_seed boot_scale ->
        { workload; exits; prng_seed; boot_scale })
    $ workload $ exits $ prng_seed $ boot_scale)

(* Create the manager, wire [hub] into it and record [s]'s workload. *)
let record ~hub ~full_boot s =
  let mgr =
    Manager.create ~boot_scale:s.boot_scale ~prng_seed:s.prng_seed ()
  in
  Manager.set_hub mgr hub;
  Printf.printf "recording %d exits of %s (seed %d)...\n%!" s.exits
    (W.name s.workload) s.prng_seed;
  ( mgr,
    Manager.record ~record_full_boot:full_boot mgr s.workload ~exits:s.exits )

let no_seed reason =
  Printf.printf "the trace has no seed with exit reason %s\n"
    (R.short_name reason)

(* Every plain campaign runs through the orchestrator, at any jobs
   count.  Its workers attach their probe only after S_R, so the
   counters merged into [hub] are the same at every jobs count.  The
   worker table depends on which domain claimed which case, so it goes
   to stderr. *)
let campaign ~hub ~jobs ~config ~recording ~reason ~area =
  Option.map
    (fun o ->
      prerr_string (Orch.render_workers o.Orch.fuzz_report);
      Option.iter
        (fun into -> T.Hub.merge_into ~into o.Orch.fuzz_report.Orch.r_hub)
        hub;
      o.Orch.fuzz_result)
    (Orch.fuzz ~jobs ~config ~recording ~reason ~area ())

(* --- telemetry options --- *)

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event file of the run (spans per VM exit \
           and phase; load it in Perfetto or about://tracing).  For fuzz \
           and bisect it holds the recording's track only.")

let metrics_flag =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Print the telemetry metrics summary when the command finishes.")

type telemetry = { trace_out : string option; metrics : bool }

let telemetry =
  Term.(
    const (fun trace_out metrics -> { trace_out; metrics })
    $ trace_out $ metrics_flag)

(* Telemetry is opt-in: without either flag no hub exists and the
   hypervisor hot path keeps its single [None] check. *)
let telemetry_hub t =
  if t.trace_out = None && not t.metrics then None else Some (T.Hub.create ())

(* The run's report, printed one way by every command that takes
   --trace-out or --metrics.  Stdout carries only what the run
   computed, so it is the same under any heap setting and any
   scheduling of worker domains; the host GC counters describe this
   process, not the run, and go to stderr. *)
let report t hub =
  match hub with
  | None -> ()
  | Some hub ->
      let g = Gc.quick_stat () in
      Printf.eprintf
        "host gc: minor_words %.0f promoted_words %.0f major_words %.0f \
         minor_collections %d major_collections %d\n%!"
        g.Gc.minor_words g.Gc.promoted_words g.Gc.major_words
        g.Gc.minor_collections g.Gc.major_collections;
      if t.metrics then print_string (T.Hub.summary ~title:"telemetry" hub);
      Option.iter
        (fun path ->
          T.Export.write_file ~path (T.Hub.chrome_trace_string hub);
          Printf.printf "chrome trace written to %s (load in Perfetto)\n" path)
        t.trace_out

(* What [record --metrics] prints before the summary: the ten most
   frequent exit reasons with their handler cycles, exact per-exit
   handler percentiles from the trace (Fig. 10's per-exit view), and
   the registry's log2-histogram estimate of the same distribution,
   which is what a live campaign exports. *)
let print_exit_profile (recording : Manager.recording) hub =
  let trace = recording.Manager.trace in
  let snap = T.Hub.snapshot hub in
  (* ["hv.exits{CPUID}"] becomes [("CPUID", count)]. *)
  let vec_members prefix =
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
  let by_count =
    List.sort (fun (_, a) (_, b) -> compare b a) (vec_members "hv.exits")
  in
  let cycles = vec_members "hv.exit_cycles" in
  Printf.printf "\ntop exit reasons (%d recorded, %d during boot):\n"
    (Trace.length trace) recording.Manager.boot_exits;
  Printf.printf "  %-16s %10s %16s\n" "reason" "exits" "handler cycles";
  List.iteri
    (fun i (label, n) ->
      if i < 10 then
        let cyc = Option.value ~default:0L (List.assoc_opt label cycles) in
        Printf.printf "  %-16s %10Ld %16Ld\n" label n cyc)
    by_count;
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
  let h = T.Registry.histogram hub.T.Hub.registry "hv.handler_cycles" in
  if T.Registry.hist_count h > 0L then
    Printf.printf "log2-histogram estimate:  p50 %.0f   p99 %.0f   (n=%Ld)\n"
      (T.Registry.hist_quantile h 0.5)
      (T.Registry.hist_quantile h 0.99)
      (T.Registry.hist_count h);
  print_newline ()

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
  let run s out full_boot tel =
    let hub = telemetry_hub tel in
    let _, recording = record ~hub ~full_boot s in
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
    (match hub with
    | Some hub when tel.metrics -> print_exit_profile recording hub
    | _ -> ());
    report tel hub
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:
         "Record a VM behavior as a trace of VM seeds; with --metrics, also \
          print its exit profile (per-reason counts and handler cycles, \
          handler-cycle percentiles) and the metrics table.")
    Term.(const run $ setup $ out $ full_boot $ telemetry)

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
  let run s fresh tel =
    let hub = telemetry_hub tel in
    let mgr, recording = record ~hub ~full_boot:false s in
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
    report tel hub
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Record a behavior and replay it through a dummy VM.")
    Term.(const run $ setup $ fresh $ telemetry)

(* --- fuzz --- *)

let fuzz_cmd =
  let reason =
    reason
      ~doc:
        "Exit reason of the target seed: a name (e.g. RDTSC, CPUID, \
         'CR ACC.') or its decimal code (16 = RDTSC)."
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
    jobs
      ~doc:
        "Shard the campaign's test cases across N worker domains (1..127), \
         each with an isolated dummy VM; results are merged in case-index \
         order, so the report is byte-identical for any N."
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
  let print_guided g =
    Printf.printf
      "VMseed_R = #%d   baseline %d LOC -> %d LOC, corpus %d entries\n"
      g.Iris_fuzzer.Guided.seed_index g.Iris_fuzzer.Guided.baseline_lines
      g.Iris_fuzzer.Guided.unique_lines g.Iris_fuzzer.Guided.corpus_size;
    Printf.printf "failures: %d VM crashes, %d hypervisor crashes\n"
      g.Iris_fuzzer.Guided.vm_crashes g.Iris_fuzzer.Guided.hv_crashes;
    List.iteri
      (fun i (_, cls, detail) ->
        if i < 10 then
          Printf.printf "  [%s] %s\n" (Iris_fuzzer.Campaign.failure_name cls)
            detail)
      g.Iris_fuzzer.Guided.crashing
  in
  let run s reason area mutations guided jobs tel =
    let hub = telemetry_hub tel in
    let mgr, recording = record ~hub ~full_boot:false s in
    let prng_seed = s.prng_seed in
    (* Stdout must not depend on --jobs, so the jobs count and the
       guided loop's note about it go to stderr. *)
    Printf.printf "fuzzing: reason=%s area=%s N=%d%s...\n%!"
      (R.short_name reason)
      (Iris_fuzzer.Mutation.area_name area)
      mutations
      (if guided then " (coverage-guided)" else "");
    if jobs > 1 then
      prerr_endline
        (if guided then
           "note: the guided loop is inherently sequential (each round \
            mutates the corpus previous rounds grew); ignoring --jobs"
         else Printf.sprintf "jobs=%d" jobs);
    let config = { Iris_fuzzer.Campaign.mutations; prng_seed } in
    let found =
      if guided then
        Option.map print_guided
          (Iris_fuzzer.Guided.run
             ~config:{ Iris_fuzzer.Guided.iterations = mutations; prng_seed }
             ~manager:mgr ~recording ~reason)
      else
        Option.map print_campaign
          (campaign ~hub ~jobs ~config ~recording ~reason ~area)
    in
    if found = None then no_seed reason;
    report tel hub
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Run one PoC fuzzing test case (replay to S_R, mutate, triage).")
    Term.(
      const run $ setup $ reason $ area $ mutations $ guided $ jobs
      $ telemetry)

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
  let run s perturb every field tel =
    let hub = telemetry_hub tel in
    let mgr, recording = record ~hub ~full_boot:false s in
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
      match locate ~thorough:false with
      | Error _ ->
          (* The fast scan stops at the first clean segment; a
             multi-fault trace with healed divergence can fool it. *)
          Printf.printf
            "fast scan disagrees with ground truth; re-running thorough...\n";
          locate ~thorough:true
      | v -> v
    in
    match verdict with
    | Error msg ->
        report tel hub;
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
        report tel hub
  in
  Cmd.v
    (Cmd.info "inspect"
       ~doc:
         "Record, replay and diagnose: find the first divergent exit with \
          checkpoint search instead of linear re-replay, and answer \
          field-provenance queries.")
    Term.(
      const run $ setup $ perturb $ every $ field $ telemetry)

(* --- bisect --- *)

let bisect_cmd =
  let reason = reason ~doc:"Exit reason of the fuzzed seed." in
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
  let run s reason area mutations out tel =
    let hub = telemetry_hub tel in
    let mgr, recording = record ~hub ~full_boot:false s in
    let trace = recording.Manager.trace in
    let config =
      { Iris_fuzzer.Campaign.mutations; prng_seed = s.prng_seed }
    in
    Printf.printf "fuzzing %s/%s for a crashing mutant...\n%!"
      (R.short_name reason)
      (Iris_fuzzer.Mutation.area_name area);
    let result = campaign ~hub ~jobs:1 ~config ~recording ~reason ~area in
    let plan = Iris_fuzzer.Campaign.plan ~config ~trace ~reason ~area in
    (match (result, plan) with
    | None, _ | _, None ->
        no_seed reason;
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
    report tel hub
  in
  Cmd.v
    (Cmd.info "bisect"
       ~doc:
         "Fuzz until a mutant kills the VM, then shrink the crash to the \
          smallest divergent suffix and emit a deterministic reproducer.  \
          Exits 1 when no mutant crashes, when the crash does not \
          reproduce, or when the reproducer is not deterministic.")
    Term.(
      const run $ setup $ reason $ area $ mutations $ out $ telemetry)

(* --- info / port: commands on a saved trace --- *)

let trace_file =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"TRACE" ~doc:"Trace file written by 'record -o'.")

let load_trace path =
  match Trace.load ~path with
  | Ok trace -> trace
  | Error e ->
      Printf.eprintf "cannot load %s: %s\n" path e;
      exit 1

let info_cmd =
  let run path =
    let trace = load_trace path in
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
    Term.(const run $ trace_file)

let port_cmd =
  let run path =
    let trace = load_trace path in
    Printf.printf "%s: %.1f%% of VMREAD records translate to AMD VMCB fields\n"
      path
      (Iris_svm.Port.coverage_pct trace);
    List.iter
      (fun (f, n) ->
        Printf.printf "  VT-x-only: %-28s dropped %d times\n"
          (Iris_vmcs.Field.name f) n)
      (Iris_svm.Port.dropped_fields trace)
  in
  Cmd.v
    (Cmd.info "port"
       ~doc:"Report how much of a recorded trace ports to AMD SVM (§IX).")
    Term.(const run $ trace_file)

(* --- diff --- *)

let diff_cmd =
  let module Diffc = Iris_differential.Diffcampaign in
  let module Machine = Iris_svm.Machine in
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
  let run s plant metrics =
    let tel = { trace_out = None; metrics } in
    let hub = telemetry_hub tel in
    let plants =
      match plant with
      | None -> []
      | Some "all" -> Machine.all_asymmetries
      | Some name -> (
          match Machine.asymmetry_of_name name with
          | Some k -> [ k ]
          | None ->
              Printf.eprintf "unknown asymmetry %S (try: %s, all)\n" name
                (String.concat ", "
                   (List.map Machine.asymmetry_name Machine.all_asymmetries));
              exit 1)
    in
    let _, recording = record ~hub:None ~full_boot:false s in
    match Gate.diff ~recording ~plants with
    | Error msg ->
        Printf.eprintf "differential gate failed: %s\n" msg;
        exit 1
    | Ok facts ->
        List.iter
          (fun (r : Diffc.report) ->
            Option.iter
              (fun hub ->
                Analysis.note_backend_divergence ~hub ~total:r.total
                  ~comparable:r.comparable ~lossy:r.lossy
                  ~findings:(List.length r.findings))
              hub;
            Format.printf "%a@." Diffc.pp_report r)
          (facts.Gate.unperturbed
          :: List.map (fun (_, _, r) -> r) facts.Gate.planted);
        Printf.printf
          "backends agree on every comparable case; %d planted asymmetries \
           detected exactly\n"
          (List.length facts.Gate.planted);
        report tel hub
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Differential fuzzing oracle: replay a recorded trace on both the \
          VT-x and SVM substrates and treat any normalized-verdict \
          disagreement as a finding; with --plant, gate the detector \
          against planted ground truth.")
    Term.(const run $ setup $ plant $ metrics_flag)

(* --- serve / call: the campaign service --- *)

module Svc = Iris_service

let socket_path =
  Arg.(
    value
    & opt string "/tmp/iris-serve.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket the daemon listens on (clients dial it).")

let serve_cmd =
  let jobs =
    jobs
      ~doc:
        "Domain-pool width (1..127): runnable jobs dispatched per \
         scheduling round, each on its own worker domain."
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

let call_cmd =
  let run socket =
    if not (Svc.Wire.relay ~path:socket Stdlib.stdin Stdlib.stdout) then
      exit 1
  in
  Cmd.v
    (Cmd.info "call"
       ~doc:
         "Relay wire-protocol request lines from stdin to a running daemon, \
          one request per line, and print each response line; exits \
          non-zero if any response was not ok or the daemon cannot be \
          reached.  The lines are the ones serve --stdin reads.")
    Term.(const run $ socket_path)

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
            serve_cmd; call_cmd;
            info_cmd; port_cmd ]))
