(* The IRIS evaluation harness: regenerates every table and figure of
   the paper's §VI/§VII on the simulated substrate, plus the DESIGN.md
   ablations and the paper-size behaviour gates.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- fig6    # one experiment
     dune exec bench/main.exe -- list    # available targets

   Absolute numbers come from the model's calibrated cycle costs; the
   claims under test are the *shapes*: who wins, by what rough factor,
   where the divergences cluster. *)

module Manager = Iris_core.Manager
module Trace = Iris_core.Trace
module Seed = Iris_core.Seed
module Replayer = Iris_core.Replayer
module Analysis = Iris_core.Analysis
module Metrics = Iris_core.Metrics
module Diff = Iris_coverage.Diff
module Cov = Iris_coverage.Cov
module Comp = Iris_coverage.Component
module W = Iris_guest.Workload
module R = Iris_vtx.Exit_reason
module Clock = Iris_vtx.Clock
module Stats = Iris_util.Stats
module Plot = Iris_util.Textplot
module Orch = Iris_orchestrator.Orchestrator
module Scenario = Iris_scenario.Scenario
module Gate = Iris_scenario.Gate

(* Key numbers the experiments also push into BENCH_iris.json, so CI
   and notebooks can track them without scraping stdout. *)
module Report = struct
  module J = Iris_telemetry.Json

  let results : (string * J.t) list ref = ref []

  let put key v = results := (key, v) :: !results

  let put_f key v = put key (J.Float v)

  let put_i key v = put key (J.Int v)

  let write ~path ~experiments =
    let j =
      J.Obj
        [ ("schema", J.String "iris-bench-v1");
          ("build", J.Obj [ ("profile", J.String Build.profile) ]);
          ( "experiments",
            J.List
              (List.map
                 (fun (name, wall) ->
                   J.Obj
                     [ ("name", J.String name);
                       ("wall_seconds", J.Float wall) ])
                 experiments) );
          ("results", J.Obj (List.rev !results)) ]
    in
    let oc = open_out path in
    output_string oc (J.to_string j);
    output_char oc '\n';
    close_out oc;
    Printf.printf "\nmachine-readable report written to %s\n" path
end

let report_path = "BENCH_iris.json"

(* A failed gate (DESIGN.md, "Gates") or a missed paper-size threshold
   fails the run. *)
let gate = function Ok facts -> facts | Error msg -> failwith msg

let require ok msg = if not ok then failwith msg

let prng_seed = 2023

let paper_trace_len = 5_000 (* the paper's sample trace length *)

let boot_scale = 0.3 (* unrecorded boot used to reach post-boot states *)

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let mgr () = Manager.create ~boot_scale ~prng_seed ()

(* Record+replay runs are shared across experiments. *)
let run_cache : (W.t, Manager.recording * Manager.replay_run) Hashtbl.t =
  Hashtbl.create 8

let recorded_run workload =
  match Hashtbl.find_opt run_cache workload with
  | Some r -> r
  | None ->
      let m = mgr () in
      let recording = Manager.record m workload ~exits:paper_trace_len in
      let replay = Manager.replay m recording in
      let r = (recording, replay) in
      Hashtbl.replace run_cache workload r;
      r

let target_workloads = [ W.Os_boot; W.Cpu_bound; W.Idle ]

(* ------------------------------------------------------------------ *)
(* Fig. 4: exit-reason distribution over time during the full boot    *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  section "Figure 4: VM exit reasons over time, full OS BOOT (incl. BIOS)";
  let m = mgr () in
  let recording =
    Manager.record ~record_full_boot:true ~store_metrics:false m W.Os_boot
      ~exits:700_000
  in
  let t = recording.Manager.trace in
  let n = Trace.length t in
  Printf.printf
    "full boot recorded: %d VM exits (paper: ~520K), BIOS prefix ~%d exits\n"
    n Iris_guest.Os_boot.expected_bios_exits;
  (* Bucket the trace into windows and report the top reasons per
     window, which is what Fig. 4's stacked time series shows. *)
  let windows = 10 in
  let per = max 1 (n / windows) in
  let header = [ "window"; "exits"; "top reasons (share)" ] in
  let rows =
    List.init windows (fun w ->
        let pos = w * per in
        let len = min per (n - pos) in
        if len <= 0 then [ string_of_int w; "0"; "-" ]
        else begin
          let slice = Trace.sub t ~pos ~len in
          let mix = Trace.exit_mix slice in
          let total = List.fold_left (fun a (_, c) -> a + c) 0 mix in
          let top =
            List.filteri (fun i _ -> i < 3) mix
            |> List.map (fun (r, c) ->
                   Printf.sprintf "%s %.0f%%" (R.short_name r)
                     (100.0 *. float_of_int c /. float_of_int total))
            |> String.concat ", "
          in
          [ Printf.sprintf "%d-%dK" (pos / 1000) ((pos + len) / 1000);
            string_of_int len; top ]
        end)
  in
  print_string (Plot.table ~title:"exit mix per boot phase" ~header rows);
  let series =
    List.map
      (fun reason ->
        let pts =
          List.init windows (fun w ->
              let pos = w * per in
              let len = min per (n - pos) in
              if len <= 0 then (float_of_int w, 0.0)
              else begin
                let slice = Trace.sub t ~pos ~len in
                let c =
                  match List.assoc_opt reason (Trace.exit_mix slice) with
                  | Some c -> c
                  | None -> 0
                in
                (float_of_int w, float_of_int c)
              end)
        in
        (R.short_name reason, pts))
      [ R.Io_instruction; R.Cr_access; R.Rdtsc ]
  in
  print_string
    (Plot.series ~title:"exit counts per window" ~x_label:"window"
       ~y_label:"exits" series)

(* ------------------------------------------------------------------ *)
(* Fig. 5: exit-reason distribution across workloads                  *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  section "Figure 5: VM exit reason distribution across workloads";
  let reasons =
    [ R.Rdtsc; R.Io_instruction; R.Cr_access; R.External_interrupt;
      R.Ept_violation; R.Hlt; R.Cpuid; R.Vmcall; R.Rdmsr; R.Wrmsr ]
  in
  let m = mgr () in
  let rows =
    List.map
      (fun w ->
        let recording =
          if List.mem w target_workloads then fst (recorded_run w)
          else Manager.record m w ~exits:paper_trace_len
        in
        let mix = Trace.exit_mix recording.Manager.trace in
        let count r =
          match List.assoc_opt r mix with
          | Some c -> float_of_int c
          | None -> 0.0
        in
        (W.name w, List.map count reasons))
      W.all
  in
  print_string
    (Plot.stacked_rows
       ~title:"share of VM exits per reason (rows sum to 100%)"
       ~header:(List.map R.short_name reasons)
       rows);
  Printf.printf
    "paper: OS BOOT dominated by I/O + CR accesses; other workloads ~80%% \
     RDTSC;\nIDLE adds HLT exits.\n"

(* ------------------------------------------------------------------ *)
(* Fig. 6: cumulative coverage, record vs replay                      *)
(* ------------------------------------------------------------------ *)

let paper_fitting = [ (W.Os_boot, 99.9); (W.Cpu_bound, 92.1); (W.Idle, 98.9) ]

let fig6 () =
  section "Figure 6: cumulative code coverage, recording vs replaying";
  List.iter
    (fun w ->
      let recording, replay = recorded_run w in
      let acc =
        Analysis.accuracy ~recorded:recording.Manager.trace
          ~replayed:replay.Manager.replay_trace
      in
      let sample curve =
        let n = Array.length curve in
        List.init 25 (fun i ->
            let idx = min (n - 1) (i * n / 25) in
            (float_of_int idx, float_of_int curve.(idx)))
      in
      print_string
        (Plot.series
           ~title:(Printf.sprintf "%s: cumulative unique LOC" (W.name w))
           ~x_label:"VM exits" ~y_label:"unique LOC"
           [ ("recording", sample acc.Analysis.record_curve);
             ("replaying", sample acc.Analysis.replay_curve) ]);
      Printf.printf "%-10s fitting: %.1f%%  (paper: %.1f%%)\n" (W.name w)
        acc.Analysis.fitting_pct
        (List.assoc w paper_fitting);
      let last curve =
        let n = Array.length curve in
        if n = 0 then 0 else curve.(n - 1)
      in
      let k = "fig6." ^ W.name w in
      Report.put_f (k ^ ".fitting_pct") acc.Analysis.fitting_pct;
      Report.put_i (k ^ ".record_lines") (last acc.Analysis.record_curve);
      Report.put_i (k ^ ".replay_lines") (last acc.Analysis.replay_curve))
    target_workloads

(* ------------------------------------------------------------------ *)
(* Fig. 7: coverage differences clustered by exit reason/component    *)
(* ------------------------------------------------------------------ *)

let fig7 () =
  section "Figure 7: record/replay coverage differences";
  List.iter
    (fun w ->
      let recording, replay = recorded_run w in
      let rt = recording.Manager.trace and pt = replay.Manager.replay_trace in
      let n =
        min (Array.length rt.Trace.metrics) (Array.length pt.Trace.metrics)
      in
      let by_reason = Hashtbl.create 16 in
      let diffs = ref [] in
      for i = 0 to n - 1 do
        let d =
          Diff.diff
            ~recorded:rt.Trace.metrics.(i).Metrics.coverage
            ~replayed:pt.Trace.metrics.(i).Metrics.coverage
        in
        diffs := d :: !diffs;
        let sz = Diff.total_lines d in
        if sz > 0 then begin
          let r = rt.Trace.seeds.(i).Seed.reason in
          let cur =
            match Hashtbl.find_opt by_reason r with Some x -> x | None -> 0
          in
          Hashtbl.replace by_reason r (max cur sz)
        end
      done;
      let s = Diff.summarise !diffs in
      Printf.printf
        "\n%s: %d exact, %d noise (<=30 LOC), %d divergent (>30)\n" (W.name w)
        s.Diff.exact s.Diff.noise s.Diff.divergent;
      Printf.printf "  divergent-seed frequency: %.2f%%  (paper: %s)\n"
        (100.0 *. float_of_int s.Diff.divergent /. float_of_int (max 1 n))
        (match w with
        | W.Os_boot -> "0.36%"
        | W.Cpu_bound -> "0.18%"
        | W.Idle -> "1.16%"
        | _ -> "-");
      let cluster name comps =
        if comps <> [] then begin
          Printf.printf "  %s cluster:" name;
          List.iter
            (fun (c, lines) -> Printf.printf " %s(%d)" (Comp.name c) lines)
            comps;
          print_newline ()
        end
      in
      cluster "noise" s.Diff.noise_components;
      cluster "divergent" s.Diff.divergent_components;
      let rows =
        Hashtbl.fold
          (fun r mx acc -> (R.short_name r, float_of_int mx) :: acc)
          by_reason []
        |> List.sort (fun (_, a) (_, b) -> compare b a)
      in
      if rows <> [] then
        print_string
          (Plot.bar_chart
             ~title:"  max per-seed coverage difference by exit reason (LOC)"
             rows))
    target_workloads;
  Printf.printf
    "\npaper: <=30 LOC noise in vlapic.c/irq.c/vpt.c; >30 LOC divergence in\n\
     emulate.c/intr.c/vmx.c for memory-linked seeds.\n"

(* ------------------------------------------------------------------ *)
(* Fig. 8: CR0 operating modes across exits + VMWRITE accuracy        *)
(* ------------------------------------------------------------------ *)

let fig8 () =
  section "Figure 8: operating modes and vCPU states across OS BOOT";
  let recording, replay = recorded_run W.Os_boot in
  let modes = Analysis.mode_trace recording.Manager.trace in
  let replayed_modes = Analysis.mode_trace replay.Manager.replay_trace in
  print_string
    (Plot.series ~title:"CR0-derived operating mode at each CR0 write"
       ~x_label:"VM exit index" ~y_label:"mode"
       [ ( "recorded",
           Array.to_list modes
           |> List.map (fun (i, m) ->
                  (float_of_int i, float_of_int (Iris_x86.Cpu_mode.to_int m)))
         );
         ( "replayed",
           Array.to_list replayed_modes
           |> List.map (fun (i, m) ->
                  (float_of_int i, float_of_int (Iris_x86.Cpu_mode.to_int m)))
         ) ]);
  let matches =
    Array.length modes = Array.length replayed_modes
    && Array.for_all2 (fun (_, a) (_, b) -> a = b) modes replayed_modes
  in
  let acc =
    Analysis.accuracy ~recorded:recording.Manager.trace
      ~replayed:replay.Manager.replay_trace
  in
  Printf.printf "CR0 mode sequence identical under replay: %b\n" matches;
  Printf.printf
    "guest-state VMWRITE fitting: %.1f%%  (paper: 100%% on OS BOOT)\n"
    acc.Analysis.vmwrite_fit_pct

(* ------------------------------------------------------------------ *)
(* Fig. 9: seed-submission time, real VM vs IRIS replay               *)
(* ------------------------------------------------------------------ *)

let fig9_paper =
  [ (W.Os_boot, (0.47, 0.27, 42.5)); (W.Cpu_bound, (1.44, 0.21, 85.4));
    (W.Idle, (62.61, 0.22, 99.6)) ]

let fig9 () =
  section "Figure 9: time to submit 5000 VM seeds, real VM vs IRIS replay";
  let runs = 15 in
  let header =
    [ "workload"; "real VM (s)"; "IRIS VM (s)"; "decrease"; "speedup";
      "paper (real/IRIS/decr)"; "p-value" ]
  in
  let rows =
    List.map
      (fun w ->
        (* 15 repetitions with distinct seeds, as the paper repeats
           for significance. *)
        let reals = Array.make runs 0.0 and replays = Array.make runs 0.0 in
        for i = 0 to runs - 1 do
          let m = Manager.create ~boot_scale ~prng_seed:(prng_seed + i) () in
          let recording = Manager.record m w ~exits:paper_trace_len in
          let replay = Manager.replay m recording in
          let eff =
            Analysis.efficiency ~recorded:recording.Manager.trace
              ~replay_cycles:replay.Manager.replay_cycles
              ~submitted:replay.Manager.submitted
          in
          reals.(i) <- eff.Analysis.real_seconds;
          replays.(i) <- eff.Analysis.replay_seconds
        done;
        let real = Stats.mean reals and rep = Stats.mean replays in
        let p = Stats.sign_test_p reals replays in
        let k = "fig9." ^ W.name w in
        Report.put_f (k ^ ".real_seconds") real;
        Report.put_f (k ^ ".replay_seconds") rep;
        Report.put_f (k ^ ".decrease_pct") (100.0 *. (real -. rep) /. real);
        Report.put_f (k ^ ".sign_test_p") p;
        let pr, pi, pd = List.assoc w fig9_paper in
        [ W.name w;
          Printf.sprintf "%.2f" real;
          Printf.sprintf "%.2f" rep;
          Printf.sprintf "-%.1f%%" (100.0 *. (real -. rep) /. real);
          Printf.sprintf "%.1fx" (real /. rep);
          Printf.sprintf "%.2f/%.2f/-%.1f%%" pr pi pd;
          Printf.sprintf "%.4f" p ])
      target_workloads
  in
  print_string (Plot.table ~title:"seed submission time (mean of 15 runs)"
                  ~header rows);
  Printf.printf
    "paper speedups: 6.8x (CPU-bound), 294x (IDLE); significance p < 0.05\n"

(* ------------------------------------------------------------------ *)
(* §VI-C: replay throughput vs the ideal preemption-timer loop        *)
(* ------------------------------------------------------------------ *)

(* The ideal loop's step, shared by [throughput] (virtual cycles) and
   [hotpath] (host time, minor words): one preemption-timer exit of a
   dummy VM that is submitted nothing — engine exit, full exit-path
   dispatch, re-entry. *)
let no_fetch () = None

let timer_exit ctx =
  (match
     Iris_vtx.Engine.run_until_exit
       ctx.Iris_hv.Ctx.dom.Iris_hv.Domain.engine ~fetch:no_fetch
   with
  | Iris_vtx.Engine.Exit _ -> ()
  | Iris_vtx.Engine.Program_done -> failwith "timer not armed");
  Iris_hv.Exitpath.handle ctx;
  match Iris_hv.Xen.enter ctx with
  | Ok () -> ()
  | Error msg -> failwith msg

let throughput () =
  section "Replay throughput vs ideal (paper §VI-C)";
  let m = mgr () in
  let replayer = Manager.make_dummy m () in
  let ctx = Replayer.ctx replayer in
  let clock = Iris_hv.Ctx.clock ctx in
  let start = Clock.now clock in
  let exits = 5000 in
  for _ = 1 to exits do timer_exit ctx done;
  let ideal_s = Clock.cycles_to_seconds (Int64.sub (Clock.now clock) start) in
  let ideal_tp = float_of_int exits /. ideal_s in
  Printf.printf
    "ideal loop: %d preemption-timer exits in %.3f s -> %.0f exits/s\n\
     (paper: 5000 exits in ~0.1 s / ~350M cycles, ~50K exits/s)\n\n"
    exits ideal_s ideal_tp;
  Report.put_f "throughput.ideal_exits_per_sec" ideal_tp;
  List.iter
    (fun w ->
      let recording, replay = recorded_run w in
      let eff =
        Analysis.efficiency ~recorded:recording.Manager.trace
          ~replay_cycles:replay.Manager.replay_cycles
          ~submitted:replay.Manager.submitted
      in
      let tp = eff.Analysis.replay_exits_per_sec in
      Report.put_f ("throughput." ^ W.name w ^ ".exits_per_sec") tp;
      Printf.printf
        "%-10s replay throughput: %6.0f exits/s (%.0f%% below ideal; paper: \
         %s)\n"
        (W.name w) tp
        (100.0 *. (ideal_tp -. tp) /. ideal_tp)
        (match w with
        | W.Os_boot -> "18518/s, 63% below"
        | W.Cpu_bound -> "23809/s, 52% below"
        | W.Idle -> "22727/s, 55% below"
        | _ -> "-"))
    target_workloads

(* ------------------------------------------------------------------ *)
(* Hotpath: allocation discipline of the exit-to-verdict inner loop   *)
(* ------------------------------------------------------------------ *)

(* The ideal-loop throughput recorded in BENCH_iris.json before the
   allocation-free hot path landed.  [throughput.ideal_exits_per_sec]
   itself is modeled from virtual cycles (allocation discipline cannot
   move it), so the hotpath gate compares *host-measured* exits/sec
   against this virtual-clock figure: the claim is that the software
   loop is now cheap enough to clear the modeled hardware rate with
   headroom. *)
let pre_pr_ideal_exits_per_sec = 55346.298716273348

(* Hard budget on minor-heap allocation per exit, in words.  The
   kAFL/Nyx lesson is that per-execution overhead is what decides
   fuzzing throughput; this gate keeps the coverage store, scratch
   event, telemetry, dispatch and entry checks from regressing back
   into allocate-per-exit patterns.  The loop measures 84 words/exit in
   both build profiles: the entry checks and [Bits.test] allocate
   nothing, and an unchanged segment saves without boxing.  What
   remains is mostly the exit handler's and Int64 boxing on the exit
   and entry transitions.  The budget is that plateau plus 10%. *)
let minor_words_per_exit_budget = 92.0

let hotpath () =
  section "Hotpath: allocation-free exit loop (host exits/s, words/exit)";
  (* [throughput]'s ideal loop, measured in host time and minor-heap
     words instead of virtual cycles. *)
  let m = mgr () in
  let replayer = Manager.make_dummy m () in
  let ctx = Replayer.ctx replayer in
  (* Warm-up: fault in the lazy structures (coverage store growth,
     handler tables) so the measured window sees steady state. *)
  for _ = 1 to 2_000 do timer_exit ctx done;
  let exits = 50_000 in
  let t0 = Scenario.wall_now () in
  let w0 = Gc.minor_words () in
  for _ = 1 to exits do timer_exit ctx done;
  let words_per_exit = (Gc.minor_words () -. w0) /. float_of_int exits in
  let host_s = Scenario.wall_now () -. t0 in
  let host_tp = float_of_int exits /. host_s in
  Printf.printf
    "hot loop (%s build): %d exits in %.3f s host time -> %.0f exits/s, \
     %.1f minor words/exit\n"
    Build.profile exits host_s host_tp words_per_exit;
  Report.put_f "hotpath.host_exits_per_sec" host_tp;
  Report.put_f "hotpath.minor_words_per_exit" words_per_exit;
  Report.put_f "hotpath.speedup_vs_prepr_ideal"
    (host_tp /. pre_pr_ideal_exits_per_sec);
  require
    (host_tp >= 2.0 *. pre_pr_ideal_exits_per_sec)
    (Printf.sprintf "hotpath: %.0f host exits/s < 2x pre-PR ideal %.0f"
       host_tp pre_pr_ideal_exits_per_sec);
  require
    (words_per_exit <= minor_words_per_exit_budget)
    (Printf.sprintf
       "hotpath: %.1f minor words/exit exceeds the %.0f-word budget"
       words_per_exit minor_words_per_exit_budget);
  (* The fast paths must be invisible to every observable: record ->
     trace digest is stable run to run.  (The sharded campaign's jobs
     identity under the same fast paths is [scaling]'s gate.) *)
  let d =
    gate
      (Gate.trace_digest (fun () ->
           Manager.record (mgr ()) W.Cpu_bound ~exits:1_200))
  in
  Printf.printf "trace digest stable across records: %s\n" d

(* ------------------------------------------------------------------ *)
(* Fig. 10: recording overhead per VM exit                            *)
(* ------------------------------------------------------------------ *)

let fig10 () =
  section "Figure 10: temporal overhead of IRIS recording, per VM exit";
  let runs = 10 in
  (* Drive the same deterministic workload with the recorder on and
     off, measuring per-exit handler service time through a
     metrics-only probe whose callbacks are free (the uninstrumented
     baseline) vs the full recorder. *)
  let handler_times w ~callback_cycles i =
    let cov = Iris_coverage.Cov.create () in
    let hooks = Iris_hv.Hooks.create () in
    hooks.Iris_hv.Hooks.callback_cycles <- callback_cycles;
    let ctx = Iris_hv.Xen.construct ~cov ~hooks ~name:"fig10" () in
    (* Reach the post-boot state first for post-boot workloads. *)
    if W.needs_boot w then begin
      let res =
        Iris_hv.Xen.run ctx
          ~fetch:
            (Iris_guest.Os_boot.program ~scale:0.05 ~seed:(prng_seed + i) ())
      in
      match res.Iris_hv.Xen.stop with
      | Iris_hv.Xen.Completed -> ()
      | _ -> failwith "boot failed"
    end;
    let recorder = Iris_core.Recorder.start ctx in
    let res =
      Iris_hv.Xen.run ctx
        ~fetch:(W.post_bios_program w ~seed:(prng_seed + i))
        ~max_exits:1500
    in
    ignore res;
    let trace =
      Iris_core.Recorder.stop recorder ~workload:(W.name w)
        ~prng_seed:(prng_seed + i)
    in
    Analysis.handler_times_us trace
  in
  List.iter
    (fun w ->
      let on = ref [] and off = ref [] in
      for i = 0 to runs - 1 do
        on :=
          Array.to_list
            (handler_times w
               ~callback_cycles:Iris_hv.Hooks.default_callback_cycles i)
          @ !on;
        off := Array.to_list (handler_times w ~callback_cycles:0 i) @ !off
      done;
      let a = Array.of_list !on and b = Array.of_list !off in
      let med_on = Stats.median a and med_off = Stats.median b in
      let k = "fig10." ^ W.name w in
      Report.put_f (k ^ ".median_us_recording") med_on;
      Report.put_f (k ^ ".median_us_bare") med_off;
      Report.put_f (k ^ ".overhead_pct")
        (100.0 *. (med_on -. med_off) /. med_off);
      Printf.printf
        "%-10s median per-exit handler time: %.3f us (recording) vs %.3f us \
         (bare): +%.2f%%\n"
        (W.name w) med_on med_off
        (100.0 *. (med_on -. med_off) /. med_off);
      print_string
        (Plot.boxplots ~title:"  per-exit handler time (us)"
           [ ("record on", Stats.boxplot a); ("record off", Stats.boxplot b) ]))
    target_workloads;
  Printf.printf "paper: +1.02%%..+1.25%% per exit\n"

(* ------------------------------------------------------------------ *)
(* §VI-D: memory overhead of VM seeds                                 *)
(* ------------------------------------------------------------------ *)

let seedsize () =
  section "VM seed memory overhead (paper §VI-D)";
  let header =
    [ "workload"; "max rw records"; "max seed bytes"; "avg seed bytes";
      "prealloc" ]
  in
  let rows =
    List.map
      (fun w ->
        let recording, _ = recorded_run w in
        let t = recording.Manager.trace in
        let max_bytes =
          Array.fold_left
            (fun a s -> max a (Seed.size_bytes s))
            0 t.Trace.seeds
        in
        [ W.name w;
          string_of_int (Trace.max_rw_records t);
          string_of_int max_bytes;
          string_of_int (Trace.total_seed_bytes t / Trace.length t);
          string_of_int Seed.preallocated_bytes ])
      target_workloads
  in
  print_string (Plot.table ~title:"seed sizes" ~header rows);
  Printf.printf
    "paper: worst case 32 VMREAD/VMWRITE records, 470-byte seeds, 470 B \
     pre-allocated per exit\n"

(* ------------------------------------------------------------------ *)
(* §VI-B boot-state experiment                                        *)
(* ------------------------------------------------------------------ *)

let bootstate () =
  section "Boot-state replay experiment (paper §VI-B)";
  let m = mgr () in
  List.iter
    (fun w ->
      let recording, _ = recorded_run w in
      let fresh = Manager.replay_from_fresh m recording.Manager.trace in
      let boot = Manager.replay m recording in
      Printf.printf "%-10s no-boot state: %-48s boot state: %s\n" (W.name w)
        (match fresh.Manager.outcome with
        | Replayer.Vm_crashed msg ->
            Printf.sprintf "CRASH after %d seeds (%s)" fresh.Manager.submitted
              msg
        | Replayer.Replayed -> "completed (unexpected)")
        (match boot.Manager.outcome with
        | Replayer.Replayed -> "completes"
        | Replayer.Vm_crashed m -> "crashes: " ^ m))
    [ W.Cpu_bound; W.Idle ];
  Printf.printf
    "paper: without boot, the dummy VM crashes (Xen log: bad RIP for mode \
     0);\nafter replaying the recorded OS BOOT seeds, both workloads \
     complete.\n"

(* ------------------------------------------------------------------ *)
(* Table I: the IRIS-based fuzzer prototype                           *)
(* ------------------------------------------------------------------ *)

let table1 ?(mutations = 10_000) () =
  section
    (Printf.sprintf
       "Table I: new coverage from the PoC fuzzer (N=%d mutations/test)"
       mutations);
  let m = mgr () in
  let recordings =
    List.map (fun w -> (w, fst (recorded_run w))) Iris_fuzzer.Table1.workloads
  in
  let rows = Iris_fuzzer.Table1.run ~mutations ~manager:m ~recordings () in
  let header =
    "Exit Reason"
    :: List.concat_map
         (fun w -> [ W.name w ^ " VMCS"; W.name w ^ " GPR" ])
         Iris_fuzzer.Table1.workloads
  in
  let body =
    List.map
      (fun row ->
        R.short_name row.Iris_fuzzer.Table1.reason
        :: List.map
             (fun (_, _, cell) ->
               match cell with
               | Iris_fuzzer.Table1.Absent -> "-"
               | Iris_fuzzer.Table1.Cell r ->
                   Iris_fuzzer.Campaign.pct_string r)
             row.Iris_fuzzer.Table1.cells)
      rows
  in
  print_string
    (Plot.table ~title:"coverage increase over single-seed baseline" ~header
       body);
  let stats = Iris_fuzzer.Table1.crash_stats rows in
  Report.put_f "table1.vmcs_vm_crash_pct"
    stats.Iris_fuzzer.Table1.vmcs_vm_crash_pct;
  Report.put_f "table1.vmcs_hv_crash_pct"
    stats.Iris_fuzzer.Table1.vmcs_hv_crash_pct;
  Report.put_f "table1.gpr_vm_crash_pct"
    stats.Iris_fuzzer.Table1.gpr_vm_crash_pct;
  Report.put_f "table1.gpr_hv_crash_pct"
    stats.Iris_fuzzer.Table1.gpr_hv_crash_pct;
  Printf.printf
    "\nfailures while mutating the VMCS area: %.1f%% VM crashes, %.1f%% \
     hypervisor crashes\n  (paper: ~1%% VM, ~15%% hypervisor)\n"
    stats.Iris_fuzzer.Table1.vmcs_vm_crash_pct
    stats.Iris_fuzzer.Table1.vmcs_hv_crash_pct;
  Printf.printf
    "failures while mutating the GPR area:  %.1f%% VM crashes, %.1f%% \
     hypervisor crashes\n  (paper: only a small number of VM crashes, on CR \
     ACCESS seeds)\n"
    stats.Iris_fuzzer.Table1.gpr_vm_crash_pct
    stats.Iris_fuzzer.Table1.gpr_hv_crash_pct;
  let gpr_crashers =
    List.filter_map
      (fun row ->
        let crashes =
          List.fold_left
            (fun acc (_, area, cell) ->
              match cell with
              | Iris_fuzzer.Table1.Cell r
                when area = Iris_fuzzer.Mutation.Area_gpr ->
                  acc + r.Iris_fuzzer.Campaign.vm_crashes
                  + r.Iris_fuzzer.Campaign.hv_crashes
              | _ -> acc)
            0 row.Iris_fuzzer.Table1.cells
        in
        if crashes > 0 then
          Some
            (Printf.sprintf "%s(%d)"
               (R.short_name row.Iris_fuzzer.Table1.reason)
               crashes)
        else None)
      rows
  in
  Printf.printf "GPR-area crashes by reason: %s\n"
    (if gpr_crashers = [] then "none" else String.concat " " gpr_crashers)

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md §4)                                           *)
(* ------------------------------------------------------------------ *)

let accuracy_of (recording : Manager.recording) (replay : Manager.replay_run)
    =
  Analysis.accuracy ~recorded:recording.Manager.trace
    ~replayed:replay.Manager.replay_trace

let ablation_mem () =
  section "Ablation: record/replay with a guest-memory oracle";
  let m = mgr () in
  List.iter
    (fun w ->
      let recording, replay = recorded_run w in
      let base = accuracy_of recording replay in
      let oracle = Manager.replay ~keep_memory:true m recording in
      let acc = accuracy_of recording oracle in
      Printf.printf
        "%-10s divergent seeds: %.2f%% (no memory, the paper's design) -> \
         %.2f%% (memory oracle); fitting %.1f%% -> %.1f%%\n"
        (W.name w) base.Analysis.divergent_pct acc.Analysis.divergent_pct
        base.Analysis.fitting_pct acc.Analysis.fitting_pct)
    target_workloads;
  Printf.printf
    "the >30-LOC emulate.c divergences are the cost of not recording guest \
     memory (§IX)\n"

let ablation_entry () =
  section "Ablation: skipping the VM entry between seeds";
  let m = mgr () in
  let recording, _ = recorded_run W.Cpu_bound in
  (* With entry checks (paper): fresh-state replay is rejected. *)
  let fresh = Manager.replay_from_fresh m recording.Manager.trace in
  (* Without: the same invalid submission sails through silently. *)
  let no_checks_replayer = Manager.make_dummy m () in
  Replayer.set_entry_checks no_checks_replayer false;
  let submitted, outcome =
    Replayer.submit_all no_checks_replayer recording.Manager.trace.Trace.seeds
  in
  Printf.printf
    "with VM entry (paper):    invalid no-boot replay rejected after %d \
     seeds (%s)\n"
    fresh.Manager.submitted
    (match fresh.Manager.outcome with
    | Replayer.Vm_crashed m -> m
    | Replayer.Replayed -> "-");
  Printf.printf
    "without VM entry (loop in root mode): %d/%d invalid seeds accepted \
     silently (%s)\n"
    submitted
    (Trace.length recording.Manager.trace)
    (match outcome with
    | Replayer.Replayed -> "no rejection at all"
    | Replayer.Vm_crashed m -> m);
  Printf.printf
    "the entry checks guarantee semantically-correct seed submission \
     (§IV-B)\n"

let ablation_shim () =
  section "Ablation: read-only VMREAD shimming disabled";
  let m = mgr () in
  List.iter
    (fun w ->
      let recording, replay = recorded_run w in
      let base = accuracy_of recording replay in
      let no_shim =
        Manager.replay
          ~configure:(fun r -> Replayer.set_shim_enabled r false)
          m recording
      in
      let acc = accuracy_of recording no_shim in
      Printf.printf
        "%-10s coverage fitting: %.1f%% (shim on) -> %.1f%% (shim off)\n"
        (W.name w) base.Analysis.fitting_pct acc.Analysis.fitting_pct)
    target_workloads;
  Printf.printf
    "without the shim every replayed exit reads the dummy's own exit \
     information\n(a preemption-timer exit), so recorded behaviors cannot \
     be reproduced (§IV-B)\n"

let ablation_timer () =
  section "Ablation: preemption-timer trigger vs a HLT-based dummy loop";
  let m = mgr () in
  let recording, replay = recorded_run W.Cpu_bound in
  let eff_timer =
    Analysis.efficiency ~recorded:recording.Manager.trace
      ~replay_cycles:replay.Manager.replay_cycles
      ~submitted:replay.Manager.submitted
  in
  let hlt =
    Manager.replay ~configure:(fun r -> Replayer.set_trigger r `Hlt) m
      recording
  in
  let eff_hlt =
    Analysis.efficiency ~recorded:recording.Manager.trace
      ~replay_cycles:hlt.Manager.replay_cycles
      ~submitted:hlt.Manager.submitted
  in
  Printf.printf
    "preemption timer: %.0f exits/s\nHLT-based loop:   %.0f exits/s (%.1f%% \
     slower)\n"
    eff_timer.Analysis.replay_exits_per_sec
    eff_hlt.Analysis.replay_exits_per_sec
    (100.0
    *. (eff_timer.Analysis.replay_exits_per_sec
       -. eff_hlt.Analysis.replay_exits_per_sec)
    /. eff_timer.Analysis.replay_exits_per_sec)

(* ------------------------------------------------------------------ *)
(* §IX extensions: batched submission and coverage-guided fuzzing     *)
(* ------------------------------------------------------------------ *)

let portability () =
  section "Extension: porting recorded traces to AMD SVM (paper §IX)";
  List.iter
    (fun w ->
      let recording, _ = recorded_run w in
      let trace = recording.Manager.trace in
      let pct = Iris_svm.Port.coverage_pct trace in
      let exitless =
        Array.fold_left
          (fun n s ->
            if (Iris_svm.Port.translate s).Iris_svm.Port.exitcode = None then
              n + 1
            else n)
          0 trace.Trace.seeds
      in
      Printf.printf
        "%-10s %.1f%% of VMREAD records map to VMCB fields; %d/%d seeds \
         without an SVM exit code\n"
        (W.name w) pct exitless (Trace.length trace);
      let rows =
        Iris_svm.Port.dropped_fields trace
        |> List.filteri (fun i _ -> i < 5)
        |> List.map (fun (f, n) -> (Iris_vmcs.Field.name f, float_of_int n))
      in
      if rows <> [] then
        print_string
          (Plot.bar_chart ~title:"  most-dropped VT-x-only fields" rows))
    target_workloads;
  Printf.printf
    "RAX relocates into the VMCB save area (14 hypervisor-saved GPRs on \
     SVM);\nexit information becomes plain writable memory — an SVM \
     replayer needs no VMREAD shim.\nThe VMX-preemption timer (the replay \
     trigger) has no VMCB counterpart and must be\nre-engineered per \
     vendor, as §IX anticipates.\n"

let ablation_coverage () =
  section "Ablation: gcov instrumentation vs a processor-trace backend (§IX)";
  let run backend =
    let cov = Iris_coverage.Cov.create () in
    let hooks = Iris_hv.Hooks.create () in
    let ctx = Iris_hv.Xen.construct ~cov ~hooks ~name:"covbench" () in
    ctx.Iris_hv.Ctx.backend <- backend;
    (match
       Iris_hv.Xen.run ctx
         ~fetch:(Iris_guest.Os_boot.program ~scale:0.05 ~seed:prng_seed ())
     with
    | { Iris_hv.Xen.stop = Iris_hv.Xen.Completed; _ } -> ()
    | _ -> failwith "boot failed");
    (* Tracing (re)starts with the recording window, like enabling PT
       when the record mode begins. *)
    (match backend with
    | Iris_hv.Ctx.Ipt trace -> Iris_coverage.Ipt.clear trace
    | Iris_hv.Ctx.Gcov -> ());
    let before = Cov.covered cov in
    let recorder = Iris_core.Recorder.start ctx in
    ignore
      (Iris_hv.Xen.run ctx
         ~fetch:(W.post_bios_program W.Cpu_bound ~seed:prng_seed)
         ~max_exits:2000);
    let trace =
      Iris_core.Recorder.stop recorder ~workload:"covbench" ~prng_seed
    in
    (ctx, trace, before)
  in
  let _, gcov_trace, _ = run Iris_hv.Ctx.Gcov in
  let ipt = Iris_coverage.Ipt.create () in
  let ipt_ctx, ipt_trace, before = run (Iris_hv.Ctx.Ipt ipt) in
  let med t = Stats.median (Analysis.handler_times_us t) in
  let g = med gcov_trace and p = med ipt_trace in
  Printf.printf
    "median per-exit handler time: %.3f us (gcov build) vs %.3f us (PT \
     build): PT is %.1f%% cheaper\n"
    g p
    (100.0 *. (g -. p) /. g);
  (* The decoded packet stream reconstructs the recording window's
     coverage: everything newly discovered is in it, and it never
     invents lines the ground truth lacks. *)
  let decoded = Iris_coverage.Ipt.decode ipt in
  let after = Cov.covered ipt_ctx.Iris_hv.Ctx.cov in
  let fresh = Cov.Pset.diff after before in
  Printf.printf
    "PT packets buffered: %d (overflow: %b); decoded %d lines; covers all \
     %d new lines: %b; within ground truth: %b\n"
    (Iris_coverage.Ipt.packets ipt)
    (Iris_coverage.Ipt.overflowed ipt)
    (Cov.Pset.cardinal decoded)
    (Cov.Pset.cardinal fresh)
    (Cov.Pset.subset fresh decoded)
    (Cov.Pset.subset decoded after);
  Printf.printf
    "paper §IX: Intel PT records complete control flow with low overhead, \
     without modifying the hypervisor\n"

let batch () =
  section "Extension: batched seed submission (paper §IX, replay efficiency)";
  let m = mgr () in
  List.iter
    (fun w ->
      let recording, _ = recorded_run w in
      let seeds = recording.Manager.trace.Trace.seeds in
      let run submit =
        let replayer =
          Manager.make_dummy m ~revert_to:recording.Manager.snapshot ()
        in
        let ctx = Replayer.ctx replayer in
        let start = Clock.now (Iris_hv.Ctx.clock ctx) in
        let n, _ = submit replayer seeds in
        let dt =
          Clock.cycles_to_seconds
            (Int64.sub (Clock.now (Iris_hv.Ctx.clock ctx)) start)
        in
        float_of_int n /. dt
      in
      let one_by_one = run Replayer.submit_all in
      let batched = run Replayer.submit_batch in
      let k = "batch." ^ W.name w in
      Report.put_f (k ^ ".one_by_one_exits_per_sec") one_by_one;
      Report.put_f (k ^ ".batched_exits_per_sec") batched;
      Printf.printf
        "%-10s one-by-one: %6.0f exits/s   batched: %6.0f exits/s \
         (+%.0f%%, ideal %.0f)\n"
        (W.name w) one_by_one batched
        (100.0 *. (batched -. one_by_one) /. one_by_one)
        Analysis.ideal_throughput_exits_per_sec)
    target_workloads;
  Printf.printf
    "the paper predicts batching closes part of the ~50%% gap to the ideal \
     loop (§IX)\n"

let guided () =
  section
    "Extension: coverage-guided fuzzing vs the PoC's naive bit-flips (§IX)";
  let m = mgr () in
  let recording, _ = recorded_run W.Cpu_bound in
  let config =
    { Iris_fuzzer.Guided.default_config with
      Iris_fuzzer.Guided.iterations = 4000 }
  in
  List.iter
    (fun reason ->
      match
        ( Iris_fuzzer.Guided.naive_baseline ~config ~manager:m ~recording
            ~reason,
          Iris_fuzzer.Guided.run ~config ~manager:m ~recording ~reason )
      with
      | Some naive, Some guided ->
          Printf.printf
            "%-10s baseline %3d LOC | naive: %3d LOC, %d crashes | guided: \
             %3d LOC, %d crashes, corpus %d\n"
            (R.short_name reason)
            naive.Iris_fuzzer.Guided.baseline_lines
            naive.Iris_fuzzer.Guided.unique_lines
            (naive.Iris_fuzzer.Guided.vm_crashes
            + naive.Iris_fuzzer.Guided.hv_crashes)
            guided.Iris_fuzzer.Guided.unique_lines
            (guided.Iris_fuzzer.Guided.vm_crashes
            + guided.Iris_fuzzer.Guided.hv_crashes)
            guided.Iris_fuzzer.Guided.corpus_size
      | _, _ -> Printf.printf "%-10s -\n" (R.short_name reason))
    [ R.Rdtsc; R.Cpuid; R.Vmcall; R.Ept_violation ];
  (* Coverage-over-time for one test case. *)
  (match
     Iris_fuzzer.Guided.run ~config ~manager:m ~recording ~reason:R.Cpuid
   with
  | Some g ->
      print_string
        (Plot.series ~title:"guided coverage over iterations (CPUID)"
           ~x_label:"iteration" ~y_label:"unique LOC"
           [ ( "guided",
               List.map
                 (fun p ->
                   ( float_of_int p.Iris_fuzzer.Guided.iteration,
                     float_of_int p.Iris_fuzzer.Guided.unique_lines ))
                 g.Iris_fuzzer.Guided.curve ) ])
  | None -> ())

(* ------------------------------------------------------------------ *)
(* Scaling: the parallel orchestrator's jobs sweep                    *)
(* ------------------------------------------------------------------ *)

let scaling () =
  section "Scaling: sharded campaign across worker domains (jobs sweep)";
  (* One recording, one 10K-mutation campaign, fanned out over 1/2/4/8
     worker domains.  Wall time is modeled virtual-TSC time — the
     critical path over workers of (boot-to-S_R setup + executed-case
     cycles) — because that is the repo's unit for every other
     efficiency number and is independent of how many host CPUs this
     machine happens to have.  Host seconds are reported alongside. *)
  let m = mgr () in
  let recording = Manager.record m W.Cpu_bound ~exits:1_200 in
  let config = { Iris_fuzzer.Campaign.mutations = 10_000; prng_seed } in
  let sweep =
    gate (Gate.campaign ~recording ~config ~jobs:[ 1; 2; 4; 8 ])
  in
  let wall jobs =
    Clock.cycles_to_seconds
      (List.assoc jobs sweep).Orch.fuzz_report.Orch.r_model_wall_cycles
  in
  let header =
    [ "jobs"; "model wall (s)"; "speedup"; "host (s)"; "report digest" ]
  in
  let rows =
    List.map
      (fun (jobs, o) ->
        let rep = o.Orch.fuzz_report in
        let k = Printf.sprintf "scaling.jobs%d" jobs in
        Report.put_f (k ^ ".model_wall_seconds") (wall jobs);
        Report.put_f (k ^ ".host_seconds") rep.Orch.r_host_seconds;
        [ string_of_int jobs;
          Printf.sprintf "%.4f" (wall jobs);
          Printf.sprintf "%.2fx" (wall 1 /. wall jobs);
          Printf.sprintf "%.2f" rep.Orch.r_host_seconds;
          String.sub (Scenario.digest o.Orch.fuzz_result) 0 12 ])
      sweep
  in
  print_string
    (Plot.table ~title:"10K-mutation RDTSC/vmcs campaign, sharded" ~header
       rows);
  print_string (Orch.render_workers (List.assoc 4 sweep).Orch.fuzz_report);
  let speedup4 = wall 1 /. wall 4 in
  Report.put_f "scaling.speedup_jobs4" speedup4;
  Report.put_i "scaling.deterministic" 1;
  Printf.printf
    "\nmerged reports and telemetry byte-identical across jobs 1/2/4/8 and \
     equal to the sequential full-restore report: yes\n";
  Printf.printf "model speedup at jobs=4: %.2fx (target >= 2x)\n" speedup4

(* ------------------------------------------------------------------ *)
(* Revert: copy-on-write rewind vs full snapshot restore              *)
(* ------------------------------------------------------------------ *)

(* Hard budget on minor-heap allocation per COW rewind, in words.  A
   rewind restores fixed-size device and vCPU state in place and walks
   only the journals a case dirtied; what it still allocates is the
   footprint record and Int64 boxing.  That measures 23 words per
   rewind, so the budget leaves a little headroom above the plateau.
   The major-heap budget is zero: a rewind that copies a growing
   buffer (the UART transmit log once did) shows up here. *)
let minor_words_per_rewind_budget = 32.0

(* Average (minor, direct major) words per rewind over one pass of the
   plan: each case dirties the domain, then only the rewind to S_R sits
   between the GC counter reads.  Direct major allocation is
   [major - promoted], so a minor collection that promotes a case's
   garbage during the rewind does not count against it. *)
let rewind_words ~replayer ~anchor plan =
  let module Campaign = Iris_fuzzer.Campaign in
  let direct_major () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  let minor = ref 0.0 and major = ref 0.0 in
  let cases = Campaign.case_count plan in
  for i = 0 to cases - 1 do
    ignore (Campaign.submit_probed replayer (Campaign.case plan i));
    let m0 = direct_major () in
    let w0 = Gc.minor_words () in
    Campaign.restore ~replayer anchor;
    let w1 = Gc.minor_words () in
    let m1 = direct_major () in
    minor := !minor +. (w1 -. w0);
    major := !major +. (m1 -. m0)
  done;
  (!minor /. float_of_int cases, !major /. float_of_int cases)

let revert_bench () =
  section "Revert: copy-on-write rewind vs full snapshot restore";
  (* The same campaign on the same memory-oracle dummy (guest RAM
     kept, so restores have a realistic footprint), once with the
     deep-copy full-restore path and once with the journal rewind.
     The gate has two parts: the reports must be byte-identical, and
     the modeled restore footprint — deterministic bytes-touched, the
     same unit for both paths — must shrink at least 5x.  Host wall
     seconds are reported alongside but not gated (they measure this
     machine, not the engine). *)
  let m = mgr () in
  let recording = Manager.record m W.Cpu_bound ~exits:1_200 in
  let trace = recording.Manager.trace in
  let config = { Iris_fuzzer.Campaign.mutations = 2_000; prng_seed } in
  let module Campaign = Iris_fuzzer.Campaign in
  let module Domain = Iris_hv.Domain in
  let plan =
    match
      Campaign.plan ~config ~trace ~reason:Scenario.campaign_reason
        ~area:Scenario.campaign_area
    with
    | Some p -> p
    | None -> failwith "revert: no RDTSC seed in the CPU-bound trace"
  in
  let seed_index = plan.Campaign.plan_target.Seed.index in
  let cases = Campaign.case_count plan in
  let run pin =
    let replayer =
      Manager.make_dummy m ~revert_to:recording.Manager.snapshot
        ~keep_memory:true ()
    in
    let anchor = pin ~replayer in
    let t0 = Scenario.wall_now () in
    let result = Campaign.execute ~replayer ~anchor plan in
    (result, Scenario.wall_now () -. t0, anchor, replayer)
  in
  let res_full, host_full, anch_full, _ =
    run (fun ~replayer ->
        Campaign.Anchor_full (Campaign.reach_sr ~replayer ~trace ~seed_index))
  in
  let res_cow, host_cow, anch_cow, repl_cow =
    run (fun ~replayer -> Campaign.anchor ~replayer ~trace ~seed_index ())
  in
  let dom_cow = (Replayer.ctx repl_cow).Iris_hv.Ctx.dom in
  gate
    (Gate.same ~what:"revert campaign report"
       [ ("full restore", Scenario.digest res_full);
         ("cow rewind", Scenario.digest res_cow) ]);
  (* Modeled restore footprint, bytes per case. *)
  let full_bytes =
    match anch_full with
    | Campaign.Anchor_full s -> Domain.snapshot_bytes s
    | Campaign.Anchor_cow _ -> assert false
  in
  let st = Domain.snapshot_stats dom_cow in
  let fixed =
    Domain.rewind_bytes
      { Domain.rs_pages = 0; rs_ept_entries = 0; rs_vmcs_fields = 0 }
  in
  let cow_bytes =
    fixed
    + (Domain.rewind_bytes
         { Domain.rs_pages = st.Domain.pages_restored;
           rs_ept_entries = st.Domain.ept_restored;
           rs_vmcs_fields = st.Domain.vmcs_fields_restored }
      - fixed)
      / max 1 st.Domain.cow_reverts
  in
  let modeled_speedup = float_of_int full_bytes /. float_of_int cow_bytes in
  let host_speedup = host_full /. host_cow in
  Printf.printf
    "%d cases; restore footprint: %d B/case (full restore) vs %d B/case \
     (COW rewind)\n"
    cases full_bytes cow_bytes;
  Printf.printf
    "modeled revert speedup: %.1fx (gate: >= 5x)   host: %.2fs vs %.2fs \
     (%.2fx)\n"
    modeled_speedup host_full host_cow host_speedup;
  Printf.printf "reports byte-identical across restore paths: true\n";
  let minor_per_rewind, major_per_rewind =
    rewind_words ~replayer:repl_cow ~anchor:anch_cow plan
  in
  Printf.printf
    "allocation per COW rewind: %.1f minor words (budget %.0f), %.2f major \
     words (budget < 1)\n"
    minor_per_rewind minor_words_per_rewind_budget major_per_rewind;
  Report.put_f "revert.full_case_seconds" (host_full /. float_of_int cases);
  Report.put_f "revert.cow_case_seconds" (host_cow /. float_of_int cases);
  Report.put_i "revert.full_case_bytes" full_bytes;
  Report.put_i "revert.cow_case_bytes" cow_bytes;
  Report.put_f "revert.modeled_speedup" modeled_speedup;
  Report.put_f "revert.host_speedup" host_speedup;
  Report.put_f "revert.minor_words_per_rewind" minor_per_rewind;
  Report.put_f "revert.major_words_per_rewind" major_per_rewind;
  Report.put_i "revert.equivalent" 1;
  require (modeled_speedup >= 5.0)
    (Printf.sprintf "revert: modeled speedup %.2fx below the 5x gate"
       modeled_speedup);
  require
    (minor_per_rewind <= minor_words_per_rewind_budget)
    (Printf.sprintf
       "revert: %.1f minor words/rewind exceeds the %.0f-word budget"
       minor_per_rewind minor_words_per_rewind_budget);
  require (major_per_rewind < 1.0)
    (Printf.sprintf "revert: %.2f major words/rewind (budget: < 1)"
       major_per_rewind)

(* ------------------------------------------------------------------ *)
(* Inspect: checkpoint-search divergence location vs linear re-replay *)
(* ------------------------------------------------------------------ *)

let inspect_bench () =
  section "Inspect: divergence locator vs linear re-replay, crash bisection";
  let module Insp = Iris_inspect in
  (* One perturbed seed deep inside the paper's 5K-exit sample trace.
     The reference is an unperturbed *replay* trace, so replay
     determinism guarantees the planted index is the only divergence
     and exactness can be gated, not eyeballed. *)
  let recording, baseline = recorded_run W.Cpu_bound in
  (match baseline.Manager.outcome with
  | Replayer.Replayed -> ()
  | Replayer.Vm_crashed msg ->
      failwith ("inspect: baseline replay crashed: " ^ msg));
  let m = mgr () in
  let planted, seeds =
    gate
      (Scenario.plant
         ~at:(Scenario.plant_position ~exits:paper_trace_len)
         recording.Manager.trace.Trace.seeds)
  in
  let report =
    (gate
       (Gate.locate ~manager:m ~recording
          ~reference:baseline.Manager.replay_trace ~planted ~every:64 seeds))
      .Gate.report
  in
  Printf.printf "planted fault at seed #%d; ground truth and locator agree\n"
    planted;
  (* The savings threshold compares instrumented seeds: what the probes
     replayed under the metrics recorder vs the whole-prefix linear
     sweep the same diagnosis used to cost. *)
  let instrumented = max 1 report.Insp.Locator.seeds_instrumented in
  let linear = report.Insp.Locator.linear_seeds in
  let savings = float_of_int linear /. float_of_int instrumented in
  Printf.printf
    "cost: %d checkpoints, %d reverts, %d probes, %d instrumented seeds vs \
     %d linear -> %.1fx fewer (gate: >= 5x)\n"
    report.Insp.Locator.checkpoints report.Insp.Locator.reverts
    report.Insp.Locator.probes instrumented linear savings;
  require (savings >= 5.0)
    (Printf.sprintf
       "inspect: locator replayed only %.2fx fewer seeds than the linear \
        sweep (gate: >= 5x)"
       savings);
  (* Crash bisection determinism: minimize the planted crasher and
     require byte-identical verification digests across two replays. *)
  let prefix = Array.sub seeds 0 planted in
  let crasher = seeds.(planted) in
  let make_replayer () =
    Manager.make_dummy m ~revert_to:recording.Manager.snapshot ()
  in
  (match Insp.Bisect.minimize ~make_replayer ~prefix ~crasher with
  | None -> failwith "inspect: planted crash did not reproduce under bisection"
  | Some b ->
      Printf.printf
        "bisection: prefix %d -> suffix start %d (%d-seed reproducer), %d \
         attempts, digest %s\n"
        planted b.Insp.Bisect.b_suffix_start
        (Array.length b.Insp.Bisect.b_seeds)
        b.Insp.Bisect.b_attempts b.Insp.Bisect.b_digest;
      require b.Insp.Bisect.b_deterministic
        "inspect: bisection reproducer digests differ across two replays";
      Report.put_i "inspect.bisect_suffix_seeds"
        (Array.length b.Insp.Bisect.b_seeds);
      Report.put_i "inspect.bisect_attempts" b.Insp.Bisect.b_attempts;
      Report.put_i "inspect.bisect_deterministic" 1);
  Report.put_i "inspect.planted_index" planted;
  Report.put_i "inspect.located_index" planted;
  Report.put_i "inspect.exact" 1;
  Report.put_i "inspect.checkpoints" report.Insp.Locator.checkpoints;
  Report.put_i "inspect.reverts" report.Insp.Locator.reverts;
  Report.put_i "inspect.probes" report.Insp.Locator.probes;
  Report.put_i "inspect.locator_seeds_instrumented" instrumented;
  Report.put_i "inspect.linear_seeds" linear;
  Report.put_f "inspect.savings_x" savings

(* ------------------------------------------------------------------ *)
(* Diff: VT-x vs SVM cross-backend oracle                             *)
(* ------------------------------------------------------------------ *)

let diff_bench () =
  section "Diff: VT-x vs SVM differential oracle";
  let module Dc = Iris_differential.Diffcampaign in
  (* The two extreme workloads: CPU-bound (densest comparable set),
     which also carries every planted asymmetry, and OS boot (the
     mode-changing trace that punishes any anchoring shortcut). *)
  List.iter
    (fun (w, key, plants) ->
      let recording = Manager.record (mgr ()) w ~exits:1_200 in
      let facts = gate (Gate.diff ~recording ~plants) in
      let base = facts.Gate.unperturbed in
      Printf.printf
        "%-10s %d seeds: %d comparable (%d agree), %d lossy, %d findings\n"
        (W.name w) base.Dc.total base.Dc.comparable base.Dc.agreements
        base.Dc.lossy
        (List.length base.Dc.findings);
      Report.put_i ("diff." ^ key ^ ".comparable") base.Dc.comparable;
      Report.put_i ("diff." ^ key ^ ".lossy") base.Dc.lossy;
      Report.put_i ("diff." ^ key ^ ".findings")
        (List.length base.Dc.findings);
      List.iter
        (fun (plant, expected, _) ->
          let name = Iris_svm.Machine.asymmetry_name plant in
          Printf.printf "plant %-16s ground truth = detected = %d\n" name
            (List.length expected);
          Report.put_i ("diff.plant." ^ name ^ ".findings")
            (List.length expected))
        facts.Gate.planted)
    [ (W.Cpu_bound, "cpu_bound", Iris_svm.Machine.all_asymmetries);
      (W.Os_boot, "os_boot", []) ];
  Report.put_i "diff.plants_exact" 1;
  Printf.printf "\nzero unperturbed findings, all plants detected exactly\n"

(* ------------------------------------------------------------------ *)
(* serve: the campaign service's determinism and distillation gates   *)
(* ------------------------------------------------------------------ *)

(* Gate.serve over the standard multi-tenant scenario set at jobs 1/4,
   plus the paper-size threshold: corpus distillation shrinks the
   store >= 2x with zero coverage loss. *)
let serve_bench () =
  let module Svc = Iris_service in
  section "campaign service (serve): determinism + corpus distillation";
  let facts =
    gate
      (Gate.serve ~recordings:(Svc.Server.recordings ()) ~quantum:48
         ~jobs:[ 1; 4 ] Scenario.serve_specs)
  in
  List.iter
    (fun d ->
      let s = d.Gate.summary in
      Printf.printf
        "  %s: %d rounds, %d completed, %d crashes -> %d buckets, corpus %d \
         (%.2f s)\n"
        d.Gate.label s.Svc.Server.d_rounds s.Svc.Server.d_completed
        s.Svc.Server.d_crashes s.Svc.Server.d_buckets s.Svc.Server.d_corpus
        d.Gate.wall_s)
    facts.Gate.drains;
  let drained label =
    List.find (fun d -> d.Gate.label = label) facts.Gate.drains
  in
  let d1 = drained "jobs=1" and d4 = drained "jobs=4" in
  let sum4 = d4.Gate.summary in
  Printf.printf
    "report byte-identical across jobs=1/4 and both orders (digest %s)\n"
    sum4.Svc.Server.d_report_digest;
  let v = facts.Gate.verify in
  Printf.printf
    "verify: %d corpus entries, %d triage buckets re-replayed; %d/%d \
     mismatches, %d unreproduced\n"
    v.Svc.Server.v_corpus_checked v.Svc.Server.v_buckets_checked
    v.Svc.Server.v_corpus_mismatches v.Svc.Server.v_bucket_mismatches
    v.Svc.Server.v_buckets_unreproduced;
  let corpus = Svc.Server.corpus d4.Gate.server in
  let cov_before = Svc.Corpus.coverage corpus in
  let before, after = Svc.Server.distill d4.Gate.server in
  let cov_after = Svc.Corpus.coverage corpus in
  require (cov_before = cov_after) "serve: distillation lost coverage";
  let ratio = float_of_int before /. float_of_int (max 1 after) in
  Printf.printf
    "distillation: %d seeds -> %d (%.2fx) over %d coverage points, zero \
     loss\n"
    before after ratio (Array.length cov_after);
  require (ratio >= 2.0)
    (Printf.sprintf "serve: distillation only %.2fx (gate: >= 2x)" ratio);
  Report.put "serve.report_digest"
    (Report.J.String sum4.Svc.Server.d_report_digest);
  Report.put_i "serve.jobs_completed" sum4.Svc.Server.d_completed;
  Report.put_i "serve.crashes" sum4.Svc.Server.d_crashes;
  Report.put_i "serve.triage_buckets" sum4.Svc.Server.d_buckets;
  Report.put_i "serve.corpus_before_distill" before;
  Report.put_i "serve.corpus_after_distill" after;
  Report.put_f "serve.distill_ratio" ratio;
  Report.put_i "serve.coverage_points" (Array.length cov_after);
  Report.put_f "serve.drain_wall_s_jobs1" d1.Gate.wall_s;
  Report.put_f "serve.drain_wall_s_jobs4" d4.Gate.wall_s

(* ------------------------------------------------------------------ *)
(* driver                                                             *)
(* ------------------------------------------------------------------ *)

let targets : (string * (unit -> unit)) list =
  [ ("fig4", fig4); ("fig5", fig5); ("fig6", fig6); ("fig7", fig7);
    ("fig8", fig8); ("fig9", fig9); ("fig10", fig10);
    ("throughput", throughput); ("seedsize", seedsize);
    ("bootstate", bootstate); ("table1", fun () -> table1 ());
    ("ablation-mem", ablation_mem); ("ablation-entry", ablation_entry);
    ("ablation-shim", ablation_shim); ("ablation-timer", ablation_timer);
    ("ablation-coverage", ablation_coverage); ("batch", batch);
    ("guided", guided); ("portability", portability); ("scaling", scaling);
    ("revert", revert_bench); ("inspect", inspect_bench);
    ("diff", diff_bench); ("hotpath", hotpath); ("serve", serve_bench) ]

let timed name f =
  let t0 = Scenario.wall_now () in
  f ();
  (name, Scenario.wall_now () -. t0)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | [ "list" ] -> List.iter (fun (n, _) -> print_endline n) targets
  | [] ->
      Printf.printf "IRIS evaluation harness (all targets)\n";
      let experiments = List.map (fun (n, f) -> timed n f) targets in
      Report.write ~path:report_path ~experiments
  | names ->
      let experiments =
        List.map
          (fun n ->
            match List.assoc_opt n targets with
            | Some f -> timed n f
            | None ->
                Printf.eprintf "unknown target %S; try 'list'\n" n;
                exit 1)
          names
      in
      Report.write ~path:report_path ~experiments
