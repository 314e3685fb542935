(* Tests for the IRIS-based fuzzer prototype: mutations, campaigns,
   failure triage, and Table I plumbing. *)

module Mutation = Iris_fuzzer.Mutation
module Campaign = Iris_fuzzer.Campaign
module Table1 = Iris_fuzzer.Table1
module Seed = Iris_core.Seed
module Manager = Iris_core.Manager
module F = Iris_vmcs.Field
module R = Iris_vtx.Exit_reason
module W = Iris_guest.Workload
module Prng = Iris_util.Prng
open Iris_x86

let check = Alcotest.check

let digest = Iris_scenario.Scenario.digest

let sample_seed () =
  { Seed.index = 0;
    reason = R.Rdtsc;
    gprs = Array.to_list (Array.map (fun r -> (r, 0L)) Gpr.all);
    reads =
      [ (F.vm_exit_reason, 16L); (F.vm_exit_instruction_len, 2L);
        (F.tsc_offset, 0L); (F.guest_rip, 0x1000L) ];
    writes = [] }

(* --- Mutation --- *)

let test_mutation_gpr_single_bit () =
  let s = sample_seed () in
  let m = Mutation.Flip_gpr (Gpr.Rcx, 5) in
  let s' = Mutation.apply m s in
  check Alcotest.int64 "bit flipped" 0x20L (Seed.gpr_value s' Gpr.Rcx);
  (* All other registers untouched. *)
  Array.iter
    (fun r ->
      if r <> Gpr.Rcx then
        check Alcotest.int64 (Gpr.name r) 0L (Seed.gpr_value s' r))
    Gpr.all;
  (* Reads untouched. *)
  check Alcotest.bool "reads unchanged" true (s'.Seed.reads = s.Seed.reads)

let test_mutation_field_occurrence () =
  (* A field read twice: only the addressed occurrence flips. *)
  let s =
    { (sample_seed ()) with
      Seed.reads = [ (F.guest_rip, 0x10L); (F.guest_rip, 0x20L) ] }
  in
  let s' = Mutation.apply (Mutation.Flip_field (F.guest_rip, 1, 0)) s in
  check Alcotest.bool "second occurrence flipped" true
    (s'.Seed.reads = [ (F.guest_rip, 0x10L); (F.guest_rip, 0x21L) ])

let test_mutation_apply_is_pure () =
  let s = sample_seed () in
  let _ = Mutation.apply (Mutation.Flip_gpr (Gpr.Rax, 0)) s in
  check Alcotest.int64 "original untouched" 0L (Seed.gpr_value s Gpr.Rax)

let test_mutation_random_area () =
  let prng = Prng.of_int 4 in
  for _ = 1 to 50 do
    match Mutation.random prng Mutation.Area_gpr (sample_seed ()) with
    | Some (Mutation.Flip_gpr (_, bit)) ->
        check Alcotest.bool "bit in range" true (bit >= 0 && bit < 64)
    | Some (Mutation.Flip_field _) -> Alcotest.fail "GPR area gave field"
    | None -> Alcotest.fail "GPR mutation always possible"
  done;
  for _ = 1 to 50 do
    match Mutation.random prng Mutation.Area_vmcs (sample_seed ()) with
    | Some (Mutation.Flip_field (f, _, bit)) ->
        check Alcotest.bool "bit within field width" true
          (bit >= 0 && bit < 8 * F.width_bytes f)
    | Some (Mutation.Flip_gpr _) -> Alcotest.fail "VMCS area gave GPR"
    | None -> Alcotest.fail "seed has reads"
  done

let test_mutation_random_empty_vmcs () =
  let prng = Prng.of_int 4 in
  let s = { (sample_seed ()) with Seed.reads = [] } in
  check Alcotest.bool "no reads -> no VMCS mutation" true
    (Mutation.random prng Mutation.Area_vmcs s = None)

let test_mutation_gpr_draws_from_seed () =
  (* Regression: Area_gpr used to draw from the full register file, so
     a seed carrying a subset produced silent no-op mutants (flipping
     a register the replayer never injects).  It must draw only from
     the seed's own registers — and refuse when there are none. *)
  let prng = Prng.of_int 9 in
  let s =
    { (sample_seed ()) with Seed.gprs = [ (Gpr.Rbx, 1L); (Gpr.Rsi, 2L) ] }
  in
  for _ = 1 to 100 do
    match Mutation.random prng Mutation.Area_gpr s with
    | Some (Mutation.Flip_gpr (r, _)) ->
        check Alcotest.bool "register is in the seed" true
          (r = Gpr.Rbx || r = Gpr.Rsi)
    | Some (Mutation.Flip_field _) -> Alcotest.fail "GPR area gave field"
    | None -> Alcotest.fail "non-empty GPR list must mutate"
  done;
  check Alcotest.bool "no GPRs -> no mutation" true
    (Mutation.random prng Mutation.Area_gpr
       { s with Seed.gprs = [] }
    = None)

(* Arbitrary seeds with a variable register subset and read list, so
   the properties cover shapes the workloads never produce. *)
let arb_mutation_case =
  let gen =
    QCheck.Gen.(
      let* gpr_mask = int_bound ((1 lsl Array.length Gpr.all) - 1) in
      let* nreads = int_range 1 8 in
      let* read_vals = list_size (return nreads) int64 in
      let* gpr_vals =
        list_size (return (Array.length Gpr.all)) int64
      in
      let* area_pick = bool in
      let* prng_seed = small_nat in
      let gprs =
        List.filteri
          (fun i _ -> gpr_mask land (1 lsl i) <> 0)
          (List.mapi
             (fun i v -> (Gpr.all.(i), v))
             gpr_vals)
      in
      let fields =
        [| F.guest_rip; F.guest_rflags; F.tsc_offset; F.vm_exit_reason;
           F.guest_cr0; F.guest_rip |]
      in
      let reads =
        List.mapi
          (fun i v -> (fields.(i mod Array.length fields), v))
          read_vals
      in
      let area =
        if area_pick then Mutation.Area_vmcs else Mutation.Area_gpr
      in
      return
        ( { (sample_seed ()) with Seed.gprs; Seed.reads },
          area, prng_seed ))
  in
  let print (s, area, pseed) =
    Printf.sprintf "gprs=%d reads=%d area=%s prng=%d"
      (List.length s.Seed.gprs)
      (List.length s.Seed.reads)
      (Mutation.area_name area) pseed
  in
  QCheck.make ~print gen

let prop_mutation_preserves_shape =
  (* Well-formedness: a mutant differs from its seed only in one
     value — same index, reason, register names, read fields, and
     ordering throughout. *)
  QCheck.Test.make ~name:"mutation preserves seed shape" ~count:500
    arb_mutation_case
    (fun (s, area, pseed) ->
      match Mutation.random (Prng.of_int pseed) area s with
      | None -> area = Mutation.Area_gpr && s.Seed.gprs = []
      | Some m ->
          let s' = Mutation.apply m s in
          s'.Seed.index = s.Seed.index
          && s'.Seed.reason = s.Seed.reason
          && s'.Seed.writes = s.Seed.writes
          && List.map fst s'.Seed.gprs = List.map fst s.Seed.gprs
          && List.map fst s'.Seed.reads = List.map fst s.Seed.reads)

let prop_mutation_deterministic =
  (* Two generators in the same state draw the same mutation — the
     campaign-level determinism contract, at the unit level. *)
  QCheck.Test.make ~name:"mutation deterministic for fixed prng state"
    ~count:300 arb_mutation_case
    (fun (s, area, pseed) ->
      let a = Prng.of_int pseed in
      let b = Prng.copy a in
      Mutation.random a area s = Mutation.random b area s)

let prop_mutation_in_bounds =
  (* Every drawn mutation addresses state that actually exists in the
     seed: an in-seed register with a bit below 64, or a recorded
     occurrence of a field with a bit inside the field's width. *)
  QCheck.Test.make ~name:"mutation addresses in-seed state" ~count:500
    arb_mutation_case
    (fun (s, area, pseed) ->
      match Mutation.random (Prng.of_int pseed) area s with
      | None -> area = Mutation.Area_gpr && s.Seed.gprs = []
      | Some (Mutation.Flip_gpr (r, bit)) ->
          List.mem_assoc r s.Seed.gprs && bit >= 0 && bit < 64
      | Some (Mutation.Flip_field (f, occurrence, bit)) ->
          let occurrences =
            List.length
              (List.filter (fun (g, _) -> g = f) s.Seed.reads)
          in
          occurrence >= 0 && occurrence < occurrences && bit >= 0
          && bit < 8 * F.width_bytes f)

let prop_mutation_single_bit =
  QCheck.Test.make ~name:"mutation flips exactly one bit" ~count:300
    QCheck.(pair small_int small_int)
    (fun (seed, pick) ->
      let prng = Prng.of_int seed in
      let s = sample_seed () in
      let area =
        if pick mod 2 = 0 then Mutation.Area_vmcs else Mutation.Area_gpr
      in
      match Mutation.random prng area s with
      | None -> false
      | Some m ->
          let s' = Mutation.apply m s in
          let bit_diff pairs pairs' =
            List.fold_left2
              (fun acc (_, a) (_, b) ->
                acc + Iris_util.Bits.popcount (Int64.logxor a b))
              0 pairs pairs'
          in
          bit_diff s.Seed.gprs s'.Seed.gprs
          + bit_diff s.Seed.reads s'.Seed.reads
          = 1)

(* --- Campaign --- *)

let mgr () = Manager.create ~boot_scale:0.02 ~prng_seed:21 ()

let config n = { Campaign.mutations = n; prng_seed = 77 }

let test_campaign_absent_reason () =
  let m = mgr () in
  let recording = Manager.record m W.Cpu_bound ~exits:300 in
  (* CPU-bound never halts. *)
  check Alcotest.bool "HLT absent" true
    (Campaign.run ~config:(config 10) ~manager:m ~recording ~reason:R.Hlt
       ~area:Mutation.Area_vmcs ()
    = None)

let test_campaign_discovers_coverage () =
  let m = mgr () in
  let recording = Manager.record m W.Cpu_bound ~exits:400 in
  match
    Campaign.run ~config:(config 150) ~manager:m ~recording ~reason:R.Rdtsc
      ~area:Mutation.Area_vmcs ()
  with
  | None -> Alcotest.fail "rdtsc seeds exist"
  | Some r ->
      check Alcotest.int "all mutations executed" 150 r.Campaign.executed;
      check Alcotest.bool "baseline non-empty" true
        (r.Campaign.baseline_lines > 0);
      check Alcotest.bool "new coverage found" true
        (r.Campaign.fuzz_lines > r.Campaign.baseline_lines);
      check Alcotest.bool "percentage positive" true
        (r.Campaign.coverage_increase_pct > 0.0);
      check Alcotest.bool "cell renders" true
        (String.length (Campaign.pct_string r) > 1)

let test_campaign_finds_crashes () =
  let m = mgr () in
  let recording = Manager.record m W.Cpu_bound ~exits:400 in
  match
    Campaign.run ~config:(config 250) ~manager:m ~recording ~reason:R.Rdtsc
      ~area:Mutation.Area_vmcs ()
  with
  | None -> Alcotest.fail "rdtsc seeds exist"
  | Some r ->
      (* VMCS bit-flips must tickle both failure classes. *)
      check Alcotest.bool "hypervisor crashes found" true
        (r.Campaign.hv_crashes > 0);
      check Alcotest.bool "vm crashes found" true (r.Campaign.vm_crashes > 0);
      check Alcotest.int "verdicts recorded"
        (r.Campaign.vm_crashes + r.Campaign.hv_crashes)
        (List.length r.Campaign.crashing);
      (* Failure details carry the crash reason. *)
      List.iter
        (fun v ->
          check Alcotest.bool "detail non-empty" true
            (String.length v.Campaign.detail > 0))
        r.Campaign.crashing

let test_campaign_gpr_mostly_harmless () =
  let m = mgr () in
  let recording = Manager.record m W.Cpu_bound ~exits:400 in
  match
    Campaign.run ~config:(config 200) ~manager:m ~recording ~reason:R.Rdtsc
      ~area:Mutation.Area_gpr ()
  with
  | None -> Alcotest.fail "rdtsc seeds exist"
  | Some r ->
      (* §VII-4: GPR mutations rarely crash anything outside
         CR-access seeds. *)
      check Alcotest.bool "few crashes" true
        (r.Campaign.vm_crashes + r.Campaign.hv_crashes
        < r.Campaign.executed / 10)

let test_campaign_deterministic () =
  let m = mgr () in
  let recording = Manager.record m W.Cpu_bound ~exits:300 in
  let run () =
    match
      Campaign.run ~config:(config 60) ~manager:m ~recording ~reason:R.Rdtsc
        ~area:Mutation.Area_vmcs ()
    with
    | Some r ->
        (r.Campaign.fuzz_lines, r.Campaign.vm_crashes, r.Campaign.hv_crashes)
    | None -> Alcotest.fail "no result"
  in
  check Alcotest.bool "same seed, same campaign" true (run () = run ())

let test_campaign_plan_finalize_equals_run () =
  (* The orchestrator's decomposition — plan (pure), execute each case,
     finalize (pure ordered fold) — must reproduce [Campaign.run]
     byte for byte: this is what makes the parallel merge exact. *)
  let m = mgr () in
  let recording = Manager.record m W.Cpu_bound ~exits:300 in
  let trace = recording.Manager.trace in
  let whole =
    Campaign.run ~config:(config 60) ~manager:m ~recording ~reason:R.Rdtsc
      ~area:Mutation.Area_vmcs ()
  in
  let pieces =
    Option.map
      (fun plan ->
        let replayer =
          Manager.make_dummy m ~revert_to:recording.Manager.snapshot ()
        in
        let anchor =
          Campaign.Anchor_full
            (Campaign.reach_sr ~replayer ~trace
               ~seed_index:plan.Campaign.plan_target.Iris_core.Seed.index)
        in
        Campaign.execute ~replayer ~anchor plan)
      (Campaign.plan ~config:(config 60) ~trace ~reason:R.Rdtsc
         ~area:Mutation.Area_vmcs)
  in
  match (whole, pieces) with
  | Some whole, Some pieces ->
      check Alcotest.string "plan/execute/finalize = run" (digest whole)
        (digest pieces)
  | _ -> Alcotest.fail "rdtsc seeds exist"

let test_nested_checkpoint_rewind () =
  (* Nested marks let the fuzzer rewind to a mid-case point without
     replaying the prefix: rerunning a case after rewinding its mark
     observes exactly the same raw outcome. *)
  let m = mgr () in
  let recording = Manager.record m W.Cpu_bound ~exits:300 in
  let trace = recording.Manager.trace in
  match
    Campaign.plan ~config:(config 30) ~trace ~reason:R.Rdtsc
      ~area:Mutation.Area_vmcs
  with
  | None -> Alcotest.fail "rdtsc seeds exist"
  | Some plan ->
      let replayer =
        Manager.make_dummy m ~revert_to:recording.Manager.snapshot ()
      in
      let seed_index = plan.Campaign.plan_target.Iris_core.Seed.index in
      let anchor =
        Campaign.anchor ~replayer ~trace ~seed_index ()
      in
      let cps, base =
        match anchor with
        | Campaign.Anchor_cow (cps, base, _) -> (cps, base)
        | Campaign.Anchor_full _ -> Alcotest.fail "cow anchor expected"
      in
      let case_a = Campaign.case plan 1 and case_b = Campaign.case plan 2 in
      (* Run A from the base mark; execute_case rewinds back to it. *)
      let raw_a = Campaign.execute_case ~replayer ~anchor case_a in
      (* Open a nested mark, run B on top of it twice. *)
      let m2 = Iris_hv.Checkpoint.push cps in
      check Alcotest.int "two marks live" 2 (Iris_hv.Checkpoint.depth cps);
      let anchor2 = Campaign.Anchor_cow (cps, m2, ref None) in
      let raw_b = Campaign.execute_case ~replayer ~anchor:anchor2 case_b in
      let raw_b' = Campaign.execute_case ~replayer ~anchor:anchor2 case_b in
      check Alcotest.string "rerun from nested mark identical"
        (digest raw_b) (digest raw_b');
      (* Rewinding to base discards m2 and re-exposes S_R exactly. *)
      ignore
        (Iris_hv.Checkpoint.rewind cps base : Iris_hv.Domain.revert_stats);
      check Alcotest.int "inner mark discarded" 1
        (Iris_hv.Checkpoint.depth cps);
      Alcotest.check_raises "discarded mark is dead"
        (Invalid_argument "Checkpoint.rewind: mark not live") (fun () ->
          ignore
            (Iris_hv.Checkpoint.rewind cps m2 : Iris_hv.Domain.revert_stats));
      let raw_a' = Campaign.execute_case ~replayer ~anchor case_a in
      check Alcotest.string "rerun from base identical" (digest raw_a)
        (digest raw_a');
      Iris_hv.Checkpoint.pop cps base;
      check Alcotest.int "stack empty" 0 (Iris_hv.Checkpoint.depth cps)

(* --- Guided fuzzing (§IX extension) --- *)

let guided_config n =
  { Iris_fuzzer.Guided.iterations = n; prng_seed = 5 }

let test_guided_beats_naive () =
  let m = mgr () in
  let recording = Manager.record m W.Cpu_bound ~exits:400 in
  match
    ( Iris_fuzzer.Guided.naive_baseline ~config:(guided_config 400)
        ~manager:m ~recording ~reason:R.Rdtsc,
      Iris_fuzzer.Guided.run ~config:(guided_config 400) ~manager:m
        ~recording ~reason:R.Rdtsc )
  with
  | Some naive, Some guided ->
      check Alcotest.bool "corpus grew" true
        (guided.Iris_fuzzer.Guided.corpus_size > 1);
      check Alcotest.bool "guided covers at least as much" true
        (guided.Iris_fuzzer.Guided.unique_lines
        >= naive.Iris_fuzzer.Guided.unique_lines);
      check Alcotest.bool "curve is monotone" true
        (let rec mono : Iris_fuzzer.Guided.progress list -> bool = function
           | a :: (b :: _ as rest) ->
               a.Iris_fuzzer.Guided.unique_lines
               <= b.Iris_fuzzer.Guided.unique_lines
               && mono rest
           | _ -> true
         in
         mono guided.Iris_fuzzer.Guided.curve);
      check Alcotest.bool "crashing inputs saved" true
        (List.length guided.Iris_fuzzer.Guided.crashing > 0)
  | _, _ -> Alcotest.fail "rdtsc seeds exist"

let test_guided_absent_reason () =
  let m = mgr () in
  let recording = Manager.record m W.Cpu_bound ~exits:200 in
  check Alcotest.bool "no HLT in cpu-bound" true
    (Iris_fuzzer.Guided.run ~config:(guided_config 10) ~manager:m ~recording
       ~reason:R.Hlt
    = None)

let test_guided_deterministic () =
  let m = mgr () in
  let recording = Manager.record m W.Cpu_bound ~exits:300 in
  let once () =
    match
      Iris_fuzzer.Guided.run ~config:(guided_config 150) ~manager:m
        ~recording ~reason:R.Rdtsc
    with
    | Some r ->
        ( r.Iris_fuzzer.Guided.unique_lines,
          r.Iris_fuzzer.Guided.corpus_size,
          r.Iris_fuzzer.Guided.vm_crashes,
          r.Iris_fuzzer.Guided.hv_crashes )
    | None -> Alcotest.fail "no result"
  in
  check Alcotest.bool "deterministic" true (once () = once ())

let test_guided_panic_telemetry () =
  (* With a probe attached, every hypervisor panic a guided run
     triages must leave one [hv_crash] instant on the trace, exactly
     as campaign cases do. *)
  let m = mgr () in
  let recording = Manager.record m W.Cpu_bound ~exits:400 in
  let hub = Iris_telemetry.Hub.create () in
  Manager.set_hub m (Some hub);
  match
    Iris_fuzzer.Guided.run ~config:(guided_config 400) ~manager:m ~recording
      ~reason:R.Rdtsc
  with
  | None -> Alcotest.fail "rdtsc seeds exist"
  | Some r ->
      let tracer = hub.Iris_telemetry.Hub.tracer in
      let instants =
        List.length
          (List.filter
             (fun sp -> sp.Iris_telemetry.Tracer.name = "hv_crash")
             (Iris_telemetry.Tracer.spans tracer))
      in
      check Alcotest.bool "hypervisor crashes found" true
        (r.Iris_fuzzer.Guided.hv_crashes > 0);
      check Alcotest.int "no spans dropped" 0
        (Iris_telemetry.Tracer.dropped tracer);
      check Alcotest.int "one hv_crash instant per crash"
        r.Iris_fuzzer.Guided.hv_crashes instants

(* --- Table 1 plumbing --- *)

let test_table1_structure () =
  check Alcotest.int "nine reasons" 9 (List.length Table1.reasons);
  check Alcotest.bool "boot/cpu/idle workloads" true
    (Table1.workloads = [ W.Os_boot; W.Cpu_bound; W.Idle ])

let test_table1_small_run_and_stats () =
  let m = mgr () in
  let recordings =
    [ (W.Cpu_bound, Manager.record m W.Cpu_bound ~exits:300) ]
  in
  let rows = Table1.run ~mutations:40 ~manager:m ~recordings () in
  check Alcotest.int "one row per reason" 9 (List.length rows);
  (* RDTSC row must have live cells for CPU-bound; HLT must be
     absent. *)
  let row r = List.find (fun x -> x.Table1.reason = r) rows in
  let cells_of r = (row r).Table1.cells in
  check Alcotest.bool "rdtsc cell present" true
    (List.exists
       (fun (_, _, c) -> match c with Table1.Cell _ -> true | _ -> false)
       (cells_of R.Rdtsc));
  check Alcotest.bool "hlt cell absent" true
    (List.for_all
       (fun (_, _, c) -> c = Table1.Absent)
       (cells_of R.Hlt));
  let stats = Table1.crash_stats rows in
  check Alcotest.bool "vmcs tests counted" true (stats.Table1.vmcs_tests > 0);
  check Alcotest.bool "gpr tests counted" true (stats.Table1.gpr_tests > 0);
  check Alcotest.bool "percentages bounded" true
    (stats.Table1.vmcs_hv_crash_pct >= 0.0
    && stats.Table1.vmcs_hv_crash_pct <= 100.0)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "iris_fuzzer"
    [ ( "mutation",
        [ Alcotest.test_case "gpr single bit" `Quick
            test_mutation_gpr_single_bit;
          Alcotest.test_case "field occurrence" `Quick
            test_mutation_field_occurrence;
          Alcotest.test_case "pure" `Quick test_mutation_apply_is_pure;
          Alcotest.test_case "random areas" `Quick test_mutation_random_area;
          Alcotest.test_case "empty vmcs area" `Quick
            test_mutation_random_empty_vmcs;
          Alcotest.test_case "gpr draws from seed" `Quick
            test_mutation_gpr_draws_from_seed ] );
      ( "campaign",
        [ Alcotest.test_case "absent reason" `Slow test_campaign_absent_reason;
          Alcotest.test_case "discovers coverage" `Slow
            test_campaign_discovers_coverage;
          Alcotest.test_case "finds crashes" `Slow test_campaign_finds_crashes;
          Alcotest.test_case "gpr mostly harmless" `Slow
            test_campaign_gpr_mostly_harmless;
          Alcotest.test_case "deterministic" `Slow
            test_campaign_deterministic;
          Alcotest.test_case "plan/finalize = run" `Slow
            test_campaign_plan_finalize_equals_run;
          Alcotest.test_case "nested checkpoint rewind" `Slow
            test_nested_checkpoint_rewind ] );
      ( "guided",
        [ Alcotest.test_case "beats naive" `Slow test_guided_beats_naive;
          Alcotest.test_case "absent reason" `Slow test_guided_absent_reason;
          Alcotest.test_case "deterministic" `Slow test_guided_deterministic;
          Alcotest.test_case "panic telemetry" `Slow
            test_guided_panic_telemetry ]
      );
      ( "table1",
        [ Alcotest.test_case "structure" `Quick test_table1_structure;
          Alcotest.test_case "small run + stats" `Slow
            test_table1_small_run_and_stats ] );
      ( "properties",
        qcheck
          [ prop_mutation_single_bit; prop_mutation_preserves_shape;
            prop_mutation_deterministic; prop_mutation_in_bounds ] ) ]
