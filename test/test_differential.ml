(* Tests for the differential fuzzing oracle (paper §IX crossed with
   NecoFuzz-style cross-backend comparison): comparability
   classification, observation normalization, verdicts, the planted
   ground-truth harness, and the sweep's pinned reports. *)

module Normalize = Iris_differential.Normalize
module Backend = Iris_differential.Backend
module Oracle = Iris_differential.Oracle
module Dc = Iris_differential.Diffcampaign
module Machine = Iris_svm.Machine
module Vmcb = Iris_svm.Vmcb
module Port = Iris_svm.Port
module Seed = Iris_core.Seed
module Manager = Iris_core.Manager
module F = Iris_vmcs.Field
module R = Iris_vtx.Exit_reason
module W = Iris_guest.Workload
module Comp = Iris_coverage.Component
module Gate = Iris_scenario.Gate
open Iris_x86

let check = Alcotest.check

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* A fully-translatable CPUID seed: every read maps to a VMCB slot and
   the family is modeled on the SVM machine. *)
let cpuid_seed ?(index = 0) ?(leaf = 0L) () =
  { Seed.index;
    reason = R.Cpuid;
    gprs =
      Array.to_list
        (Array.map
           (fun r -> (r, if r = Gpr.Rax then leaf else 0L))
           Gpr.all);
    reads =
      [ (F.vm_exit_reason, 10L); (F.vm_exit_instruction_len, 2L);
        (F.guest_rip, 0x1000L); (F.guest_rflags, 0x2L) ];
    writes = [] }

(* --- Normalize --- *)

let test_classify_comparable () =
  match Normalize.classify (cpuid_seed ()) with
  | Normalize.Comparable (tr, probe) ->
      check Alcotest.bool "nothing dropped" true (tr.Port.dropped = []);
      (* Probe covers the seed-injected Save slots and carried GPRs. *)
      check Alcotest.bool "rip probed" true
        (List.exists (fun (_, s) -> s = Vmcb.save_rip) probe.Normalize.p_slots);
      check Alcotest.bool "control slots not probed" true
        (List.for_all
           (fun (_, s) -> Vmcb.area s = Vmcb.Save)
           probe.Normalize.p_slots);
      check Alcotest.bool "rax probed" true
        (List.mem Gpr.Rax probe.Normalize.p_gprs)
  | Normalize.Untranslatable why -> Alcotest.fail ("lossy: " ^ why)

let test_classify_dropped_is_lossy () =
  (* A VT-x-only field (CR0 read shadow) makes the seed lossy. *)
  let s =
    { (cpuid_seed ()) with
      Seed.reads = (F.cr0_read_shadow, 0x10L) :: (cpuid_seed ()).Seed.reads }
  in
  match Normalize.classify s with
  | Normalize.Untranslatable _ -> ()
  | Normalize.Comparable _ -> Alcotest.fail "shadow read must be lossy"

let test_classify_unmodeled_family_is_lossy () =
  (* MSR accesses lose their direction in translation. *)
  let s =
    { (cpuid_seed ()) with
      Seed.reason = R.Rdmsr;
      Seed.reads =
        [ (F.vm_exit_reason, 31L); (F.vm_exit_instruction_len, 2L);
          (F.guest_rip, 0x1000L) ] }
  in
  match Normalize.classify s with
  | Normalize.Untranslatable _ -> ()
  | Normalize.Comparable _ -> Alcotest.fail "MSR must be lossy"

let test_classify_inconsistent_duplicate_is_lossy () =
  (* Two VMCS reads landing in one VMCB slot with different values:
     the first-wins/last-wins injection hazard. *)
  let s =
    { (cpuid_seed ()) with
      Seed.reads =
        [ (F.vm_exit_reason, 10L); (F.vm_exit_instruction_len, 2L);
          (F.guest_rip, 0x1000L); (F.guest_rip, 0x2000L);
          (F.guest_rflags, 0x2L) ] }
  in
  match Normalize.classify s with
  | Normalize.Untranslatable why ->
      check Alcotest.bool "mentions a duplicate" true
        (contains why "duplicate")
  | Normalize.Comparable _ ->
      Alcotest.fail "inconsistent duplicates must be lossy"

let test_classify_consistent_duplicate_ok () =
  let s =
    { (cpuid_seed ()) with
      Seed.reads =
        [ (F.vm_exit_reason, 10L); (F.vm_exit_instruction_len, 2L);
          (F.guest_rip, 0x1000L); (F.guest_rip, 0x1000L);
          (F.guest_rflags, 0x2L) ] }
  in
  match Normalize.classify s with
  | Normalize.Comparable _ -> ()
  | Normalize.Untranslatable why -> Alcotest.fail ("lossy: " ^ why)

let obs ?crash ?(slots = []) ?(gprs = []) ?(comps = []) () =
  { Normalize.o_crash = crash;
    o_slots = slots;
    o_gprs = gprs;
    o_components = comps }

let test_first_difference () =
  let a = obs ~slots:[ ("rip", 1L) ] ~gprs:[ ("rbx", 2L) ] () in
  check Alcotest.bool "equal -> None" true
    (Normalize.first_difference a a = None);
  let b = obs ~slots:[ ("rip", 9L) ] ~gprs:[ ("rbx", 2L) ] () in
  check Alcotest.bool "slot diff found" true
    (Normalize.first_difference a b <> None);
  let c = obs ~slots:[ ("rip", 1L) ] ~gprs:[ ("rbx", 3L) ] () in
  check Alcotest.bool "gpr diff found" true
    (Normalize.first_difference a c <> None);
  check Alcotest.bool "digest separates" true
    (Normalize.digest a <> Normalize.digest b)

let test_component_mask () =
  check Alcotest.bool "handler components in" true
    (Normalize.comparable_component Comp.Cpuid_c
    && Normalize.comparable_component Comp.Hvm_c);
  check Alcotest.bool "harness components out" false
    (Normalize.comparable_component Comp.Vmx_c
    || Normalize.comparable_component Comp.Iris_c)

(* --- Oracle --- *)

let test_classify_pair () =
  let ran = obs () in
  let died = obs ~crash:"gone" () in
  check Alcotest.bool "both ran, equal -> agree" true
    (Oracle.classify_pair ran ran = Oracle.Agree);
  check Alcotest.bool "both crashed -> agree" true
    (Oracle.classify_pair died died = Oracle.Agree);
  (match Oracle.classify_pair died ran with
  | Oracle.Crash_on_one { left_crash = Some _; right_crash = None } -> ()
  | _ -> Alcotest.fail "left crash must be crash-on-one");
  match
    Oracle.classify_pair (obs ~slots:[ ("rip", 1L) ] ())
      (obs ~slots:[ ("rip", 2L) ] ())
  with
  | Oracle.Semantic _ -> ()
  | _ -> Alcotest.fail "slot mismatch must be semantic"

let test_svm_agrees_with_itself () =
  (* Two independent unplanted machines are observationally equal on
     every comparable seed — the oracle's baseline sanity. *)
  let left = Backend.svm () and right = Backend.svm () in
  for leaf = 0 to 5 do
    let seed = cpuid_seed ~leaf:(Int64.of_int leaf) () in
    match Normalize.classify seed with
    | Normalize.Untranslatable why -> Alcotest.fail ("lossy: " ^ why)
    | Normalize.Comparable (tr, probe) ->
        let a = Backend.run_case left seed tr probe in
        let b = Backend.run_case right seed tr probe in
        check Alcotest.bool "agree" true
          (Oracle.classify_pair a b = Oracle.Agree)
  done

let test_planted_cpuid_flip_detected () =
  let left = Backend.svm () in
  let right = Backend.svm ~plant:Machine.Cpuid_ecx_flip () in
  let seed = cpuid_seed ~leaf:1L () in
  match Normalize.classify seed with
  | Normalize.Untranslatable why -> Alcotest.fail ("lossy: " ^ why)
  | Normalize.Comparable (tr, probe) -> (
      let a = Backend.run_case left seed tr probe in
      let b = Backend.run_case right seed tr probe in
      match Oracle.classify_pair a b with
      | Oracle.Semantic d ->
          check Alcotest.bool "names rcx" true (contains d "rcx")
      | _ -> Alcotest.fail "CPUID ECX flip must be a semantic finding")

(* --- end-to-end sweeps (real recordings) --- *)

let recording =
  lazy
    (let m = Manager.create ~boot_scale:0.05 ~prng_seed:2023 () in
     Manager.record m W.Cpu_bound ~exits:300)

let gate = function Ok facts -> facts | Error msg -> Alcotest.fail msg

let cpu_bound_facts =
  lazy
    (gate
       (Gate.diff ~recording:(Lazy.force recording)
          ~plants:Machine.all_asymmetries))

(* OS boot changes CPU mode mid-trace. *)
let os_boot_facts =
  lazy
    (let m = Manager.create ~boot_scale:0.05 ~prng_seed:2023 () in
     let recording = Manager.record m W.Os_boot ~exits:300 in
     gate (Gate.diff ~recording ~plants:[]))

let test_unperturbed_sweep_zero_findings () =
  let r = (Lazy.force cpu_bound_facts).Gate.unperturbed in
  check Alcotest.int "total = trace length" 300 r.Dc.total;
  check Alcotest.bool "a real comparable set" true (r.Dc.comparable > 100);
  check Alcotest.int "partition" r.Dc.total (r.Dc.comparable + r.Dc.lossy);
  check Alcotest.int "all comparable agree" r.Dc.comparable r.Dc.agreements

let test_planted_sweep_matches_ground_truth () =
  check Alcotest.int "every plant swept"
    (List.length Machine.all_asymmetries)
    (List.length (Lazy.force cpu_bound_facts).Gate.planted)

(* The walk's reports, pinned by digest: CPU-bound unperturbed and
   under every plant, and OS boot unperturbed. *)
let test_report_digests_pinned () =
  let cpu = Lazy.force cpu_bound_facts in
  let digest = Iris_scenario.Scenario.digest in
  check Alcotest.string "CPU-bound unperturbed"
    "a86bcccb12c0d0914f98a56d5ebabb54" (digest cpu.Gate.unperturbed);
  List.iter
    (fun (plant, expected) ->
      let _, _, r =
        List.find (fun (p, _, _) -> p = plant) cpu.Gate.planted
      in
      check Alcotest.string
        ("CPU-bound, plant " ^ Machine.asymmetry_name plant)
        expected (digest r))
    [ (Machine.Next_rip_skew, "1ffa82d6a7ef1897424ee64af0d8633d");
      (Machine.Cpuid_ecx_flip, "65949ef097a8f746d8122f470f638455");
      (Machine.Rflags_cf_flip, "036515c937c7128b31ab323c9a003573");
      (Machine.Reject_asid, "c208ef96ff9e37828e21990a3a4c9457") ];
  check Alcotest.string "OS BOOT unperturbed"
    "9b92ea8bc6827f44a38e6a30da2b1c9c"
    (digest (Lazy.force os_boot_facts).Gate.unperturbed)

let test_os_boot_mode_changes_survive () =
  (* The §VI-B regression: OS boot changes CPU mode mid-trace, so any
     per-case anchoring at S_0 manufactures "invalid guest state"
     crash-on-one false positives.  The walk must not. *)
  let r = (Lazy.force os_boot_facts).Gate.unperturbed in
  check Alcotest.bool "some cases comparable" true (r.Dc.comparable > 0)

let () =
  Alcotest.run "iris_differential"
    [ ( "normalize",
        [ Alcotest.test_case "comparable cpuid" `Quick
            test_classify_comparable;
          Alcotest.test_case "dropped field lossy" `Quick
            test_classify_dropped_is_lossy;
          Alcotest.test_case "unmodeled family lossy" `Quick
            test_classify_unmodeled_family_is_lossy;
          Alcotest.test_case "inconsistent duplicate lossy" `Quick
            test_classify_inconsistent_duplicate_is_lossy;
          Alcotest.test_case "consistent duplicate ok" `Quick
            test_classify_consistent_duplicate_ok;
          Alcotest.test_case "first difference" `Quick test_first_difference;
          Alcotest.test_case "component mask" `Quick test_component_mask ] );
      ( "oracle",
        [ Alcotest.test_case "classify pair" `Quick test_classify_pair;
          Alcotest.test_case "svm self-agreement" `Quick
            test_svm_agrees_with_itself;
          Alcotest.test_case "planted cpuid flip" `Quick
            test_planted_cpuid_flip_detected ] );
      ( "sweep",
        [ Alcotest.test_case "unperturbed zero findings" `Slow
            test_unperturbed_sweep_zero_findings;
          Alcotest.test_case "plants match ground truth" `Slow
            test_planted_sweep_matches_ground_truth;
          Alcotest.test_case "report digests pinned" `Slow
            test_report_digests_pinned;
          Alcotest.test_case "os-boot mode changes" `Slow
            test_os_boot_mode_changes_survive ] ) ]
