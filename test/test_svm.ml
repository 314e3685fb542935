(* Tests for the SVM portability layer (paper §IX): the VMCB model,
   exit-code mapping, and VT-x seed translation. *)

module Vmcb = Iris_svm.Vmcb
module Exitcode = Iris_svm.Exitcode
module Port = Iris_svm.Port
module F = Iris_vmcs.Field
module R = Iris_vtx.Exit_reason
module W = Iris_guest.Workload
open Iris_x86

let check = Alcotest.check

(* --- Vmcb --- *)

let test_vmcb_offsets_unique () =
  let tbl = Hashtbl.create 128 in
  Array.iter
    (fun f ->
      let o = Vmcb.offset f in
      check Alcotest.bool "no duplicate offset" false (Hashtbl.mem tbl o);
      Hashtbl.replace tbl o ())
    Vmcb.all

let test_vmcb_layout () =
  (* Spot-check APM Appendix B offsets. *)
  check Alcotest.int "EXITCODE" 0x070 (Vmcb.offset Vmcb.exitcode);
  check Alcotest.int "EXITINFO1" 0x078 (Vmcb.offset Vmcb.exitinfo1);
  check Alcotest.int "RIP" 0x578 (Vmcb.offset Vmcb.save_rip);
  check Alcotest.int "RAX" 0x5F8 (Vmcb.offset Vmcb.save_rax);
  check Alcotest.int "CR0" 0x558 (Vmcb.offset Vmcb.save_cr0);
  (* Save area starts at 0x400. *)
  Array.iter
    (fun f ->
      match Vmcb.area f with
      | Vmcb.Control ->
          check Alcotest.bool "control below 0x400" true (Vmcb.offset f < 0x400)
      | Vmcb.Save ->
          check Alcotest.bool "save at/after 0x400" true
            (Vmcb.offset f >= 0x400))
    Vmcb.all

let test_vmcb_plain_stores () =
  let v = Vmcb.create () in
  (* Unlike the VMCS, even exit information is writable memory. *)
  Vmcb.write v Vmcb.exitcode 0x72L;
  check Alcotest.int64 "exitcode stored" 0x72L (Vmcb.read v Vmcb.exitcode);
  Vmcb.write v Vmcb.save_rax 0xABCL;
  let w = Vmcb.copy v in
  Vmcb.write v Vmcb.save_rax 0L;
  check Alcotest.int64 "copy is deep" 0xABCL (Vmcb.read w Vmcb.save_rax);
  check Alcotest.bool "of_offset roundtrip" true
    (Vmcb.of_offset 0x070 = Some Vmcb.exitcode)

let valid_vmcb () =
  let v = Vmcb.create () in
  Vmcb.write v Vmcb.save_cr0 Cr0.reset_value;
  Vmcb.write v Vmcb.save_rflags Rflags.reset_value;
  Vmcb.write v Vmcb.guest_asid 1L;
  Vmcb.write v Vmcb.intercept_misc2 1L (* VMRUN intercepted *);
  v

let test_vmrun_checks () =
  (match Vmcb.vmrun_valid (valid_vmcb ()) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let bad_asid = valid_vmcb () in
  Vmcb.write bad_asid Vmcb.guest_asid 0L;
  check Alcotest.bool "ASID 0 rejected" true
    (Vmcb.vmrun_valid bad_asid = Error "ASID 0 is reserved for the host");
  let bad_cr0 = valid_vmcb () in
  Vmcb.write bad_cr0 Vmcb.save_cr0 (Cr0.set 0L Cr0.PG);
  check Alcotest.bool "CR0 PG without PE rejected" true
    (Vmcb.vmrun_valid bad_cr0 <> Ok ());
  let no_vmrun = valid_vmcb () in
  Vmcb.write no_vmrun Vmcb.intercept_misc2 0L;
  check Alcotest.bool "VMRUN intercept required" true
    (Vmcb.vmrun_valid no_vmrun <> Ok ());
  let bad_lma = valid_vmcb () in
  Vmcb.write bad_lma Vmcb.save_efer Msr.efer_lma;
  check Alcotest.bool "LMA without PG/PAE rejected" true
    (Vmcb.vmrun_valid bad_lma <> Ok ())

(* --- Exitcode --- *)

let test_exitcode_roundtrip () =
  List.iter
    (fun t ->
      check Alcotest.bool (Exitcode.name t) true
        (Exitcode.of_code (Exitcode.code t) = Some t))
    [ Exitcode.Vmexit_cr_read 0; Exitcode.Vmexit_cr_write 4;
      Exitcode.Vmexit_excp 14; Exitcode.Vmexit_intr; Exitcode.Vmexit_cpuid;
      Exitcode.Vmexit_hlt; Exitcode.Vmexit_ioio; Exitcode.Vmexit_msr;
      Exitcode.Vmexit_npf; Exitcode.Vmexit_vmmcall; Exitcode.Vmexit_rdtsc;
      Exitcode.Vmexit_shutdown; Exitcode.Vmexit_invalid ]

let test_exitcode_known_values () =
  check Alcotest.int64 "CPUID is 0x72" 0x72L
    (Exitcode.code Exitcode.Vmexit_cpuid);
  check Alcotest.int64 "NPF is 0x400" 0x400L
    (Exitcode.code Exitcode.Vmexit_npf);
  check Alcotest.int64 "INVALID is -1" (-1L)
    (Exitcode.code Exitcode.Vmexit_invalid)

let test_vtx_mapping_core_reasons () =
  (* Every exit reason the model's workloads produce must port. *)
  List.iter
    (fun r ->
      check Alcotest.bool (R.name r) true (Exitcode.of_vtx r <> None))
    [ R.Cpuid; R.Hlt; R.Rdtsc; R.Rdtscp; R.Vmcall; R.Cr_access;
      R.Io_instruction; R.Rdmsr; R.Wrmsr; R.Ept_violation;
      R.External_interrupt; R.Interrupt_window; R.Triple_fault;
      R.Exception_or_nmi; R.Xsetbv; R.Wbinvd ]

let test_vtx_mapping_vtx_only () =
  (* The preemption timer — the IRIS replay trigger — is VT-x-only:
     the part a port must re-engineer. *)
  check Alcotest.bool "preemption timer has no SVM counterpart" true
    (Exitcode.of_vtx R.Preemption_timer = None)

let test_mapping_round_trips_loosely () =
  (* to_vtx (of_vtx r) returns a reason of the same handler family. *)
  List.iter
    (fun r ->
      match Exitcode.of_vtx r with
      | None -> ()
      | Some code -> (
          match Exitcode.to_vtx code with
          | None -> Alcotest.fail (R.name r ^ ": not mapped back")
          | Some r' ->
              let family x =
                match x with
                | R.Rdmsr | R.Wrmsr -> "msr"
                | R.Ept_violation | R.Ept_misconfiguration -> "npf"
                | x -> R.name x
              in
              check Alcotest.string (R.name r) (family r) (family r')))
    [ R.Cpuid; R.Hlt; R.Rdtsc; R.Vmcall; R.Io_instruction; R.Rdmsr;
      R.Wrmsr; R.Ept_violation; R.External_interrupt; R.Triple_fault ]

(* --- Port --- *)

let sample_seed () =
  { Iris_core.Seed.index = 0;
    reason = R.Cr_access;
    gprs =
      Array.to_list
        (Array.map (fun r -> (r, Int64.of_int (Gpr.encode r + 100))) Gpr.all);
    reads =
      [ (F.vm_exit_reason, 28L); (F.exit_qualification, 0x10L);
        (F.guest_cr0, 0x11L); (F.cr0_read_shadow, 0x10L);
        (F.guest_rip, 0x1000L) ];
    writes = [] }

let test_translate_moves_rax () =
  let t = Port.translate (sample_seed ()) in
  check Alcotest.int64 "rax extracted" 100L t.Port.rax;
  check Alcotest.int "14 remaining GPRs" 14 (List.length t.Port.gprs);
  check Alcotest.bool "rax not in gpr list" false
    (List.mem_assoc Gpr.Rax t.Port.gprs)

let test_translate_field_mapping () =
  let t = Port.translate (sample_seed ()) in
  (* guest_rip -> save.rip; exit info -> exitcode/exitinfo1. *)
  let has field value =
    List.exists
      (fun w -> w.Port.field = field && w.Port.value = value)
      t.Port.writes
  in
  check Alcotest.bool "rip mapped" true (has Vmcb.save_rip 0x1000L);
  check Alcotest.bool "qualification -> exitinfo1" true
    (has Vmcb.exitinfo1 0x10L);
  check Alcotest.bool "reason -> exitcode" true (has Vmcb.exitcode 28L);
  (* CR0 read shadow is a VT-x mechanism: dropped with a reason. *)
  check Alcotest.bool "read shadow dropped" true
    (List.exists
       (fun d -> d.Port.vmcs_field = F.cr0_read_shadow)
       t.Port.dropped);
  check Alcotest.bool "exitcode mapped" true
    (t.Port.exitcode <> None)

let test_apply_writes_vmcb () =
  let t = Port.translate (sample_seed ()) in
  let vmcb = Vmcb.create () in
  Port.apply vmcb t;
  check Alcotest.int64 "rip landed" 0x1000L (Vmcb.read vmcb Vmcb.save_rip);
  check Alcotest.int64 "rax landed in save area" 100L
    (Vmcb.read vmcb Vmcb.save_rax);
  (* The translated exit code overrides the raw VT-x reason number. *)
  check Alcotest.int64 "exitcode is the SVM CR-write code" 0x10L
    (Vmcb.read vmcb Vmcb.exitcode)

let cpu_bound_trace =
  lazy
    (let mgr = Iris_core.Manager.create ~boot_scale:0.02 ~prng_seed:8 () in
     (Iris_core.Manager.record mgr W.Cpu_bound ~exits:600)
       .Iris_core.Manager.trace)

let test_trace_portability_headline () =
  let pct = Port.coverage_pct (Lazy.force cpu_bound_trace) in
  check Alcotest.bool
    (Printf.sprintf "most records translate (%.1f%%)" pct)
    true (pct > 80.0)

(* The census counts every record [translate] drops, once per field,
   most-dropped first. *)
let test_dropped_field_census () =
  let trace = Lazy.force cpu_bound_trace in
  let census = Port.dropped_fields trace in
  let dropped =
    Array.fold_left
      (fun n s -> n + List.length (Port.translate s).Port.dropped)
      0 trace.Iris_core.Trace.seeds
  in
  check Alcotest.bool "the trace drops records" true (dropped > 0);
  check Alcotest.int "counts sum to the dropped records" dropped
    (List.fold_left (fun n (_, c) -> n + c) 0 census);
  let counts = List.map snd census in
  check Alcotest.(list int) "most-dropped first"
    (List.sort (fun a b -> compare b a) counts)
    counts;
  check Alcotest.int "one row per field" (List.length census)
    (List.length (List.sort_uniq compare (List.map fst census)))

(* --- Machine --- *)

module Machine = Iris_svm.Machine

let cpuid_translated ?(leaf = 1L) () =
  Port.translate
    { Iris_core.Seed.index = 0;
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

let test_machine_boot_valid () =
  let m = Machine.boot () in
  check Alcotest.bool "not crashed" true (Machine.crashed m = None);
  check Alcotest.bool "not blocked" false (Machine.blocked m);
  (* Reset state: real-mode entry point, SVME on. *)
  check Alcotest.int64 "reset RIP" 0xFFF0L
    (Machine.read_field m Vmcb.save_rip)

let test_machine_cpuid_advances_rip () =
  let m = Machine.boot () in
  (match Machine.vmrun m (cpuid_translated ()) with
  | Machine.Ran -> ()
  | Machine.Crashed msg -> Alcotest.fail msg);
  (* NEXT_RIP decode assist: RIP lands past the 2-byte CPUID. *)
  check Alcotest.int64 "rip advanced" 0x1002L
    (Machine.read_field m Vmcb.save_rip);
  check Alcotest.bool "cpuid handler ran" true
    (List.mem Iris_coverage.Component.Cpuid_c (Machine.touched_components m));
  (* Leaf 1 ECX carries the hypervisor-present bit the VT-x handler
     sets (bit 31). *)
  check Alcotest.bool "hypervisor bit" true
    (Int64.logand (Machine.get_gpr m Gpr.Rcx) 0x80000000L <> 0L)

let test_machine_reset_restores_boot () =
  let m = Machine.boot () in
  ignore (Machine.vmrun m (cpuid_translated ()) : Machine.outcome);
  Machine.reset m;
  check Alcotest.int64 "rip back at reset" 0xFFF0L
    (Machine.read_field m Vmcb.save_rip);
  check Alcotest.int64 "rcx cleared" 0L (Machine.get_gpr m Gpr.Rcx);
  check Alcotest.bool "components cleared" true
    (Machine.touched_components m = [])

let test_machine_planted_asymmetries () =
  (* next-rip-skew: RIP off by one. *)
  let skew = Machine.boot ~plant:Machine.Next_rip_skew () in
  ignore (Machine.vmrun skew (cpuid_translated ()) : Machine.outcome);
  check Alcotest.int64 "skewed rip" 0x1003L
    (Machine.read_field skew Vmcb.save_rip);
  (* cpuid-ecx-flip: ECX bit 0 flipped vs the clean machine. *)
  let clean = Machine.boot () in
  ignore (Machine.vmrun clean (cpuid_translated ()) : Machine.outcome);
  let flip = Machine.boot ~plant:Machine.Cpuid_ecx_flip () in
  ignore (Machine.vmrun flip (cpuid_translated ()) : Machine.outcome);
  check Alcotest.int64 "ecx xor 1"
    (Int64.logxor (Machine.get_gpr clean Gpr.Rcx) 1L)
    (Machine.get_gpr flip Gpr.Rcx);
  (* reject-asid: every VMRUN fails the consistency checks. *)
  let rej = Machine.boot ~plant:Machine.Reject_asid () in
  match Machine.vmrun rej (cpuid_translated ()) with
  | Machine.Crashed _ -> ()
  | Machine.Ran -> Alcotest.fail "ASID 0 must be VMEXIT_INVALID"

let test_machine_crash_is_sticky () =
  let m = Machine.boot ~plant:Machine.Reject_asid () in
  ignore (Machine.vmrun m (cpuid_translated ()) : Machine.outcome);
  check Alcotest.bool "crashed recorded" true (Machine.crashed m <> None);
  (match Machine.vmrun m (cpuid_translated ()) with
  | Machine.Crashed _ -> ()
  | Machine.Ran -> Alcotest.fail "crashed machine must stay crashed");
  Machine.reset m;
  check Alcotest.bool "reset clears crash" true (Machine.crashed m = None)

let test_machine_asymmetry_names_roundtrip () =
  List.iter
    (fun a ->
      check Alcotest.bool (Machine.asymmetry_name a) true
        (Machine.asymmetry_of_name (Machine.asymmetry_name a) = Some a))
    Machine.all_asymmetries;
  check Alcotest.bool "unknown name" true
    (Machine.asymmetry_of_name "no-such-plant" = None)

(* --- properties --- *)

let arb_vmcb_field =
  QCheck.make ~print:Vmcb.name
    (QCheck.Gen.map (fun i -> Vmcb.all.(i))
       (QCheck.Gen.int_bound (Vmcb.count - 1)))

let prop_vmcb_write_read_roundtrip =
  (* Unlike the VMCS, every VMCB field is plain writable memory. *)
  QCheck.Test.make ~name:"vmcb write/read roundtrips" ~count:500
    QCheck.(pair arb_vmcb_field int64)
    (fun (f, v) ->
      let vmcb = Vmcb.create () in
      Vmcb.write vmcb f v;
      Vmcb.read vmcb f = v)

let prop_vmcb_offset_roundtrip =
  QCheck.Test.make ~name:"vmcb offset/of_offset roundtrips" ~count:200
    arb_vmcb_field
    (fun f -> Vmcb.of_offset (Vmcb.offset f) = Some f)

let prop_vmcb_rewind_restores =
  QCheck.Test.make ~name:"vmcb checkpoint/rewind restores" ~count:200
    QCheck.(pair arb_vmcb_field int64)
    (fun (f, v) ->
      let vmcb = Vmcb.create () in
      Vmcb.write vmcb f 0x1234L;
      let cp = Vmcb.checkpoint vmcb in
      Vmcb.write vmcb f v;
      ignore (Vmcb.rewind vmcb cp : int);
      Vmcb.read vmcb f = 0x1234L)

let arb_exitcode =
  let codes =
    [ Exitcode.Vmexit_intr; Exitcode.Vmexit_nmi; Exitcode.Vmexit_cpuid;
      Exitcode.Vmexit_hlt; Exitcode.Vmexit_ioio; Exitcode.Vmexit_msr;
      Exitcode.Vmexit_npf; Exitcode.Vmexit_vmmcall; Exitcode.Vmexit_rdtsc;
      Exitcode.Vmexit_rdtscp; Exitcode.Vmexit_shutdown;
      Exitcode.Vmexit_xsetbv; Exitcode.Vmexit_invalid ]
  in
  QCheck.make ~print:Exitcode.name
    QCheck.Gen.(
      frequency
        [ (2, map (fun c -> Exitcode.Vmexit_cr_read (c mod 16)) small_nat);
          (2, map (fun c -> Exitcode.Vmexit_cr_write (c mod 16)) small_nat);
          (2, map (fun v -> Exitcode.Vmexit_excp (v mod 32)) small_nat);
          (6, oneofl codes) ])

let prop_exitcode_roundtrip =
  QCheck.Test.make ~name:"exitcode code/of_code roundtrips" ~count:300
    arb_exitcode
    (fun t -> Exitcode.of_code (Exitcode.code t) = Some t)

(* Seeds made of arbitrary recorded fields: the translate partition
   property must hold for *any* seed, not just workload output. *)
let arb_port_seed =
  let field_gen =
    QCheck.Gen.map
      (fun i -> F.all.(i))
      (QCheck.Gen.int_bound (F.count - 1))
  in
  let reads_gen =
    QCheck.Gen.(list_size (int_range 0 12) (pair field_gen int64))
  in
  let print s =
    String.concat ","
      (List.map (fun (f, v) -> Printf.sprintf "%s=%Lx" (F.name f) v)
         s.Iris_core.Seed.reads)
  in
  QCheck.make ~print
    (QCheck.Gen.map
       (fun reads ->
         { Iris_core.Seed.index = 0;
           reason = R.Cpuid;
           gprs = Array.to_list (Array.map (fun r -> (r, 0L)) Gpr.all);
           reads;
           writes = [] })
       reads_gen)

let prop_translate_partitions_reads =
  (* Every recorded read lands exactly once: as a VMCB write (its
     field maps, or it is the instruction length feeding the computed
     NEXT_RIP mapping) or as a dropped entry with a reason. *)
  QCheck.Test.make ~name:"translate partitions reads exactly" ~count:500
    arb_port_seed
    (fun s ->
      let t = Port.translate s in
      List.length t.Port.writes + List.length t.Port.dropped
      = List.length s.Iris_core.Seed.reads
      && List.for_all
           (fun (f, _) ->
             let dropped =
               List.exists (fun d -> d.Port.vmcs_field = f) t.Port.dropped
             in
             if f = F.vm_exit_instruction_len then
               dropped
               || List.exists
                    (fun w -> w.Port.field = Vmcb.next_rip)
                    t.Port.writes
             else
               match Port.map_field f with
               | Some slot ->
                   List.exists (fun w -> w.Port.field = slot) t.Port.writes
               | None -> dropped)
           s.Iris_core.Seed.reads)

let prop_map_field_offsets_roundtrip =
  (* Every translatable VMCS field maps to a real VMCB slot whose
     APM offset resolves back to the same slot. *)
  QCheck.Test.make ~name:"map_field targets roundtrip via offsets"
    ~count:300
    (QCheck.make ~print:F.name
       (QCheck.Gen.map
          (fun i -> F.all.(i))
          (QCheck.Gen.int_bound (F.count - 1))))
    (fun f ->
      match Port.map_field f with
      | None -> true
      | Some slot -> Vmcb.of_offset (Vmcb.offset slot) = Some slot)

let prop_translate_deterministic =
  QCheck.Test.make ~name:"translate deterministic" ~count:200 arb_port_seed
    (fun s -> Port.translate s = Port.translate s)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "iris_svm"
    [ ( "vmcb",
        [ Alcotest.test_case "offsets unique" `Quick
            test_vmcb_offsets_unique;
          Alcotest.test_case "layout" `Quick test_vmcb_layout;
          Alcotest.test_case "plain stores" `Quick test_vmcb_plain_stores;
          Alcotest.test_case "vmrun checks" `Quick test_vmrun_checks ] );
      ( "exitcode",
        [ Alcotest.test_case "roundtrip" `Quick test_exitcode_roundtrip;
          Alcotest.test_case "known values" `Quick
            test_exitcode_known_values;
          Alcotest.test_case "core reasons port" `Quick
            test_vtx_mapping_core_reasons;
          Alcotest.test_case "vtx-only reasons" `Quick
            test_vtx_mapping_vtx_only;
          Alcotest.test_case "loose roundtrip" `Quick
            test_mapping_round_trips_loosely ] );
      ( "port",
        [ Alcotest.test_case "rax relocation" `Quick test_translate_moves_rax;
          Alcotest.test_case "field mapping" `Quick
            test_translate_field_mapping;
          Alcotest.test_case "apply" `Quick test_apply_writes_vmcb;
          Alcotest.test_case "trace portability" `Slow
            test_trace_portability_headline;
          Alcotest.test_case "dropped-field census" `Slow
            test_dropped_field_census ] );
      ( "machine",
        [ Alcotest.test_case "boot valid" `Quick test_machine_boot_valid;
          Alcotest.test_case "cpuid advances rip" `Quick
            test_machine_cpuid_advances_rip;
          Alcotest.test_case "reset restores boot" `Quick
            test_machine_reset_restores_boot;
          Alcotest.test_case "planted asymmetries" `Quick
            test_machine_planted_asymmetries;
          Alcotest.test_case "crash sticky" `Quick
            test_machine_crash_is_sticky;
          Alcotest.test_case "asymmetry names" `Quick
            test_machine_asymmetry_names_roundtrip ] );
      ( "properties",
        qcheck
          [ prop_vmcb_write_read_roundtrip; prop_vmcb_offset_roundtrip;
            prop_vmcb_rewind_restores; prop_exitcode_roundtrip;
            prop_translate_partitions_reads; prop_map_field_offsets_roundtrip;
            prop_translate_deterministic ] ) ]
