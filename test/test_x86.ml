(* Tests for the x86 machine model: registers, control-register flag
   algebra, the Fig. 8 operating-mode lattice, segments, MSRs, CPUID
   and exception escalation. *)

open Iris_x86

let check = Alcotest.check

(* --- Gpr --- *)

let test_gpr_encoding_roundtrip () =
  Array.iter
    (fun r ->
      check Alcotest.bool "decode (encode r) = r" true
        (Gpr.decode (Gpr.encode r) = Some r))
    Gpr.all

let test_gpr_count_is_15 () =
  (* The paper's seed format: "the encoding (1 byte) of GPR (15
     values)" — RSP lives in the VMCS, not the register file. *)
  check Alcotest.int "15 registers" 15 Gpr.count;
  check Alcotest.bool "encodings dense" true
    (List.sort compare (Array.to_list (Array.map Gpr.encode Gpr.all))
    = List.init 15 (fun i -> i));
  check Alcotest.bool "16th encoding invalid" true (Gpr.decode 15 = None)

let test_gpr_file_ops () =
  let f = Gpr.create () in
  check Alcotest.int64 "starts zero" 0L (Gpr.get f Gpr.R11);
  Gpr.set f Gpr.Rax 0xDEADL;
  check Alcotest.int64 "set/get" 0xDEADL (Gpr.get f Gpr.Rax);
  let g = Gpr.copy f in
  Gpr.set f Gpr.Rax 1L;
  check Alcotest.int64 "copy is deep" 0xDEADL (Gpr.get g Gpr.Rax);
  Gpr.copy_into ~src:g ~dst:f;
  check Alcotest.bool "copy_into restores equality" true (Gpr.equal f g)

(* --- Cr0 --- *)

let test_cr0_flags () =
  let v = Cr0.set 0L Cr0.PE in
  check Alcotest.bool "PE set" true (Cr0.test v Cr0.PE);
  check Alcotest.bool "PG clear" false (Cr0.test v Cr0.PG);
  check Alcotest.int64 "PE is bit 0" 1L v;
  check Alcotest.int64 "PG is bit 31" 0x80000000L (Cr0.set 0L Cr0.PG)

let test_cr0_reset_value () =
  (* 0x60000010: CD | NW | ET after reset. *)
  check Alcotest.bool "CD set at reset" true
    (Cr0.test Cr0.reset_value Cr0.CD);
  check Alcotest.bool "NW set at reset" true
    (Cr0.test Cr0.reset_value Cr0.NW);
  check Alcotest.bool "ET set at reset" true
    (Cr0.test Cr0.reset_value Cr0.ET);
  check Alcotest.bool "PE clear at reset" false
    (Cr0.test Cr0.reset_value Cr0.PE)

let test_cr0_validity () =
  check Alcotest.bool "reset value valid" true (Cr0.valid Cr0.reset_value);
  check Alcotest.bool "PG without PE invalid" false
    (Cr0.valid (Cr0.set 0L Cr0.PG));
  check Alcotest.bool "PG with PE valid" true
    (Cr0.valid (Cr0.set (Cr0.set 0L Cr0.PE) Cr0.PG));
  check Alcotest.bool "NW without CD invalid" false
    (Cr0.valid (Cr0.set 0L Cr0.NW))

(* --- Cr4 --- *)

let test_cr4_validity () =
  check Alcotest.bool "zero valid" true (Cr4.valid 0L);
  check Alcotest.bool "PAE valid" true (Cr4.valid (Cr4.set 0L Cr4.PAE));
  check Alcotest.bool "reserved bit invalid" false
    (Cr4.valid (Int64.shift_left 1L 25));
  check Alcotest.bool "PCIDE without PAE invalid" false
    (Cr4.valid (Cr4.set 0L Cr4.PCIDE));
  check Alcotest.bool "PCIDE with PAE valid" true
    (Cr4.valid (Cr4.set (Cr4.set 0L Cr4.PAE) Cr4.PCIDE))

(* --- Cpu_mode (Fig. 8 lattice) --- *)

let test_mode_real () =
  check Alcotest.int "reset is Mode1" 1
    (Cpu_mode.to_int (Cpu_mode.of_cr0 Cr0.reset_value))

let test_mode_ladder () =
  (* The boot sequence used by Os_boot: each CR0 write lands on the
     expected rung. *)
  let m v = Cpu_mode.to_int (Cpu_mode.of_cr0 v) in
  check Alcotest.int "PE -> Mode2" 2 (m 0x60000011L);
  check Alcotest.int "PE|PG (no AM) -> Mode3" 3 (m 0xE0000011L);
  check Alcotest.int "+AM, CD still on -> Mode4" 4 (m 0xE0050013L);
  check Alcotest.int "+TS with CD -> Mode7" 7 (m 0xE005001BL);
  check Alcotest.int "caches on, no TS -> Mode6" 6 (m 0x80050013L);
  check Alcotest.int "TS with caches on -> Mode5" 5 (m 0x8005001BL)

let test_mode_int_roundtrip () =
  for i = 1 to 7 do
    match Cpu_mode.of_int i with
    | Some m -> check Alcotest.int "roundtrip" i (Cpu_mode.to_int m)
    | None -> Alcotest.fail "of_int failed"
  done;
  check Alcotest.bool "0 invalid" true (Cpu_mode.of_int 0 = None);
  check Alcotest.bool "8 invalid" true (Cpu_mode.of_int 8 = None)

(* --- Rflags --- *)

let test_rflags_canonical () =
  check Alcotest.int64 "bit1 forced" 0x2L (Rflags.canonical 0L);
  check Alcotest.bool "reserved cleared" true
    (Rflags.canonical 0xFFFFFFFF_00000000L = 0x2L)

let test_rflags_entry_valid () =
  check Alcotest.bool "reset valid" true (Rflags.entry_valid Rflags.reset_value);
  check Alcotest.bool "bit1 clear invalid" false (Rflags.entry_valid 0x200L);
  check Alcotest.bool "reserved set invalid" false
    (Rflags.entry_valid 0x8002L);
  check Alcotest.bool "IF set valid" true
    (Rflags.entry_valid (Rflags.set Rflags.reset_value Rflags.IF))

(* --- Segment --- *)

let test_segment_ar_fields () =
  let ar =
    Segment.make_ar ~typ:0xB ~s:true ~dpl:3 ~present:true ~db:true
      ~granularity:true ()
  in
  let s = { Segment.selector = 0x08; base = 0L; limit = 0xFFFFFFFFL; ar } in
  check Alcotest.int "type" 0xB (Segment.ar_type s);
  check Alcotest.bool "s" true (Segment.ar_s s);
  check Alcotest.int "dpl" 3 (Segment.ar_dpl s);
  check Alcotest.bool "present" true (Segment.ar_present s);
  check Alcotest.bool "db" true (Segment.ar_db s);
  check Alcotest.bool "granularity" true (Segment.ar_granularity s);
  check Alcotest.bool "usable" false (Segment.unusable s)

let test_segment_entry_checks () =
  check Alcotest.bool "flat code valid CS" true
    (Segment.entry_valid_cs Segment.flat_code32);
  check Alcotest.bool "data segment not a CS" false
    (Segment.entry_valid_cs Segment.flat_data32);
  check Alcotest.bool "unusable not a CS" false
    (Segment.entry_valid_cs Segment.null_unusable);
  check Alcotest.bool "initial TR valid" true
    (Segment.entry_valid_tr Segment.initial_tr);
  check Alcotest.bool "code segment not a TR" false
    (Segment.entry_valid_tr Segment.flat_code32)

let test_segment_real_mode () =
  let cs = Segment.real_mode Segment.Cs in
  check Alcotest.int64 "real-mode limit 64K" 0xFFFFL cs.Segment.limit;
  check Alcotest.bool "real-mode CS is code" true (Segment.entry_valid_cs cs)

(* --- Msr --- *)

let test_msr_raw_roundtrip () =
  List.iter
    (fun m ->
      check Alcotest.bool "of_raw (to_raw m) = m" true
        (Msr.of_raw (Msr.to_raw m) = Some m))
    Msr.all

let test_msr_unknown () =
  check Alcotest.bool "0x12345 unknown" true (Msr.of_raw 0x12345L = None)

let test_msr_file () =
  let f = Msr.create_file () in
  check Alcotest.int64 "APIC base reset" 0xFEE00900L
    (Msr.read f Msr.Ia32_apic_base);
  Msr.write f Msr.Ia32_lstar 0xFFL;
  check Alcotest.int64 "write/read" 0xFFL (Msr.read f Msr.Ia32_lstar);
  let g = Msr.copy_file f in
  Msr.write f Msr.Ia32_lstar 0x1L;
  check Alcotest.int64 "copy is deep" 0xFFL (Msr.read g Msr.Ia32_lstar);
  (* Every index owns its own register. *)
  List.iteri (fun n m -> Msr.write f m (Int64.of_int (100 + n))) Msr.all;
  List.iteri
    (fun n m ->
      check Alcotest.int64 (Msr.name m) (Int64.of_int (100 + n)) (Msr.read f m))
    Msr.all;
  Msr.copy_into ~src:f ~dst:g;
  check Alcotest.bool "copy_into copies all" true (Msr.equal_file f g)

let test_msr_writability () =
  check Alcotest.bool "MTRR cap read-only" false (Msr.writable Msr.Ia32_mtrr_cap);
  check Alcotest.bool "EFER writable" true (Msr.writable Msr.Ia32_efer)

let test_efer_validity () =
  check Alcotest.bool "zero valid" true (Msr.efer_valid 0L);
  check Alcotest.bool "LME|SCE valid" true
    (Msr.efer_valid (Int64.logor Msr.efer_lme Msr.efer_sce));
  check Alcotest.bool "reserved invalid" false (Msr.efer_valid 0x2L)

(* --- Cpuid_db --- *)

let test_cpuid_vendor () =
  let r = Cpuid_db.query ~leaf:0L ~subleaf:0L in
  check Alcotest.int64 "max basic leaf" Cpuid_db.max_basic_leaf r.Cpuid_db.eax;
  (* ebx/edx/ecx spell "GenuineIntel". *)
  let unpack v =
    String.init 4 (fun i ->
        Char.chr
          (Int64.to_int
             (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL)))
  in
  check Alcotest.string "vendor" "GenuineIntel"
    (unpack r.Cpuid_db.ebx ^ unpack r.Cpuid_db.edx ^ unpack r.Cpuid_db.ecx)

let test_cpuid_features () =
  let r = Cpuid_db.query ~leaf:1L ~subleaf:0L in
  check Alcotest.bool "VMX bit present on host" true
    (Int64.logand r.Cpuid_db.ecx Cpuid_db.feature_ecx_vmx <> 0L);
  check Alcotest.bool "TSC present" true
    (Int64.logand r.Cpuid_db.edx Cpuid_db.feature_edx_tsc <> 0L)

let test_cpuid_subleaf_sensitivity () =
  let a = Cpuid_db.query ~leaf:4L ~subleaf:0L in
  let b = Cpuid_db.query ~leaf:4L ~subleaf:1L in
  check Alcotest.bool "cache levels differ" true (a <> b)

(* --- Exn --- *)

let test_exn_vector_roundtrip () =
  List.iter
    (fun v ->
      match Exn.of_vector v with
      | Some e -> check Alcotest.int "vector roundtrip" v (Exn.vector e)
      | None -> ())
    (List.init 21 (fun i -> i))

let test_exn_error_codes () =
  check Alcotest.bool "#GP has error code" true (Exn.has_error_code Exn.GP);
  check Alcotest.bool "#PF has error code" true (Exn.has_error_code Exn.PF);
  check Alcotest.bool "#UD has no error code" false (Exn.has_error_code Exn.UD)

let test_exn_escalation () =
  check Alcotest.bool "fresh fault delivers" true
    (Exn.escalate ~current:None Exn.GP = `Deliver Exn.GP);
  check Alcotest.bool "GP during GP doubles" true
    (Exn.escalate ~current:(Some Exn.GP) Exn.GP = `Double);
  check Alcotest.bool "PF during GP doubles" true
    (Exn.escalate ~current:(Some Exn.GP) Exn.PF = `Double);
  check Alcotest.bool "fault during DF triples" true
    (Exn.escalate ~current:(Some Exn.DF) Exn.GP = `Triple);
  check Alcotest.bool "UD during GP delivers (benign)" true
    (Exn.escalate ~current:(Some Exn.GP) Exn.UD = `Deliver Exn.UD)

(* --- Insn --- *)

let test_insn_costs_positive () =
  let samples =
    [ Insn.Rdtsc; Insn.Hlt; Insn.Cpuid { leaf = 0L; subleaf = 0L };
      Insn.Compute 5; Insn.Wbinvd;
      Insn.Out { port = 0x80; width = Insn.Io8; value = 0L } ]
  in
  List.iter
    (fun i ->
      check Alcotest.bool (Insn.mnemonic i ^ " cost > 0") true
        (Insn.base_cycles i > 0))
    samples;
  check Alcotest.int "compute cost is n" 5 (Insn.base_cycles (Insn.Compute 5))

let test_insn_cr_numbers () =
  check Alcotest.bool "cr0" true (Insn.cr_of_number 0 = Some Insn.Creg0);
  check Alcotest.bool "cr3" true (Insn.cr_of_number 3 = Some Insn.Creg3);
  check Alcotest.bool "cr5 invalid" true (Insn.cr_of_number 5 = None);
  check Alcotest.int "io widths" 4 (Insn.io_bytes Insn.Io32)

(* --- properties --- *)

let prop_cr0_set_test =
  QCheck.Test.make ~name:"cr0 set then test" ~count:200
    QCheck.(pair int64 (int_range 0 10))
    (fun (v, i) ->
      let f = List.nth Cr0.all_flags i in
      Cr0.test (Cr0.set v f) f && not (Cr0.test (Cr0.clear v f) f))

let prop_mode_total =
  QCheck.Test.make ~name:"every CR0 classifies to a mode 1..7" ~count:500
    QCheck.int64
    (fun v ->
      let m = Cpu_mode.to_int (Cpu_mode.of_cr0 v) in
      m >= 1 && m <= 7)

let prop_rflags_canonical_idempotent =
  QCheck.Test.make ~name:"rflags canonical idempotent + entry-valid"
    ~count:500 QCheck.int64
    (fun v ->
      let c = Rflags.canonical v in
      Rflags.canonical c = c && Rflags.entry_valid c)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "iris_x86"
    [ ( "gpr",
        [ Alcotest.test_case "encoding roundtrip" `Quick
            test_gpr_encoding_roundtrip;
          Alcotest.test_case "15 registers" `Quick test_gpr_count_is_15;
          Alcotest.test_case "file ops" `Quick test_gpr_file_ops ] );
      ( "cr0",
        [ Alcotest.test_case "flags" `Quick test_cr0_flags;
          Alcotest.test_case "reset value" `Quick test_cr0_reset_value;
          Alcotest.test_case "validity" `Quick test_cr0_validity ] );
      ( "cr4", [ Alcotest.test_case "validity" `Quick test_cr4_validity ] );
      ( "cpu_mode",
        [ Alcotest.test_case "real mode" `Quick test_mode_real;
          Alcotest.test_case "boot ladder" `Quick test_mode_ladder;
          Alcotest.test_case "int roundtrip" `Quick test_mode_int_roundtrip ] );
      ( "rflags",
        [ Alcotest.test_case "canonical" `Quick test_rflags_canonical;
          Alcotest.test_case "entry validity" `Quick test_rflags_entry_valid ]
      );
      ( "segment",
        [ Alcotest.test_case "ar fields" `Quick test_segment_ar_fields;
          Alcotest.test_case "entry checks" `Quick test_segment_entry_checks;
          Alcotest.test_case "real mode" `Quick test_segment_real_mode ] );
      ( "msr",
        [ Alcotest.test_case "raw roundtrip" `Quick test_msr_raw_roundtrip;
          Alcotest.test_case "unknown index" `Quick test_msr_unknown;
          Alcotest.test_case "file" `Quick test_msr_file;
          Alcotest.test_case "writability" `Quick test_msr_writability;
          Alcotest.test_case "efer validity" `Quick test_efer_validity ] );
      ( "cpuid",
        [ Alcotest.test_case "vendor string" `Quick test_cpuid_vendor;
          Alcotest.test_case "feature bits" `Quick test_cpuid_features;
          Alcotest.test_case "subleaves" `Quick
            test_cpuid_subleaf_sensitivity ] );
      ( "exn",
        [ Alcotest.test_case "vector roundtrip" `Quick
            test_exn_vector_roundtrip;
          Alcotest.test_case "error codes" `Quick test_exn_error_codes;
          Alcotest.test_case "escalation" `Quick test_exn_escalation ] );
      ( "insn",
        [ Alcotest.test_case "costs" `Quick test_insn_costs_positive;
          Alcotest.test_case "cr numbers" `Quick test_insn_cr_numbers ] );
      ( "properties",
        qcheck
          [ prop_cr0_set_test; prop_mode_total;
            prop_rflags_canonical_idempotent ] ) ]
