(* Tests for the VMCS model: field table, access semantics, launch
   state machine, VMX instruction semantics, and VM-entry checks. *)

module F = Iris_vmcs.Field
module V = Iris_vmcs.Vmcs
module C = Iris_vmcs.Controls
module Op = Iris_vmcs.Vmx_op
module EC = Iris_vmcs.Entry_check
open Iris_x86

let check = Alcotest.check

(* --- Field table --- *)

let test_field_count () =
  (* The paper's seed format gives the VMCS-field encoding one byte
     and cites 147 values; the table must stay in that regime. *)
  check Alcotest.bool "about 147 fields" true
    (F.count >= 140 && F.count <= 160);
  check Alcotest.bool "fits one byte" true (F.count < 256)

let test_field_encodings_unique () =
  let tbl = Hashtbl.create 256 in
  Array.iter
    (fun f ->
      let e = F.encoding16 f in
      check Alcotest.bool "no duplicate encoding" false (Hashtbl.mem tbl e);
      Hashtbl.replace tbl e ())
    F.all

let test_field_compact_roundtrip () =
  Array.iter
    (fun f ->
      check Alcotest.bool "compact roundtrip" true
        (F.of_compact (F.compact f) = Some f);
      check Alcotest.bool "encoding roundtrip" true
        (F.of_encoding16 (F.encoding16 f) = Some f))
    F.all

let test_field_width_encoding_consistency () =
  (* SDM Appendix B: bits 13..14 of the encoding give the width class
     (0 = 16-bit, 1 = 64-bit, 2 = 32-bit, 3 = natural). *)
  Array.iter
    (fun f ->
      let cls = (F.encoding16 f lsr 13) land 0x3 in
      let expected =
        match F.width f with
        | F.W16 -> 0
        | F.W64 -> 1
        | F.W32 -> 2
        | F.Wnat -> 3
      in
      check Alcotest.int (F.name f ^ " width class") expected cls)
    F.all

let test_field_area_encoding_consistency () =
  (* Bits 10..11: 0 = control, 1 = read-only data, 2 = guest state,
     3 = host state. *)
  Array.iter
    (fun f ->
      let cls = (F.encoding16 f lsr 10) land 0x3 in
      let expected =
        match F.area f with
        | F.Ctrl -> 0
        | F.Exit_info -> 1
        | F.Guest -> 2
        | F.Host -> 3
      in
      check Alcotest.int (F.name f ^ " area class") expected cls)
    F.all

let test_field_readonly_is_exit_info () =
  Array.iter
    (fun f ->
      check Alcotest.bool (F.name f) (F.area f = F.Exit_info) (F.readonly f))
    F.all

let test_field_known_encodings () =
  (* Spot-check architectural encodings against the SDM. *)
  check Alcotest.int "GUEST_CR0" 0x6800 (F.encoding16 F.guest_cr0);
  check Alcotest.int "GUEST_RIP" 0x681E (F.encoding16 F.guest_rip);
  check Alcotest.int "VM_EXIT_REASON" 0x4402 (F.encoding16 F.vm_exit_reason);
  check Alcotest.int "EXIT_QUALIFICATION" 0x6400
    (F.encoding16 F.exit_qualification);
  check Alcotest.int "VMCS_LINK_POINTER" 0x2800
    (F.encoding16 F.vmcs_link_pointer);
  check Alcotest.int "HOST_RIP" 0x6C16 (F.encoding16 F.host_rip);
  check Alcotest.int "PIN controls" 0x4000
    (F.encoding16 F.pin_based_vm_exec_control);
  check Alcotest.int "PREEMPTION TIMER" 0x482E
    (F.encoding16 F.guest_preemption_timer)

let test_field_truncate () =
  check Alcotest.int64 "16-bit field truncates" 0x1234L
    (F.truncate F.guest_cs_selector 0xABCD1234L);
  check Alcotest.int64 "32-bit field truncates" 0xABCD1234L
    (F.truncate F.guest_cs_limit 0x99ABCD1234L);
  check Alcotest.int64 "natural keeps 64" (-1L) (F.truncate F.guest_cr0 (-1L))

let test_segment_fields_complete () =
  List.iter
    (fun seg ->
      let sel, base, limit, ar = F.segment_fields seg in
      check Alcotest.bool "selector is 16-bit guest" true
        (F.width sel = F.W16 && F.area sel = F.Guest);
      check Alcotest.bool "base natural" true (F.width base = F.Wnat);
      check Alcotest.bool "limit 32-bit" true (F.width limit = F.W32);
      check Alcotest.bool "ar 32-bit" true (F.width ar = F.W32))
    Segment.all_names

(* --- Vmcs storage and state machine --- *)

let test_vmcs_read_write () =
  let v = V.create () in
  check Alcotest.int64 "fresh reads zero" 0L (V.read v F.guest_cr0);
  (match V.write v F.guest_cr0 0x31L with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "write failed");
  check Alcotest.int64 "written value" 0x31L (V.read v F.guest_cr0)

let test_vmcs_write_truncates () =
  let v = V.create () in
  ignore (V.write v F.guest_cs_selector 0xFFF1234L);
  check Alcotest.int64 "truncated to 16 bits" 0x1234L
    (V.read v F.guest_cs_selector)

let test_vmcs_readonly_fields () =
  let v = V.create () in
  (match V.write v F.vm_exit_reason 5L with
  | Error (V.Readonly_field f) ->
      check Alcotest.bool "names the field" true (f = F.vm_exit_reason)
  | Ok () | Error _ -> Alcotest.fail "expected read-only error");
  (* The processor-internal path bypasses the restriction. *)
  V.write_exit_info v F.vm_exit_reason 5L;
  check Alcotest.int64 "internal write lands" 5L (V.read v F.vm_exit_reason)

let test_vmcs_launch_state () =
  let v = V.create () in
  check Alcotest.bool "starts clear" true (V.state v = V.Clear);
  V.set_active v;
  check Alcotest.bool "active after vmptrld" true
    (V.state v = V.Active_current_clear);
  V.mark_launched v;
  check Alcotest.bool "launched" true (V.is_launched v);
  V.vmclear v;
  check Alcotest.bool "vmclear resets" true (V.state v = V.Clear)

let test_vmcs_copy_independent () =
  let v = V.create () in
  ignore (V.write v F.guest_rip 0x100L);
  let w = V.copy v in
  ignore (V.write v F.guest_rip 0x200L);
  check Alcotest.int64 "copy unaffected" 0x100L (V.read w F.guest_rip)

let test_vmcs_by_encoding () =
  let v = V.create () in
  (match V.write_by_encoding v 0x6800 0x21L with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "write by encoding");
  check Alcotest.bool "read by encoding" true
    (V.read_by_encoding v 0x6800 = Ok 0x21L);
  (match V.read_by_encoding v 0x9999 with
  | Error (V.Unsupported_field 0x9999) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected unsupported-field error")

(* --- a minimal valid guest state for entry checks --- *)

let valid_vmcs () =
  let v = V.create () in
  let w f value =
    match V.write v f value with
    | Ok () -> ()
    | Error _ -> V.write_exit_info v f value
  in
  (* controls *)
  w F.pin_based_vm_exec_control C.pin_reserved_one_mask;
  w F.cpu_based_vm_exec_control C.cpu_reserved_one_mask;
  w F.vm_entry_controls C.entry_reserved_one_mask;
  w F.vm_exit_controls C.exit_reserved_one_mask;
  (* host state *)
  w F.host_cr0 (Cr0.set (Cr0.set (Cr0.set 0L Cr0.PE) Cr0.PG) Cr0.NE);
  w F.host_cr4 (Cr4.set 0L Cr4.VMXE);
  w F.host_rip 0xFFFF82D080200000L;
  w F.host_cs_selector 0xE008L;
  w F.host_tr_selector 0xE040L;
  (* guest state: real mode at reset *)
  w F.guest_cr0 Cr0.reset_value;
  w F.guest_rflags Rflags.reset_value;
  w F.guest_rip 0x1000L;
  w F.vmcs_link_pointer (-1L);
  let set_seg name (s : Segment.t) =
    let sel, base, limit, ar = F.segment_fields name in
    w sel (Int64.of_int s.Segment.selector);
    w base s.Segment.base;
    w limit s.Segment.limit;
    w ar (Int64.of_int s.Segment.ar)
  in
  set_seg Segment.Cs (Segment.real_mode Segment.Cs);
  set_seg Segment.Ss (Segment.real_mode Segment.Ss);
  set_seg Segment.Tr Segment.initial_tr;
  set_seg Segment.Ldtr Segment.initial_ldtr;
  v

let test_entry_valid_state_passes () =
  match EC.run (valid_vmcs ()) with
  | Ok () -> ()
  | Error f -> Alcotest.fail (EC.failure_message f)

let expect_guest_failure v substring =
  match EC.run v with
  | Ok () -> Alcotest.fail ("expected failure mentioning " ^ substring)
  | Error (EC.Invalid_guest_state msg) ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec scan i =
          i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1))
        in
        nn = 0 || scan 0
      in
      check Alcotest.bool
        (Printf.sprintf "message %S mentions %S" msg substring)
        true (contains msg substring)
  | Error f -> Alcotest.fail ("wrong failure class: " ^ EC.failure_message f)

let test_entry_cr0_check () =
  let v = valid_vmcs () in
  ignore (V.write v F.guest_cr0 (Cr0.set 0L Cr0.PG));
  expect_guest_failure v "CR0"

let test_entry_cr4_check () =
  let v = valid_vmcs () in
  ignore (V.write v F.guest_cr4 (Int64.shift_left 1L 25));
  expect_guest_failure v "CR4"

let test_entry_rflags_check () =
  let v = valid_vmcs () in
  ignore (V.write v F.guest_rflags 0x8002L);
  expect_guest_failure v "RFLAGS"

let test_entry_bad_rip_for_mode () =
  (* The §VI-B crash: a real-mode guest with a protected-mode RIP. *)
  let v = valid_vmcs () in
  V.write_exit_info v F.guest_rip 0x100000L;
  expect_guest_failure v "bad RIP for mode 0"

let test_entry_rip_ok_in_protected () =
  (* The same RIP is fine once PE is set and CS covers it. *)
  let v = valid_vmcs () in
  let cr0 = Cr0.set Cr0.reset_value Cr0.PE in
  V.write_exit_info v F.guest_cr0 cr0;
  let sel, base, limit, ar = F.segment_fields Segment.Cs in
  let s = Segment.flat_code32 in
  V.write_exit_info v sel (Int64.of_int s.Segment.selector);
  V.write_exit_info v base s.Segment.base;
  V.write_exit_info v limit s.Segment.limit;
  V.write_exit_info v ar (Int64.of_int s.Segment.ar);
  let sel, _, _, _ = F.segment_fields Segment.Ss in
  V.write_exit_info v sel 0x10L;
  V.write_exit_info v F.guest_rip 0x100000L;
  match EC.run v with
  | Ok () -> ()
  | Error f -> Alcotest.fail (EC.failure_message f)

let test_entry_link_pointer_check () =
  let v = valid_vmcs () in
  V.write_exit_info v F.vmcs_link_pointer 0x1000L;
  expect_guest_failure v "link pointer"

let test_entry_activity_check () =
  let v = valid_vmcs () in
  V.write_exit_info v F.guest_activity_state 7L;
  expect_guest_failure v "activity"

let test_entry_tr_check () =
  let v = valid_vmcs () in
  let sel, base, limit, ar = F.segment_fields Segment.Tr in
  ignore (sel, base, limit);
  V.write_exit_info v ar (Int64.of_int Segment.flat_code32.Segment.ar);
  expect_guest_failure v "TR"

let test_entry_control_check () =
  let v = valid_vmcs () in
  V.write_exit_info v F.pin_based_vm_exec_control 0L;
  match EC.run v with
  | Error (EC.Invalid_control _) -> ()
  | Ok () | Error _ -> Alcotest.fail "expected control failure"

let test_entry_host_check () =
  let v = valid_vmcs () in
  ignore (V.write v F.host_rip 0L);
  match EC.run v with
  | Error (EC.Invalid_host_state _) -> ()
  | Ok () | Error _ -> Alcotest.fail "expected host-state failure"

let test_entry_intr_injection_check () =
  let v = valid_vmcs () in
  (* Injecting an external interrupt with IF clear must fail. *)
  V.write_exit_info v F.vm_entry_intr_info
    (C.make_intr_info ~typ:C.External_interrupt ~vector:0x30 ());
  expect_guest_failure v "IF";
  (* With IF set it passes. *)
  V.write_exit_info v F.guest_rflags
    (Rflags.set Rflags.reset_value Rflags.IF);
  match EC.run v with
  | Ok () -> ()
  | Error f -> Alcotest.fail (EC.failure_message f)

(* --- Vmx_op --- *)

let test_vmxop_requires_vmxon () =
  let ctx = Op.create () in
  let v = V.create () in
  check Alcotest.bool "vmptrld before vmxon fails" true
    (Op.vmptrld ctx v = Error Op.VMfail_invalid);
  check Alcotest.bool "vmxon ok" true (Op.vmxon ctx = Ok ());
  check Alcotest.bool "vmptrld after vmxon" true (Op.vmptrld ctx v = Ok ())

let test_vmxop_vmread_no_current () =
  let ctx = Op.create () in
  ignore (Op.vmxon ctx);
  check Alcotest.bool "no current VMCS" true
    (Op.vmread ctx F.guest_cr0 = Error Op.VMfail_invalid)

let test_vmxop_readonly_write_fails () =
  let ctx = Op.create () in
  ignore (Op.vmxon ctx);
  let v = V.create () in
  ignore (Op.vmptrld ctx v);
  (match Op.vmwrite ctx F.vm_exit_reason 1L with
  | Error (Op.VMfail_valid (n, _)) ->
      check Alcotest.int "error 13" Op.err_readonly_component n
  | Ok () | Error Op.VMfail_invalid -> Alcotest.fail "expected VMfailValid");
  (* The error number lands in the VM-instruction-error field. *)
  check Alcotest.int64 "vm-instruction error stored"
    (Int64.of_int Op.err_readonly_component)
    (V.read v F.vm_instruction_error)

let test_vmxop_launch_resume_discipline () =
  let ctx = Op.create () in
  ignore (Op.vmxon ctx);
  let v = valid_vmcs () in
  ignore (Op.vmptrld ctx v);
  (* VMRESUME before VMLAUNCH fails with error 5. *)
  (match Op.vmresume ctx with
  | Error (Op.VMfail_valid (n, _)) ->
      check Alcotest.int "error 5" Op.err_vmresume_nonlaunched n
  | Ok _ | Error Op.VMfail_invalid -> Alcotest.fail "expected VMfail 5");
  (* VMLAUNCH succeeds and transitions the state. *)
  (match Op.vmlaunch ctx with
  | Ok Op.Entered -> ()
  | Ok (Op.Entry_failed f) -> Alcotest.fail (EC.failure_message f)
  | Error _ -> Alcotest.fail "vmlaunch VMfailed");
  check Alcotest.bool "launched" true (V.is_launched v);
  (* Second VMLAUNCH fails with error 4; VMRESUME now works. *)
  (match Op.vmlaunch ctx with
  | Error (Op.VMfail_valid (n, _)) ->
      check Alcotest.int "error 4" Op.err_vmlaunch_nonclear n
  | Ok _ | Error Op.VMfail_invalid -> Alcotest.fail "expected VMfail 4");
  match Op.vmresume ctx with
  | Ok Op.Entered -> ()
  | Ok (Op.Entry_failed f) -> Alcotest.fail (EC.failure_message f)
  | Error _ -> Alcotest.fail "vmresume VMfailed"

let test_vmxop_entry_failure_outcome () =
  let ctx = Op.create () in
  ignore (Op.vmxon ctx);
  let v = valid_vmcs () in
  V.write_exit_info v F.guest_rip 0x100000L;
  ignore (Op.vmptrld ctx v);
  match Op.vmlaunch ctx with
  | Ok (Op.Entry_failed (EC.Invalid_guest_state _)) -> ()
  | Ok Op.Entered -> Alcotest.fail "entered with bad RIP"
  | Ok (Op.Entry_failed _) | Error _ -> Alcotest.fail "wrong failure kind"

(* --- Controls --- *)

let test_intr_info_format () =
  let info =
    C.make_intr_info ~error_code:true ~typ:C.Hardware_exception ~vector:13 ()
  in
  check Alcotest.bool "valid bit" true (C.intr_info_is_valid info);
  check Alcotest.int "vector" 13 (C.intr_info_vector info);
  check Alcotest.bool "type" true
    (C.intr_info_type info = Some C.Hardware_exception);
  check Alcotest.bool "error code" true (C.intr_info_has_error_code info)

let test_interruptibility_rules () =
  check Alcotest.bool "0 valid" true (C.interruptibility_valid 0L);
  check Alcotest.bool "STI blocking valid" true
    (C.interruptibility_valid C.interruptibility_sti_blocking);
  check Alcotest.bool "STI+MOVSS invalid" false
    (C.interruptibility_valid
       (Int64.logor C.interruptibility_sti_blocking
          C.interruptibility_mov_ss_blocking));
  check Alcotest.bool "reserved invalid" false
    (C.interruptibility_valid 0x100L)

(* --- properties --- *)

let field_gen = QCheck.Gen.map (fun i -> F.all.(i)) (QCheck.Gen.int_bound (F.count - 1))

let arb_field = QCheck.make ~print:F.name field_gen

let prop_write_read_roundtrip =
  QCheck.Test.make ~name:"vmcs write/read roundtrips (mod truncation)"
    ~count:500
    QCheck.(pair arb_field int64)
    (fun (f, value) ->
      QCheck.assume (not (F.readonly f));
      let v = V.create () in
      match V.write v f value with
      | Ok () -> V.read v f = F.truncate f value
      | Error _ -> false)

let prop_truncate_idempotent =
  QCheck.Test.make ~name:"field truncation idempotent" ~count:500
    QCheck.(pair arb_field int64)
    (fun (f, value) -> F.truncate f (F.truncate f value) = F.truncate f value)

let prop_entry_check_total =
  (* Fuzzing robustness: the entry checks classify *any* corrupted
     VMCS without raising. *)
  QCheck.Test.make ~name:"entry checks total under corruption" ~count:500
    QCheck.(triple arb_field int64 int64)
    (fun (f, v1, v2) ->
      let vmcs = valid_vmcs () in
      let corrupt f v =
        match V.write vmcs f v with
        | Ok () -> ()
        | Error _ -> V.write_exit_info vmcs f v
      in
      corrupt f v1;
      (* Corrupt a second, pseudo-derived field too. *)
      corrupt F.all.(Int64.to_int (Int64.logand v2 0x7FL) mod F.count) v2;
      match EC.run vmcs with Ok () | Error _ -> true)

let prop_entry_check_deterministic =
  QCheck.Test.make ~name:"entry checks deterministic" ~count:200
    QCheck.(pair arb_field int64)
    (fun (f, v) ->
      let vmcs = valid_vmcs () in
      (match V.write vmcs f v with
      | Ok () -> ()
      | Error _ -> V.write_exit_info vmcs f v);
      EC.run vmcs = EC.run vmcs)

(* Three valid states that reach different checks: [valid_vmcs]'s real
   mode, 32-bit protected mode with PAE paging (the PDPTE check), and
   IA-32e mode (CS.L, EFER.LMA, canonical RIP). *)
let paged_vmcs ~long =
  let v = valid_vmcs () in
  let w f x = V.write_exit_info v f x in
  let set_seg name (s : Segment.t) =
    let sel, base, limit, ar = F.segment_fields name in
    w sel (Int64.of_int s.Segment.selector);
    w base s.Segment.base;
    w limit s.Segment.limit;
    w ar (Int64.of_int s.Segment.ar)
  in
  w F.guest_cr0 (Cr0.set (Cr0.set Cr0.reset_value Cr0.PE) Cr0.PG);
  w F.guest_cr4 (Cr4.set 0L Cr4.PAE);
  List.iter (fun f -> w f 0x1001L)
    [ F.guest_pdpte0; F.guest_pdpte1; F.guest_pdpte2; F.guest_pdpte3 ];
  if long then begin
    w F.vm_entry_controls
      (Int64.logor C.entry_reserved_one_mask
         (Int64.logor C.entry_ia32e_mode_guest C.entry_load_ia32_efer));
    w F.guest_ia32_efer (Int64.logor Msr.efer_lme Msr.efer_lma);
    set_seg Segment.Cs Segment.flat_code64;
    set_seg Segment.Ss Segment.flat_data64;
    w F.guest_rip 0xFFFF800000001000L
  end
  else begin
    set_seg Segment.Cs Segment.flat_code32;
    set_seg Segment.Ss Segment.flat_data32;
    w F.guest_rip 0x100000L
  end;
  v

let references =
  [| valid_vmcs (); paged_vmcs ~long:false; paged_vmcs ~long:true |]

let test_references_pass () =
  Array.iter
    (fun v ->
      match EC.run v with
      | Ok () -> ()
      | Error f -> Alcotest.fail (EC.failure_message f))
    references

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "iris_vmcs"
    [ ( "field-table",
        [ Alcotest.test_case "count" `Quick test_field_count;
          Alcotest.test_case "unique encodings" `Quick
            test_field_encodings_unique;
          Alcotest.test_case "compact roundtrip" `Quick
            test_field_compact_roundtrip;
          Alcotest.test_case "width class bits" `Quick
            test_field_width_encoding_consistency;
          Alcotest.test_case "area class bits" `Quick
            test_field_area_encoding_consistency;
          Alcotest.test_case "read-only = exit info" `Quick
            test_field_readonly_is_exit_info;
          Alcotest.test_case "known encodings" `Quick
            test_field_known_encodings;
          Alcotest.test_case "truncation" `Quick test_field_truncate;
          Alcotest.test_case "segment fields" `Quick
            test_segment_fields_complete ] );
      ( "vmcs",
        [ Alcotest.test_case "read/write" `Quick test_vmcs_read_write;
          Alcotest.test_case "write truncates" `Quick
            test_vmcs_write_truncates;
          Alcotest.test_case "read-only fields" `Quick
            test_vmcs_readonly_fields;
          Alcotest.test_case "launch state" `Quick test_vmcs_launch_state;
          Alcotest.test_case "copy independent" `Quick
            test_vmcs_copy_independent;
          Alcotest.test_case "by encoding" `Quick test_vmcs_by_encoding ] );
      ( "entry-checks",
        [ Alcotest.test_case "valid state passes" `Quick
            test_entry_valid_state_passes;
          Alcotest.test_case "cr0" `Quick test_entry_cr0_check;
          Alcotest.test_case "cr4" `Quick test_entry_cr4_check;
          Alcotest.test_case "rflags" `Quick test_entry_rflags_check;
          Alcotest.test_case "bad RIP for mode 0" `Quick
            test_entry_bad_rip_for_mode;
          Alcotest.test_case "RIP ok in protected mode" `Quick
            test_entry_rip_ok_in_protected;
          Alcotest.test_case "link pointer" `Quick
            test_entry_link_pointer_check;
          Alcotest.test_case "activity state" `Quick
            test_entry_activity_check;
          Alcotest.test_case "TR" `Quick test_entry_tr_check;
          Alcotest.test_case "controls" `Quick test_entry_control_check;
          Alcotest.test_case "host state" `Quick test_entry_host_check;
          Alcotest.test_case "interrupt injection vs IF" `Quick
            test_entry_intr_injection_check;
          Alcotest.test_case "paged reference states pass" `Quick
            test_references_pass ] );
      ( "vmx-op",
        [ Alcotest.test_case "requires vmxon" `Quick
            test_vmxop_requires_vmxon;
          Alcotest.test_case "vmread without current" `Quick
            test_vmxop_vmread_no_current;
          Alcotest.test_case "read-only write VMfails" `Quick
            test_vmxop_readonly_write_fails;
          Alcotest.test_case "launch/resume discipline" `Quick
            test_vmxop_launch_resume_discipline;
          Alcotest.test_case "entry failure outcome" `Quick
            test_vmxop_entry_failure_outcome ] );
      ( "controls",
        [ Alcotest.test_case "intr info format" `Quick test_intr_info_format;
          Alcotest.test_case "interruptibility rules" `Quick
            test_interruptibility_rules ] );
      ( "properties",
        qcheck
          [ prop_write_read_roundtrip; prop_truncate_idempotent;
            prop_entry_check_total; prop_entry_check_deterministic ] ) ]
