module F = Iris_vmcs.Field
module Gpr = Iris_x86.Gpr
module Seed = Iris_core.Seed

type vmcb_write = { field : Vmcb.field; value : int64 }

type untranslatable = {
  vmcs_field : F.t;
  reason : string;
}

type translated = {
  writes : vmcb_write list;
  rax : int64;
  gprs : (Gpr.reg * int64) list;
  exitcode : Exitcode.t option;
  dropped : untranslatable list;
}

let field_map =
  [ (* guest state <-> save area *)
    (F.guest_cr0, Vmcb.save_cr0);
    (F.guest_cr3, Vmcb.save_cr3);
    (F.guest_cr4, Vmcb.save_cr4);
    (F.guest_rip, Vmcb.save_rip);
    (F.guest_rsp, Vmcb.save_rsp);
    (F.guest_rflags, Vmcb.save_rflags);
    (F.guest_ia32_efer, Vmcb.save_efer);
    (F.guest_ia32_pat, Vmcb.save_g_pat);
    (F.guest_dr7, Vmcb.save_dr7);
    (F.guest_gdtr_base, Vmcb.save_gdtr_base);
    (F.guest_gdtr_limit, Vmcb.save_gdtr_limit);
    (F.guest_idtr_base, Vmcb.save_idtr_base);
    (F.guest_idtr_limit, Vmcb.save_idtr_limit);
    (F.guest_cs_selector, Vmcb.save_cs_selector);
    (F.guest_cs_base, Vmcb.save_cs_base);
    (F.guest_cs_limit, Vmcb.save_cs_limit);
    (F.guest_cs_ar_bytes, Vmcb.save_cs_attrib);
    (F.guest_ds_selector, Vmcb.save_ds_selector);
    (F.guest_ds_base, Vmcb.save_ds_base);
    (F.guest_ds_limit, Vmcb.save_ds_limit);
    (F.guest_ds_ar_bytes, Vmcb.save_ds_attrib);
    (F.guest_es_selector, Vmcb.save_es_selector);
    (F.guest_es_base, Vmcb.save_es_base);
    (F.guest_es_limit, Vmcb.save_es_limit);
    (F.guest_es_ar_bytes, Vmcb.save_es_attrib);
    (F.guest_ss_selector, Vmcb.save_ss_selector);
    (F.guest_ss_base, Vmcb.save_ss_base);
    (F.guest_ss_limit, Vmcb.save_ss_limit);
    (F.guest_ss_ar_bytes, Vmcb.save_ss_attrib);
    (F.guest_sysenter_cs, Vmcb.save_sysenter_cs);
    (F.guest_sysenter_esp, Vmcb.save_sysenter_esp);
    (F.guest_sysenter_eip, Vmcb.save_sysenter_eip);
    (F.guest_interruptibility_info, Vmcb.interrupt_shadow);
    (* controls *)
    (F.tsc_offset, Vmcb.tsc_offset);
    (F.exception_bitmap, Vmcb.intercept_exceptions);
    (F.vpid, Vmcb.guest_asid);
    (F.io_bitmap_a, Vmcb.iopm_base_pa);
    (F.msr_bitmap, Vmcb.msrpm_base_pa);
    (F.ept_pointer, Vmcb.n_cr3);
    (F.vm_entry_intr_info, Vmcb.eventinj);
    (F.tpr_threshold, Vmcb.vintr);
    (* exit information: read-only on VT-x, ordinary memory on SVM *)
    (F.vm_exit_reason, Vmcb.exitcode);
    (F.exit_qualification, Vmcb.exitinfo1);
    (F.guest_physical_address, Vmcb.exitinfo2);
    (F.idt_vectoring_info, Vmcb.exitintinfo);
    (F.guest_linear_address, Vmcb.exitinfo2) ]

let lookup =
  let h = Hashtbl.create 64 in
  List.iter
    (fun (vmcs, vmcb) ->
      if not (Hashtbl.mem h vmcs) then Hashtbl.replace h vmcs vmcb)
    field_map;
  h

let map_field f = Hashtbl.find_opt lookup f

let untranslatable_reason f =
  match F.area f with
  | F.Ctrl -> "VT-x-specific execution control"
  | F.Exit_info -> "VT-x-specific exit information"
  | F.Guest -> "no VMCB save-area slot"
  | F.Host -> "SVM keeps host state in the VMHSAVE area, not the VMCB"

let translate (seed : Seed.t) =
  let writes = ref [] and dropped = ref [] in
  (* Computed mapping: VT-x reports an instruction *length*, SVM the
     *address of the next instruction* (decode assist). *)
  let last_rip = ref (Seed.first_read seed F.guest_rip) in
  List.iter
    (fun (f, value) ->
      if f = F.guest_rip then last_rip := Some value;
      if f = F.vm_exit_instruction_len then begin
        match !last_rip with
        | Some rip ->
            writes :=
              { field = Vmcb.next_rip; value = Int64.add rip value }
              :: !writes
        | None ->
            dropped :=
              { vmcs_field = f;
                reason = "NEXT_RIP needs a RIP read to compute from" }
              :: !dropped
      end
      else begin
        match map_field f with
        | Some field -> writes := { field; value } :: !writes
        | None ->
            dropped :=
              { vmcs_field = f; reason = untranslatable_reason f } :: !dropped
      end)
    seed.Seed.reads;
  let rax = Seed.gpr_value seed Gpr.Rax in
  let gprs =
    List.filter (fun (r, _) -> r <> Gpr.Rax) seed.Seed.gprs
  in
  { writes = List.rev !writes;
    rax;
    gprs;
    exitcode = Exitcode.of_vtx seed.Seed.reason;
    dropped = List.rev !dropped }

let dropped_fields trace =
  let dropped = Hashtbl.create 16 in
  Array.iter
    (fun s ->
      List.iter
        (fun { vmcs_field = f; _ } ->
          Hashtbl.replace dropped f
            (1 + Option.value ~default:0 (Hashtbl.find_opt dropped f)))
        (translate s).dropped)
    trace.Iris_core.Trace.seeds;
  Hashtbl.fold (fun f n acc -> (f, n) :: acc) dropped []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let coverage_pct trace =
  let total = ref 0 and ok = ref 0 in
  Array.iter
    (fun s ->
      List.iter
        (fun (f, _) ->
          incr total;
          (* The instruction length translates via the NEXT_RIP
             computed mapping. *)
          if map_field f <> None || f = F.vm_exit_instruction_len then
            incr ok)
        s.Seed.reads)
    trace.Iris_core.Trace.seeds;
  if !total = 0 then 100.0
  else 100.0 *. float_of_int !ok /. float_of_int !total

let apply vmcb t =
  List.iter (fun { field; value } -> Vmcb.write vmcb field value) t.writes;
  Vmcb.write vmcb Vmcb.save_rax t.rax;
  match t.exitcode with
  | Some code -> Vmcb.write vmcb Vmcb.exitcode (Exitcode.code code)
  | None -> ()
