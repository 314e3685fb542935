open Iris_x86
module F = Iris_vmcs.Field
module C = Iris_vmcs.Controls
module V = Iris_vmcs.Vmcs
module Op = Iris_vmcs.Vmx_op

(* Domain ids are allocated atomically: orchestrator workers construct
   their hypervisor instances concurrently from separate domains. *)
let next_domid = Atomic.make 0

let construct ?(dummy = false) ~cov ~hooks ~name () =
  (* Both the test VM and the dummy VM are 1 GiB DomUs in the paper's
     setup; the backing store is sparse, so this costs nothing. *)
  let id = Atomic.fetch_and_add next_domid 1 in
  let dom = Domain.create ~dummy ~cov ~id ~name ~mem_mib:1024 () in
  let ctx = Ctx.create ~dom ~cov ~hooks in
  let vcpu = dom.Domain.vcpu in
  let vmx = vcpu.Iris_vtx.Vcpu.vmx in
  (match Op.vmxon vmx with
  | Ok () -> ()
  | Error e -> Ctx.panic ctx (Format.asprintf "VMXON: %a" Op.pp_error e));
  (match Op.vmclear vmx vcpu.Iris_vtx.Vcpu.vmcs with
  | Ok () -> ()
  | Error e -> Ctx.panic ctx (Format.asprintf "VMCLEAR: %a" Op.pp_error e));
  (match Op.vmptrld vmx vcpu.Iris_vtx.Vcpu.vmcs with
  | Ok () -> ()
  | Error e -> Ctx.panic ctx (Format.asprintf "VMPTRLD: %a" Op.pp_error e));
  let w f v = Access.vmwrite ctx f v in
  (* Execution controls. *)
  let pin =
    Int64.logor C.pin_reserved_one_mask
      (Int64.logor C.pin_ext_intr_exiting C.pin_nmi_exiting)
  in
  let pin =
    if dummy then Int64.logor pin C.pin_preemption_timer else pin
  in
  w F.pin_based_vm_exec_control pin;
  let cpu =
    List.fold_left Int64.logor C.cpu_reserved_one_mask
      [ C.cpu_hlt_exiting; C.cpu_rdtsc_exiting; C.cpu_tsc_offsetting;
        C.cpu_uncond_io_exiting; C.cpu_cr8_load_exiting;
        C.cpu_cr8_store_exiting; C.cpu_secondary_controls ]
  in
  w F.cpu_based_vm_exec_control cpu;
  let sec =
    List.fold_left Int64.logor 0L
      [ C.sec_enable_ept; C.sec_unrestricted_guest; C.sec_enable_rdtscp;
        C.sec_enable_vpid ]
  in
  w F.secondary_vm_exec_control sec;
  w F.vm_exit_controls
    (List.fold_left Int64.logor C.exit_reserved_one_mask
       [ C.exit_host_addr_space_size; C.exit_ack_intr_on_exit;
         C.exit_save_ia32_efer; C.exit_load_ia32_efer ]);
  w F.vm_entry_controls C.entry_reserved_one_mask;
  (* Trap #MC and #DF from the guest. *)
  w F.exception_bitmap
    (Int64.logor
       (Iris_util.Bits.bit (Exn.vector Exn.MC))
       (Iris_util.Bits.bit (Exn.vector Exn.DF)));
  w F.vpid (Int64.of_int (id + 1));
  w F.tsc_offset 0L;
  w F.ept_pointer 0x1000_001EL;
  (* CR masks: the host owns the mode/paging/cache bits of CR0 and the
     feature bits of CR4; guest writes touching them trap. *)
  let cr0_mask =
    List.fold_left
      (fun acc f -> Cr0.set acc f)
      0L [ Cr0.PE; Cr0.PG; Cr0.TS; Cr0.NE; Cr0.NW; Cr0.CD; Cr0.WP ]
  in
  w F.cr0_guest_host_mask cr0_mask;
  w F.cr0_read_shadow Cr0.reset_value;
  let cr4_mask =
    List.fold_left
      (fun acc f -> Cr4.set acc f)
      0L [ Cr4.VMXE; Cr4.PAE; Cr4.PSE; Cr4.PGE; Cr4.SMEP ]
  in
  w F.cr4_guest_host_mask cr4_mask;
  w F.cr4_read_shadow 0L;
  (* Host-state area. *)
  w F.host_cr0 (Cr0.set (Cr0.set (Cr0.set 0L Cr0.PE) Cr0.PG) Cr0.NE);
  w F.host_cr3 0x80000000L;
  w F.host_cr4 (Cr4.set (Cr4.set 0L Cr4.VMXE) Cr4.PAE);
  w F.host_rip 0xFFFF82D080200000L;
  w F.host_rsp 0xFFFF82D080407F00L;
  w F.host_cs_selector 0xE008L;
  w F.host_ss_selector 0x0L;
  w F.host_ds_selector 0x0L;
  w F.host_es_selector 0x0L;
  w F.host_fs_selector 0x0L;
  w F.host_gs_selector 0x0L;
  w F.host_tr_selector 0xE040L;
  w F.host_ia32_efer (Int64.logor Msr.efer_lme Msr.efer_lma);
  (* Guest-state area: hardware-style save of the reset state, plus
     the bits VMCLEAR conventions demand. *)
  Iris_vtx.Vcpu.save_to_vmcs vcpu;
  V.write_exit_info vcpu.Iris_vtx.Vcpu.vmcs F.vmcs_link_pointer (-1L);
  (* Real CR0 the guest starts with (shadow holds the reset value). *)
  w F.guest_cr0 (Common.effective_cr0 ~guest_value:Cr0.reset_value);
  w F.guest_cr4 (Cr4.set 0L Cr4.VMXE);
  if dummy then begin
    (* The replay trigger: preemption timer fires before the guest
       executes a single instruction (§V-B). *)
    w F.guest_preemption_timer 0L;
    vcpu.Iris_vtx.Vcpu.preemption_timer <- 0L
  end
  else begin
    (* Host (Xen) periodic timer: 10 ms at 3.6 GHz. *)
    vcpu.Iris_vtx.Vcpu.host_timer_period <- 36_000_000L;
    vcpu.Iris_vtx.Vcpu.host_timer_deadline <- 36_000_000L
  end;
  ctx

type stop_reason =
  | Completed
  | Crashed of string
  | Budget

type run_result = {
  stop : stop_reason;
  exits : int;
  cycles : int64;
}

let enter ctx =
  let vcpu = Ctx.vcpu ctx in
  let vmx = vcpu.Iris_vtx.Vcpu.vmx in
  let launch = not (V.is_launched vcpu.Iris_vtx.Vcpu.vmcs) in
  let result = if launch then Op.vmlaunch vmx else Op.vmresume vmx in
  match result with
  | Ok Op.Entered ->
      Iris_vtx.Engine.complete_entry ctx.Ctx.dom.Domain.engine;
      Ok ()
  | Ok (Op.Entry_failed failure) ->
      let msg = Iris_vmcs.Entry_check.failure_message failure in
      Ctx.logf ctx "(XEN) d%d VM entry failure: %s" ctx.Ctx.dom.Domain.id msg;
      Ctx.domain_crash ctx ("VM entry failure: " ^ msg);
      Error msg
  | Error e ->
      Ctx.panic ctx (Format.asprintf "VM entry VMfail: %a" Op.pp_error e)

(* A blocked vCPU sleeps until the next platform event: fast-forward
   the clock, deliver due timer ticks, and run the interrupt-assist
   wakeup path. *)
let wait_for_event ctx =
  let dom = ctx.Ctx.dom in
  let clock = Ctx.clock ctx in
  let now = Iris_vtx.Clock.now clock in
  (* Only a *guest* event (a virtual platform timer) wakes a blocked
     vCPU; host timer ticks are serviced by the hypervisor natively
     while the guest is descheduled and cause no guest exits. *)
  match Vpt.next_deadline dom.Domain.vpt with
  | None ->
      (* Nothing will ever wake this guest. *)
      Ctx.domain_crash ctx "blocked with no pending timer"
  | Some target ->
      if target > now then
        Iris_vtx.Clock.advance64 clock (Int64.sub target now);
      let fired = Vpt.process dom.Domain.vpt ~now:(Iris_vtx.Clock.now clock) in
      List.iter
        (fun (_, vector) -> Vlapic.accept_irq dom.Domain.vlapic ~vector)
        fired;
      H_intr.assist ctx;
      dom.Domain.blocked <- false

let run ?(max_exits = max_int) ctx ~fetch =
  let dom = ctx.Ctx.dom in
  let clock = Ctx.clock ctx in
  let start_cycles = Iris_vtx.Clock.now clock in
  let exits = ref 0 in
  let result = ref None in
  while !result = None do
    if Domain.crashed dom then
      result :=
        Some (Crashed (match dom.Domain.crashed with Some r -> r | None -> ""))
    else if !exits >= max_exits then result := Some Budget
    else begin
      match Iris_vtx.Engine.run_until_exit dom.Domain.engine ~fetch with
      | Iris_vtx.Engine.Program_done -> result := Some Completed
      | Iris_vtx.Engine.Exit ev ->
          incr exits;
          dom.Domain.pending_insn <- ev.Iris_vtx.Engine.insn;
          Exitpath.handle ctx;
          dom.Domain.pending_insn <- None;
          if not (Domain.crashed dom) then begin
            if dom.Domain.blocked then wait_for_event ctx;
            if not (Domain.crashed dom) then
              match enter ctx with
              | Ok () -> ()
              | Error msg -> result := Some (Crashed msg)
          end
    end
  done;
  let stop = match !result with Some s -> s | None -> assert false in
  { stop;
    exits = !exits;
    cycles = Int64.sub (Iris_vtx.Clock.now clock) start_cycles }
