open Iris_x86
module F = Iris_vmcs.Field
module V = Iris_vmcs.Vmcs
module C = Iris_vmcs.Controls

type event = {
  mutable reason : Exit_reason.t;
  mutable qualification : int64;
  mutable guest_linear : int64;
  mutable guest_physical : int64;
  mutable intr_info : int64;
  mutable intr_error : int64;
  mutable insn_len : int;
  mutable insn : Insn.t option;
}

type outcome =
  | Exit of event
  | Program_done

type t = {
  vcpu : Vcpu.t;
  mem : Iris_memory.Gmem.t;
  ept : Iris_memory.Ept.t;
  mutable exit_counters : Iris_telemetry.Registry.vec option;
  scratch : event;
  scratch_exit : outcome;
}

let null_event reason =
  { reason;
    qualification = 0L;
    guest_linear = 0L;
    guest_physical = 0L;
    intr_info = 0L;
    intr_error = 0L;
    insn_len = 0;
    insn = None }

let create ~vcpu ~mem ~ept =
  let scratch = null_event Exit_reason.Preemption_timer in
  { vcpu; mem; ept; exit_counters = None; scratch;
    scratch_exit = Exit scratch }

let set_exit_counters t vec = t.exit_counters <- Some vec

(* Reset the per-vCPU scratch event for a new exit.  All exits flow
   through this one record: the old path allocated a fresh [event]
   (plus an [Exit] block) per VM exit, which at campaign rates was the
   engine's entire allocation budget.  Consumers pattern-match
   [Exit ev] and consume [ev] before the next call into the engine —
   the same single-ownership discipline hardware imposes on the
   VMCS exit-information area. *)
let scratch_reset t reason =
  let ev = t.scratch in
  ev.reason <- reason;
  ev.qualification <- 0L;
  ev.guest_linear <- 0L;
  ev.guest_physical <- 0L;
  ev.intr_info <- 0L;
  ev.intr_error <- 0L;
  ev.insn_len <- 0;
  ev.insn <- None;
  ev

let insn_length insn =
  match insn with
  | Insn.Compute _ -> 4
  | Insn.Set_gpr _ -> 5
  | Insn.Rdtsc | Insn.Cpuid _ | Insn.Rdmsr _ | Insn.Wrmsr _ -> 2
  | Insn.Rdtscp -> 3
  | Insn.Hlt | Insn.Pause | Insn.Sti | Insn.Cli | Insn.Int3 -> 1
  | Insn.Mov_to_cr _ | Insn.Mov_from_cr _ -> 3
  | Insn.Clts | Insn.Wbinvd -> 2
  | Insn.Lgdt _ | Insn.Lidt _ -> 7
  | Insn.Ltr _ -> 4
  | Insn.Out _ | Insn.In _ -> 2
  | Insn.Outs _ | Insn.Ins _ -> 2
  | Insn.Read_mem _ | Insn.Write_mem _ -> 4
  | Insn.Vmcall _ -> 3
  | Insn.Far_jump _ -> 7
  | Insn.Invlpg _ -> 3
  | Insn.Xsetbv _ -> 3

(* The faulting instruction's bytes live in guest memory at CS:RIP —
   that is where a hypervisor's emulator re-fetches them from.  The
   model materialises them lazily at trap time for the instructions
   that need software emulation, as a 10-byte record: tag, width,
   payload. *)
let materialize_insn_bytes t insn =
  let v = t.vcpu in
  let tagged =
    match insn with
    | Insn.Write_mem { width; value; _ } -> Some (1, width, value)
    | Insn.Read_mem { width; _ } -> Some (2, width, 0L)
    | Insn.Outs { width; src; _ } -> Some (3, Insn.io_bytes width, src)
    | Insn.Ins { width; dst_mem; _ } -> Some (4, Insn.io_bytes width, dst_mem)
    | Insn.Compute _ | Insn.Set_gpr _ | Insn.Rdtsc | Insn.Rdtscp | Insn.Hlt
    | Insn.Pause | Insn.Cpuid _ | Insn.Rdmsr _ | Insn.Wrmsr _
    | Insn.Mov_to_cr _ | Insn.Mov_from_cr _ | Insn.Clts | Insn.Lgdt _
    | Insn.Lidt _ | Insn.Ltr _ | Insn.Out _ | Insn.In _ | Insn.Vmcall _
    | Insn.Far_jump _ | Insn.Sti | Insn.Cli | Insn.Invlpg _ | Insn.Wbinvd
    | Insn.Xsetbv _ | Insn.Int3 ->
        None
  in
  match tagged with
  | None -> ()
  | Some (tag, width, payload) ->
      let cs = Vcpu.get_seg v Iris_x86.Segment.Cs in
      let lin = Int64.add cs.Iris_x86.Segment.base v.Vcpu.rip in
      if
        Iris_memory.Gmem.in_range t.mem lin
        && Iris_memory.Gmem.in_range t.mem (Int64.add lin 9L)
      then begin
        Iris_memory.Gmem.write t.mem lin ~width:1 (Int64.of_int tag);
        Iris_memory.Gmem.write t.mem (Int64.add lin 1L) ~width:1
          (Int64.of_int width);
        Iris_memory.Gmem.write t.mem (Int64.add lin 2L) ~width:8 payload
      end

(* The VM-exit transition: charge the hardware context-switch cost,
   save the live guest state and exit information into the VMCS.
   [ev] is always [t.scratch]; the preallocated [t.scratch_exit]
   returned here keeps the transition allocation-free. *)
let do_exit t ev =
  let v = t.vcpu in
  (match ev.insn with
  | Some insn -> materialize_insn_bytes t insn
  | None -> ());
  Clock.advance v.Vcpu.clock Cost.exit_transition;
  Vcpu.save_to_vmcs v;
  let vmcs = v.Vcpu.vmcs in
  V.write_exit_info vmcs F.vm_exit_reason
    (Exit_reason.reason_field_value ev.reason);
  V.write_exit_info vmcs F.exit_qualification ev.qualification;
  V.write_exit_info vmcs F.guest_linear_address ev.guest_linear;
  V.write_exit_info vmcs F.guest_physical_address ev.guest_physical;
  V.write_exit_info vmcs F.vm_exit_intr_info ev.intr_info;
  V.write_exit_info vmcs F.vm_exit_intr_error_code ev.intr_error;
  V.write_exit_info vmcs F.vm_exit_instruction_len (Int64.of_int ev.insn_len);
  V.write_exit_info vmcs F.io_rcx (Gpr.get v.Vcpu.regs Gpr.Rcx);
  V.write_exit_info vmcs F.io_rsi (Gpr.get v.Vcpu.regs Gpr.Rsi);
  V.write_exit_info vmcs F.io_rdi (Gpr.get v.Vcpu.regs Gpr.Rdi);
  V.write_exit_info vmcs F.io_rip v.Vcpu.rip;
  v.Vcpu.exits <- v.Vcpu.exits + 1;
  (match t.exit_counters with
  | None -> ()
  | Some vec ->
      Iris_telemetry.Registry.vec_incr vec (Exit_reason.code ev.reason));
  t.scratch_exit

let ctrl t f = V.read t.vcpu.Vcpu.vmcs f

let pin_has t mask = Int64.logand (ctrl t F.pin_based_vm_exec_control) mask <> 0L

let cpu_has t mask = Int64.logand (ctrl t F.cpu_based_vm_exec_control) mask <> 0L

let sec_has t mask =
  cpu_has t C.cpu_secondary_controls
  && Int64.logand (ctrl t F.secondary_vm_exec_control) mask <> 0L

(* Effective CR read value under guest/host mask + read shadow: bits
   owned by the host read from the shadow, the rest from the real
   register. *)
let cr_read_value ~real ~mask ~shadow =
  Int64.logor (Int64.logand real (Int64.lognot mask)) (Int64.logand shadow mask)

let charge t insn =
  let v = t.vcpu in
  let cycles = Insn.base_cycles insn in
  Clock.advance v.Vcpu.clock cycles;
  if pin_has t C.pin_preemption_timer then
    v.Vcpu.preemption_timer <-
      Int64.max 0L (Int64.sub v.Vcpu.preemption_timer (Int64.of_int cycles))

let tsc_value t =
  let offset =
    if cpu_has t C.cpu_tsc_offsetting then ctrl t F.tsc_offset else 0L
  in
  Int64.add (Clock.now t.vcpu.Vcpu.clock) offset

(* Execute a non-trapping instruction's architectural effect. *)
let apply_non_trapping t insn =
  let v = t.vcpu in
  charge t insn;
  Vcpu.advance_rip v (insn_length insn);
  match insn with
  | Insn.Compute _ -> ()
  | Insn.Set_gpr (r, value) -> Gpr.set v.Vcpu.regs r value
  | Insn.Sti -> v.Vcpu.rflags <- Rflags.set v.Vcpu.rflags Rflags.IF
  | Insn.Cli -> v.Vcpu.rflags <- Rflags.clear v.Vcpu.rflags Rflags.IF
  | Insn.Pause -> ()
  | Insn.Int3 -> ()
  | Insn.Wbinvd -> ()
  | Insn.Invlpg _ -> ()
  | Insn.Lgdt { base; limit } ->
      v.Vcpu.gdtr_base <- base;
      v.Vcpu.gdtr_limit <- Int64.of_int limit
  | Insn.Lidt { base; limit } ->
      v.Vcpu.idtr_base <- base;
      v.Vcpu.idtr_limit <- Int64.of_int limit
  | Insn.Ltr sel ->
      Vcpu.set_seg v Segment.Tr
        { Segment.initial_tr with Segment.selector = sel }
  | Insn.Far_jump { target; code64 } ->
      let cs = if code64 then Segment.flat_code64 else Segment.flat_code32 in
      Vcpu.set_seg v Segment.Cs cs;
      Vcpu.set_seg v Segment.Ds Segment.flat_data32;
      Vcpu.set_seg v Segment.Ss Segment.flat_data32;
      v.Vcpu.rip <- target;
      v.Vcpu.code_base <- target;
      v.Vcpu.code_size <- 0x100000L
  | Insn.Read_mem { gpa; width } ->
      Gpr.set v.Vcpu.regs Gpr.Rax (Iris_memory.Gmem.read t.mem gpa ~width)
  | Insn.Write_mem { gpa; width; value } ->
      Iris_memory.Gmem.write t.mem gpa ~width value
  | Insn.Mov_to_cr (cr, value) -> (
      (* Only reached when the access does not trap. *)
      match cr with
      | Insn.Creg0 -> v.Vcpu.cr0 <- value
      | Insn.Creg3 -> v.Vcpu.cr3 <- value
      | Insn.Creg4 -> v.Vcpu.cr4 <- value
      | Insn.Creg8 -> v.Vcpu.cr8 <- value)
  | Insn.Mov_from_cr (cr, dst) ->
      let value =
        match cr with
        | Insn.Creg0 ->
            cr_read_value ~real:v.Vcpu.cr0
              ~mask:(ctrl t F.cr0_guest_host_mask)
              ~shadow:(ctrl t F.cr0_read_shadow)
        | Insn.Creg3 -> v.Vcpu.cr3
        | Insn.Creg4 ->
            cr_read_value ~real:v.Vcpu.cr4
              ~mask:(ctrl t F.cr4_guest_host_mask)
              ~shadow:(ctrl t F.cr4_read_shadow)
        | Insn.Creg8 -> v.Vcpu.cr8
      in
      Gpr.set v.Vcpu.regs dst value
  | Insn.Clts ->
      v.Vcpu.cr0 <- Cr0.clear v.Vcpu.cr0 Cr0.TS
  | Insn.Rdtsc ->
      let tsc = tsc_value t in
      Gpr.set v.Vcpu.regs Gpr.Rax (Int64.logand tsc 0xFFFFFFFFL);
      Gpr.set v.Vcpu.regs Gpr.Rdx (Int64.shift_right_logical tsc 32)
  | Insn.Rdtscp ->
      let tsc = tsc_value t in
      Gpr.set v.Vcpu.regs Gpr.Rax (Int64.logand tsc 0xFFFFFFFFL);
      Gpr.set v.Vcpu.regs Gpr.Rdx (Int64.shift_right_logical tsc 32);
      Gpr.set v.Vcpu.regs Gpr.Rcx (Msr.read v.Vcpu.msrs Msr.Ia32_tsc_aux)
  | Insn.Hlt ->
      v.Vcpu.activity <- C.activity_hlt
  | Insn.Cpuid _ | Insn.Rdmsr _ | Insn.Wrmsr _ | Insn.Out _ | Insn.In _
  | Insn.Outs _ | Insn.Ins _ | Insn.Vmcall _ | Insn.Xsetbv _ ->
      (* These always trap in this model; reaching here is a bug in
         the classifier. *)
      assert false

(* Decide whether an instruction traps and, if so, fill the scratch
   event with its exit information. *)
let classify t insn =
  let len = insn_length insn in
  let qual_cr cr access gpr =
    Exit_qual.encode_cr { Exit_qual.cr; access; gpr }
  in
  let trap ?(qualification = 0L) ?(guest_linear = 0L) ?(guest_physical = 0L)
      reason =
    let ev = scratch_reset t reason in
    ev.qualification <- qualification;
    ev.guest_linear <- guest_linear;
    ev.guest_physical <- guest_physical;
    ev.insn_len <- len;
    ev.insn <- Some insn;
    true
  in
  match insn with
  | Insn.Cpuid _ -> trap Exit_reason.Cpuid
  | Insn.Vmcall _ -> trap Exit_reason.Vmcall
  | Insn.Xsetbv _ -> trap Exit_reason.Xsetbv
  | Insn.Rdmsr _ -> trap Exit_reason.Rdmsr
  | Insn.Wrmsr _ -> trap Exit_reason.Wrmsr
  | Insn.Rdtsc ->
      if cpu_has t C.cpu_rdtsc_exiting then trap Exit_reason.Rdtsc else false
  | Insn.Rdtscp ->
      if cpu_has t C.cpu_rdtsc_exiting then trap Exit_reason.Rdtscp else false
  | Insn.Hlt ->
      if cpu_has t C.cpu_hlt_exiting then trap Exit_reason.Hlt else false
  | Insn.Pause ->
      if cpu_has t C.cpu_pause_exiting then trap Exit_reason.Pause else false
  | Insn.Invlpg addr ->
      if cpu_has t C.cpu_invlpg_exiting then
        trap ~qualification:addr Exit_reason.Invlpg
      else false
  | Insn.Wbinvd ->
      if sec_has t C.sec_wbinvd_exiting then trap Exit_reason.Wbinvd else false
  | Insn.Mov_to_cr (cr, value) -> (
      match cr with
      | Insn.Creg0 | Insn.Creg4 ->
          let mask_f, shadow_f, crn =
            if cr = Insn.Creg0 then (F.cr0_guest_host_mask, F.cr0_read_shadow, 0)
            else (F.cr4_guest_host_mask, F.cr4_read_shadow, 4)
          in
          let mask = ctrl t mask_f and shadow = ctrl t shadow_f in
          if Int64.logand (Int64.logxor value shadow) mask <> 0L then
            trap
              ~qualification:(qual_cr crn Exit_qual.Mov_to_cr Gpr.Rax)
              Exit_reason.Cr_access
          else false
      | Insn.Creg3 ->
          if cpu_has t C.cpu_cr3_load_exiting then
            trap
              ~qualification:(qual_cr 3 Exit_qual.Mov_to_cr Gpr.Rax)
              Exit_reason.Cr_access
          else false
      | Insn.Creg8 ->
          if cpu_has t C.cpu_cr8_load_exiting then
            trap
              ~qualification:(qual_cr 8 Exit_qual.Mov_to_cr Gpr.Rax)
              Exit_reason.Cr_access
          else false)
  | Insn.Mov_from_cr (cr, dst) -> (
      match cr with
      | Insn.Creg3 ->
          if cpu_has t C.cpu_cr3_store_exiting then
            trap
              ~qualification:(qual_cr 3 Exit_qual.Mov_from_cr dst)
              Exit_reason.Cr_access
          else false
      | Insn.Creg8 ->
          if cpu_has t C.cpu_cr8_store_exiting then
            trap
              ~qualification:(qual_cr 8 Exit_qual.Mov_from_cr dst)
              Exit_reason.Cr_access
          else false
      | Insn.Creg0 | Insn.Creg4 -> false)
  | Insn.Clts ->
      let mask = ctrl t F.cr0_guest_host_mask in
      if Iris_util.Bits.test mask (Cr0.bit_of_flag Cr0.TS) then
        trap
          ~qualification:(qual_cr 0 Exit_qual.Clts_op Gpr.Rax)
          Exit_reason.Cr_access
      else false
  | Insn.Out { port; width; _ } | Insn.In { port; width; _ } ->
      if cpu_has t C.cpu_uncond_io_exiting || cpu_has t C.cpu_use_io_bitmaps
      then begin
        let direction =
          match insn with Insn.In _ -> Exit_qual.Io_in | _ -> Exit_qual.Io_out
        in
        let q =
          Exit_qual.encode_io
            { Exit_qual.size = Insn.io_bytes width;
              direction;
              string_op = false;
              rep = false;
              port }
        in
        trap ~qualification:q Exit_reason.Io_instruction
      end
      else false
  | Insn.Outs { port; width; src; count } ->
      let q =
        Exit_qual.encode_io
          { Exit_qual.size = Insn.io_bytes width;
            direction = Exit_qual.Io_out;
            string_op = true;
            rep = count > 1;
            port }
      in
      trap ~qualification:q ~guest_linear:src Exit_reason.Io_instruction
  | Insn.Ins { port; width; dst_mem; count } ->
      let q =
        Exit_qual.encode_io
          { Exit_qual.size = Insn.io_bytes width;
            direction = Exit_qual.Io_in;
            string_op = true;
            rep = count > 1;
            port }
      in
      trap ~qualification:q ~guest_linear:dst_mem Exit_reason.Io_instruction
  | Insn.Read_mem { gpa; _ } -> (
      match Iris_memory.Ept.check t.ept ~gpa Iris_memory.Ept.Read with
      | Ok () -> false
      | Error viol ->
          trap
            ~qualification:(Iris_memory.Ept.qualification viol)
            ~guest_linear:gpa ~guest_physical:gpa Exit_reason.Ept_violation)
  | Insn.Write_mem { gpa; _ } -> (
      match Iris_memory.Ept.check t.ept ~gpa Iris_memory.Ept.Write with
      | Ok () -> false
      | Error viol ->
          trap
            ~qualification:(Iris_memory.Ept.qualification viol)
            ~guest_linear:gpa ~guest_physical:gpa Exit_reason.Ept_violation)
  | Insn.Lgdt _ | Insn.Lidt _ ->
      if sec_has t C.sec_desc_table_exiting then
        trap Exit_reason.Gdtr_idtr_access
      else false
  | Insn.Ltr _ ->
      if sec_has t C.sec_desc_table_exiting then
        trap Exit_reason.Ldtr_tr_access
      else false
  | Insn.Int3 ->
      if Iris_util.Bits.test (ctrl t F.exception_bitmap) (Exn.vector Exn.BP)
      then begin
        let trapped = trap ~qualification:0L Exit_reason.Exception_or_nmi in
        t.scratch.intr_info <-
          C.make_intr_info ~typ:C.Software_exception
            ~vector:(Exn.vector Exn.BP) ();
        trapped
      end
      else false
  | Insn.Compute _ | Insn.Set_gpr _ | Insn.Sti | Insn.Cli | Insn.Far_jump _
    ->
      false

(* Trapping instructions carry operands in architectural registers:
   the handler reads them from the hypervisor-saved GPR file, so the
   engine must have placed them there before the exit (the guest did,
   when it set up the instruction). *)
let setup_trap_registers v insn =
  let set r value = Gpr.set v.Vcpu.regs r value in
  let split_edx_eax value =
    set Gpr.Rax (Int64.logand value 0xFFFFFFFFL);
    set Gpr.Rdx (Int64.shift_right_logical value 32)
  in
  match insn with
  | Insn.Cpuid { leaf; subleaf } ->
      set Gpr.Rax leaf;
      set Gpr.Rcx subleaf
  | Insn.Rdmsr idx -> set Gpr.Rcx idx
  | Insn.Wrmsr (idx, value) ->
      set Gpr.Rcx idx;
      split_edx_eax value
  | Insn.Mov_to_cr (_, value) -> set Gpr.Rax value
  | Insn.Out { value; _ } -> set Gpr.Rax value
  | Insn.Outs { count; src; _ } ->
      set Gpr.Rcx (Int64.of_int count);
      set Gpr.Rsi src
  | Insn.Ins { count; dst_mem; _ } ->
      set Gpr.Rcx (Int64.of_int count);
      set Gpr.Rdi dst_mem
  | Insn.Vmcall { nr; arg } ->
      set Gpr.Rax nr;
      set Gpr.Rbx arg
  | Insn.Xsetbv { idx; value } ->
      set Gpr.Rcx idx;
      split_edx_eax value
  | Insn.Invlpg addr -> set Gpr.Rax addr
  | Insn.Compute _ | Insn.Set_gpr _ | Insn.Rdtsc | Insn.Rdtscp | Insn.Hlt
  | Insn.Pause | Insn.Mov_from_cr _ | Insn.Clts | Insn.Lgdt _ | Insn.Lidt _
  | Insn.Ltr _ | Insn.In _ | Insn.Read_mem _ | Insn.Write_mem _
  | Insn.Far_jump _ | Insn.Sti | Insn.Cli | Insn.Wbinvd | Insn.Int3 ->
      ()

(* A host (hypervisor-owned) timer interrupt arriving while the guest
   runs becomes a pending external interrupt, which exits below. *)
let poll_host_timer v =
  if v.Vcpu.host_timer_deadline > 0L
     && Clock.now v.Vcpu.clock >= v.Vcpu.host_timer_deadline
  then begin
    v.Vcpu.pending_extint <- Some v.Vcpu.host_timer_vector;
    let period = Int64.max 1L v.Vcpu.host_timer_period in
    let now = Clock.now v.Vcpu.clock in
    let behind = Int64.sub now v.Vcpu.host_timer_deadline in
    let missed = Int64.div behind period in
    v.Vcpu.host_timer_deadline <-
      Int64.add v.Vcpu.host_timer_deadline
        (Int64.mul (Int64.add missed 1L) period)
  end

let rec run_until_exit t ~fetch =
  let v = t.vcpu in
  poll_host_timer v;
  if v.Vcpu.force_triple_fault then begin
    v.Vcpu.force_triple_fault <- false;
    do_exit t (scratch_reset t Exit_reason.Triple_fault)
  end
  else if pin_has t C.pin_preemption_timer && v.Vcpu.preemption_timer <= 0L
  then do_exit t (scratch_reset t Exit_reason.Preemption_timer)
  else begin
    match v.Vcpu.pending_extint with
    | Some vector when pin_has t C.pin_ext_intr_exiting ->
        (* Host interrupts exit unconditionally under external-
           interrupt exiting; guest RFLAGS.IF does not mask them. *)
        (* Acknowledge-interrupt-on-exit: the vector is consumed and
           reported in the exit interruption information. *)
        let ack =
          Int64.logand (ctrl t F.vm_exit_controls) C.exit_ack_intr_on_exit
          <> 0L
        in
        let intr_info =
          if ack then
            C.make_intr_info ~typ:C.External_interrupt ~vector ()
          else 0L
        in
        if ack then v.Vcpu.pending_extint <- None;
        let ev = scratch_reset t Exit_reason.External_interrupt in
        ev.intr_info <- intr_info;
        do_exit t ev
    | Some _ when cpu_has t C.cpu_intr_window_exiting && Vcpu.if_enabled v ->
        do_exit t (scratch_reset t Exit_reason.Interrupt_window)
    | None when cpu_has t C.cpu_intr_window_exiting && Vcpu.if_enabled v ->
        do_exit t (scratch_reset t Exit_reason.Interrupt_window)
    | Some _ | None -> (
        match fetch () with
        | None -> Program_done
        | Some insn ->
            if classify t insn then begin
              (* Decode cost of the trapping instruction. *)
              charge t insn;
              setup_trap_registers v insn;
              do_exit t t.scratch
            end
            else begin
              apply_non_trapping t insn;
              run_until_exit t ~fetch
            end)
  end

let complete_entry t =
  let v = t.vcpu in
  Clock.advance v.Vcpu.clock Cost.entry_transition;
  Vcpu.load_from_vmcs v;
  let info = V.read v.Vcpu.vmcs F.vm_entry_intr_info in
  if C.intr_info_is_valid info then begin
    (* Event injection: the guest vectors through its IDT.  We charge
       the delivery cost and clear the valid bit, as hardware does. *)
    Clock.advance v.Vcpu.clock Cost.event_injection;
    V.write_exit_info v.Vcpu.vmcs F.vm_entry_intr_info 0L;
    v.Vcpu.activity <- C.activity_active;
    v.Vcpu.interruptibility <- 0L
  end

let inject_extint vcpu ~vector =
  assert (vector >= 0 && vector < 256);
  vcpu.Vcpu.pending_extint <- Some vector
