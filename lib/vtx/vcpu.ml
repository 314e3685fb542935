open Iris_x86
module F = Iris_vmcs.Field
module V = Iris_vmcs.Vmcs

type t = {
  regs : Gpr.file;
  mutable rip : int64;
  mutable rsp : int64;
  mutable rflags : int64;
  mutable cr0 : int64;
  mutable cr2 : int64;
  mutable cr3 : int64;
  mutable cr4 : int64;
  mutable cr8 : int64;
  mutable efer : int64;
  msrs : Msr.file;
  segs : Segment.t array;
  mutable gdtr_base : int64;
  mutable gdtr_limit : int64;
  mutable idtr_base : int64;
  mutable idtr_limit : int64;
  mutable dr7 : int64;
  mutable activity : int64;
  mutable interruptibility : int64;
  mutable pending_extint : int option;
  mutable in_delivery : Exn.t option;
  mutable force_triple_fault : bool;
  mutable code_base : int64;
  mutable code_size : int64;
  mutable host_timer_deadline : int64;
  mutable host_timer_period : int64;
  mutable host_timer_vector : int;
  clock : Clock.t;
  vmx : Iris_vmcs.Vmx_op.ctx;
  vmcs : V.t;
  mutable preemption_timer : int64;
  mutable exits : int;
}

let seg_index n =
  let open Segment in
  match n with
  | Cs -> 0 | Ds -> 1 | Es -> 2 | Fs -> 3 | Gs -> 4 | Ss -> 5
  | Tr -> 6 | Ldtr -> 7

let create () =
  let segs =
    Array.of_list (List.map Segment.real_mode Segment.all_names)
  in
  segs.(seg_index Segment.Tr) <- Segment.initial_tr;
  segs.(seg_index Segment.Ldtr) <- Segment.initial_ldtr;
  { regs = Gpr.create ();
    rip = 0x1000L;
    rsp = 0x8000L;
    rflags = Rflags.reset_value;
    cr0 = Cr0.reset_value;
    cr2 = 0L;
    cr3 = 0L;
    cr4 = 0L;
    cr8 = 0L;
    efer = 0L;
    msrs = Msr.create_file ();
    segs;
    gdtr_base = 0L;
    gdtr_limit = 0xFFFFL;
    idtr_base = 0L;
    idtr_limit = 0x3FFL;
    dr7 = 0x400L;
    activity = Iris_vmcs.Controls.activity_active;
    interruptibility = 0L;
    pending_extint = None;
    in_delivery = None;
    force_triple_fault = false;
    code_base = 0x1000L;
    code_size = 0xE000L;
    host_timer_deadline = 0L;
    host_timer_period = 0L;
    host_timer_vector = 0xEF;
    clock = Clock.create ();
    vmx = Iris_vmcs.Vmx_op.create ();
    vmcs = V.create ();
    preemption_timer = 0L;
    exits = 0 }

let get_seg t n = t.segs.(seg_index n)

let set_seg t n s = t.segs.(seg_index n) <- s

let mode t = Cpu_mode.of_cr0 t.cr0

let if_enabled t =
  Rflags.test t.rflags Rflags.IF
  && Int64.logand t.interruptibility
       (Int64.logor Iris_vmcs.Controls.interruptibility_sti_blocking
          Iris_vmcs.Controls.interruptibility_mov_ss_blocking)
     = 0L

let advance_rip t len =
  assert (len >= 0);
  let off = Int64.sub t.rip t.code_base in
  let off' = Int64.rem (Int64.add off (Int64.of_int len)) t.code_size in
  t.rip <- Int64.add t.code_base off'

(* Apply [f t] to every segment name, without the closure a partial
   application would allocate on each transition. *)
let rec each_seg f t = function
  | [] -> ()
  | name :: rest ->
      f t name;
      each_seg f t rest

(* Hardware guest-state save.  Uses the processor-internal write path:
   these stores are performed by the CPU during the exit transition,
   not by hypervisor VMWRITEs, so they are invisible to IRIS hooks.
   Selectors and AR bytes are cached as ints: [save_int] stores the
   VMCS's own boxed copy when it already holds the value, so an
   unchanged segment saves without allocating.  The store is still
   journaled. *)
let save_int vmcs f i =
  let cur = V.read vmcs f in
  V.write_exit_info vmcs f (if Int64.of_int i = cur then cur else Int64.of_int i)

let save_seg t name =
  let sel_f, base_f, limit_f, ar_f = F.segment_fields name in
  let s = get_seg t name in
  save_int t.vmcs sel_f s.Segment.selector;
  V.write_exit_info t.vmcs base_f s.Segment.base;
  V.write_exit_info t.vmcs limit_f s.Segment.limit;
  save_int t.vmcs ar_f s.Segment.ar

let save_to_vmcs t =
  let vmcs = t.vmcs in
  V.write_exit_info vmcs F.guest_cr0 t.cr0;
  V.write_exit_info vmcs F.guest_cr3 t.cr3;
  V.write_exit_info vmcs F.guest_cr4 t.cr4;
  V.write_exit_info vmcs F.guest_rip t.rip;
  V.write_exit_info vmcs F.guest_rsp t.rsp;
  V.write_exit_info vmcs F.guest_rflags t.rflags;
  V.write_exit_info vmcs F.guest_ia32_efer t.efer;
  V.write_exit_info vmcs F.guest_dr7 t.dr7;
  V.write_exit_info vmcs F.guest_activity_state t.activity;
  V.write_exit_info vmcs F.guest_interruptibility_info t.interruptibility;
  V.write_exit_info vmcs F.guest_gdtr_base t.gdtr_base;
  V.write_exit_info vmcs F.guest_gdtr_limit t.gdtr_limit;
  V.write_exit_info vmcs F.guest_idtr_base t.idtr_base;
  V.write_exit_info vmcs F.guest_idtr_limit t.idtr_limit;
  V.write_exit_info vmcs F.guest_sysenter_cs (Msr.read t.msrs Msr.Ia32_sysenter_cs);
  V.write_exit_info vmcs F.guest_sysenter_esp (Msr.read t.msrs Msr.Ia32_sysenter_esp);
  V.write_exit_info vmcs F.guest_sysenter_eip (Msr.read t.msrs Msr.Ia32_sysenter_eip);
  each_seg save_seg t Segment.all_names

(* Rebuild the cached segment record only when the VMCS copy actually
   moved: segment state is cold on the exit hot path, and skipping the
   rebuild keeps the entry transition from allocating six records per
   entry. *)
let load_seg t name =
  let sel_f, base_f, limit_f, ar_f = F.segment_fields name in
  let selector = Int64.to_int (V.read t.vmcs sel_f) in
  let base = V.read t.vmcs base_f in
  let limit = V.read t.vmcs limit_f in
  let ar = Int64.to_int (V.read t.vmcs ar_f) in
  let s = get_seg t name in
  if
    s.Segment.selector <> selector
    || s.Segment.base <> base
    || s.Segment.limit <> limit
    || s.Segment.ar <> ar
  then set_seg t name { Segment.selector; base; limit; ar }

let load_from_vmcs t =
  let vmcs = t.vmcs in
  t.cr0 <- V.read vmcs F.guest_cr0;
  t.cr3 <- V.read vmcs F.guest_cr3;
  t.cr4 <- V.read vmcs F.guest_cr4;
  t.rip <- V.read vmcs F.guest_rip;
  t.rsp <- V.read vmcs F.guest_rsp;
  t.rflags <- Rflags.canonical (V.read vmcs F.guest_rflags);
  t.efer <- V.read vmcs F.guest_ia32_efer;
  t.dr7 <- V.read vmcs F.guest_dr7;
  t.activity <- V.read vmcs F.guest_activity_state;
  t.interruptibility <- V.read vmcs F.guest_interruptibility_info;
  t.gdtr_base <- V.read vmcs F.guest_gdtr_base;
  t.gdtr_limit <- V.read vmcs F.guest_gdtr_limit;
  t.idtr_base <- V.read vmcs F.guest_idtr_base;
  t.idtr_limit <- V.read vmcs F.guest_idtr_limit;
  Msr.write t.msrs Msr.Ia32_sysenter_cs (V.read vmcs F.guest_sysenter_cs);
  Msr.write t.msrs Msr.Ia32_sysenter_esp (V.read vmcs F.guest_sysenter_esp);
  Msr.write t.msrs Msr.Ia32_sysenter_eip (V.read vmcs F.guest_sysenter_eip);
  each_seg load_seg t Segment.all_names;
  t.preemption_timer <- V.read vmcs F.guest_preemption_timer

let snapshot t =
  { t with
    regs = Gpr.copy t.regs;
    msrs = Msr.copy_file t.msrs;
    segs = Array.copy t.segs;
    clock = Clock.copy t.clock;
    vmx = Iris_vmcs.Vmx_op.copy t.vmx;
    vmcs = V.copy t.vmcs }

(* Everything [restore] puts back except the VMCS, which [rewind]
   handles through its write journal instead of a full blit. *)
let restore_scalars t ~from =
  Gpr.copy_into ~src:from.regs ~dst:t.regs;
  t.rip <- from.rip;
  t.rsp <- from.rsp;
  t.rflags <- from.rflags;
  t.cr0 <- from.cr0;
  t.cr2 <- from.cr2;
  t.cr3 <- from.cr3;
  t.cr4 <- from.cr4;
  t.cr8 <- from.cr8;
  t.efer <- from.efer;
  Msr.copy_into ~src:from.msrs ~dst:t.msrs;
  Array.blit from.segs 0 t.segs 0 (Array.length t.segs);
  t.gdtr_base <- from.gdtr_base;
  t.gdtr_limit <- from.gdtr_limit;
  t.idtr_base <- from.idtr_base;
  t.idtr_limit <- from.idtr_limit;
  t.dr7 <- from.dr7;
  t.activity <- from.activity;
  t.interruptibility <- from.interruptibility;
  t.pending_extint <- from.pending_extint;
  t.in_delivery <- from.in_delivery;
  t.force_triple_fault <- from.force_triple_fault;
  t.code_base <- from.code_base;
  t.code_size <- from.code_size;
  t.host_timer_deadline <- from.host_timer_deadline;
  t.host_timer_period <- from.host_timer_period;
  t.host_timer_vector <- from.host_timer_vector;
  Clock.set t.clock (Clock.now from.clock);
  t.preemption_timer <- from.preemption_timer;
  t.exits <- from.exits

(* --- incremental (copy-on-write) checkpoints ---

   The scalar state (registers, MSRs, segments, clock) is a few
   hundred bytes and is captured eagerly; the VMCS — the bulk of the
   restore footprint — is checkpointed through its write journal so a
   rewind touches only the fields the epoch dirtied.  Like [restore],
   a rewind leaves the VMX-operation context alone. *)

type checkpoint = {
  cp_scalars : t;  (* eager copy; its vmcs/vmx fields are unused *)
  cp_vmcs : V.checkpoint;
}

let checkpoint t =
  { cp_scalars =
      { t with
        regs = Gpr.copy t.regs;
        msrs = Msr.copy_file t.msrs;
        segs = Array.copy t.segs;
        clock = Clock.copy t.clock };
    cp_vmcs = V.checkpoint t.vmcs }

let validate t cp = V.validate t.vmcs cp.cp_vmcs

(* The VMCS first: a stale checkpoint raises before anything changed. *)
let rewind t cp =
  let restored = V.rewind t.vmcs cp.cp_vmcs in
  restore_scalars t ~from:cp.cp_scalars;
  restored

let commit t cp = V.commit t.vmcs cp.cp_vmcs

let restore t ~from =
  restore_scalars t ~from;
  V.restore_from t.vmcs ~src:from.vmcs
