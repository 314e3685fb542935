(** Virtual CPU.

    Holds the live architectural guest state while the VM runs in
    non-root mode, plus the VMX machinery attached to it: the VMCS,
    the per-processor VMX context, and the simulated TSC.  On a VM
    exit the hardware saves the live state into the VMCS guest-state
    area — *except* the general-purpose registers, which stay in
    {!regs} for the hypervisor to save itself (that asymmetry is why
    IRIS seeds carry GPRs separately). *)

type t = {
  regs : Iris_x86.Gpr.file;
  mutable rip : int64;
  mutable rsp : int64;
  mutable rflags : int64;
  mutable cr0 : int64;
  mutable cr2 : int64;
  mutable cr3 : int64;
  mutable cr4 : int64;
  mutable cr8 : int64;
  mutable efer : int64;
  msrs : Iris_x86.Msr.file;
  segs : Iris_x86.Segment.t array;  (** indexed by segment name *)
  mutable gdtr_base : int64;
  mutable gdtr_limit : int64;
  mutable idtr_base : int64;
  mutable idtr_limit : int64;
  mutable dr7 : int64;
  mutable activity : int64;
  mutable interruptibility : int64;
  mutable pending_extint : int option;
      (** interrupt vector posted by the platform, awaiting either an
          external-interrupt exit or injection *)
  mutable in_delivery : Iris_x86.Exn.t option;
      (** exception currently being delivered (double/triple-fault
          escalation state) *)
  mutable force_triple_fault : bool;
  mutable code_base : int64;
  mutable code_size : int64;
      (** window the instruction pointer wraps in, so real-mode RIP
          stays inside the 16-bit CS limit *)
  mutable host_timer_deadline : int64;
      (** next host (hypervisor) timer tick in cycles; 0 disables.
          Host interrupts arriving in non-root mode cause
          external-interrupt exits. *)
  mutable host_timer_period : int64;
  mutable host_timer_vector : int;
  clock : Clock.t;
  vmx : Iris_vmcs.Vmx_op.ctx;
  vmcs : Iris_vmcs.Vmcs.t;
  mutable preemption_timer : int64;
      (** live countdown copy of the VMCS preemption-timer field *)
  mutable exits : int;  (** total VM exits taken, for trace bookkeeping *)
}

val create : unit -> t
(** Reset state: real mode, RIP at the top of the real-mode window,
    VMCS created but not yet configured. *)

val get_seg : t -> Iris_x86.Segment.name -> Iris_x86.Segment.t
val set_seg : t -> Iris_x86.Segment.name -> Iris_x86.Segment.t -> unit

val mode : t -> Iris_x86.Cpu_mode.t
(** Operating mode derived from the live CR0. *)

val if_enabled : t -> bool
(** RFLAGS.IF, gated by STI/MOV-SS interruptibility blocking. *)

val advance_rip : t -> int -> unit
(** Move RIP by an instruction length, wrapping inside the current
    code window. *)

val save_to_vmcs : t -> unit
(** Hardware context switch, guest → VMCS guest-state area. *)

val load_from_vmcs : t -> unit
(** Hardware context switch, VMCS guest-state area → guest. *)

val snapshot : t -> t
(** Deep copy for snapshot/revert. *)

val restore : t -> from:t -> unit
(** Overwrite [t]'s state from a snapshot taken with {!snapshot}. *)

(** {2 Incremental (copy-on-write) checkpoints}

    The scalar state (registers, MSRs, segments, clock) is a few
    hundred bytes and is captured eagerly; the VMCS is checkpointed
    through its write journal, so {!rewind} restores only the fields
    the epoch dirtied.  Like {!restore}, a rewind does not touch the
    VMX-operation context.  Checkpoints nest with the VMCS journal
    stack; {!restore} (the full-restore path) invalidates them. *)

type checkpoint

val checkpoint : t -> checkpoint

val rewind : t -> checkpoint -> int
(** Restore the state captured at [checkpoint] (which stays live);
    returns the number of VMCS fields restored.  A stale VMCS
    checkpoint raises [Invalid_argument] before anything changes. *)

val validate : t -> checkpoint -> unit
(** Raise what {!rewind} would raise on [checkpoint], changing nothing. *)

val commit : t -> checkpoint -> unit
(** Drop the innermost checkpoint, folding the VMCS journal into the
    parent epoch. *)
