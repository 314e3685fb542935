(** Non-root execution engine.

    Plays the hardware's part: executes guest instructions until one
    of them (or a pending event) must trap, then performs the VM-exit
    transition — saving guest state into the VMCS, recording the
    exit-information fields, and handing an {!event} to the caller
    (the hypervisor's exit dispatcher).  {!complete_entry} plays the
    VM-entry half: loading guest state back and delivering any event
    the hypervisor queued in the entry interruption-information
    field. *)

type event = {
  mutable reason : Exit_reason.t;
  mutable qualification : int64;
  mutable guest_linear : int64;
  mutable guest_physical : int64;
  mutable intr_info : int64;
  mutable intr_error : int64;
  mutable insn_len : int;
  mutable insn : Iris_x86.Insn.t option;
      (** the trapping instruction, available to the emulator on the
          record side; [None] on replayed exits, where there is no
          guest instruction stream to fetch from *)
}
(** Exit information, mirroring the VMCS exit-information area.  The
    fields are mutable because every exit of a vCPU is delivered
    through one preallocated scratch record (see {!t.scratch}):
    consume the event before the next call into the engine, exactly
    as a hypervisor must read the exit-information fields before the
    next VMLAUNCH overwrites them. *)

type outcome =
  | Exit of event
  | Program_done
      (** the instruction stream is exhausted without a trap *)

type t = {
  vcpu : Vcpu.t;
  mem : Iris_memory.Gmem.t;
  ept : Iris_memory.Ept.t;
  mutable exit_counters : Iris_telemetry.Registry.vec option;
      (** per-exit-reason telemetry counters, bumped at the VM-exit
          transition (hardware side, before the hypervisor dispatches);
          [None] keeps the transition uninstrumented *)
  scratch : event;
      (** the per-vCPU exit-information scratch record; every
          [Exit ev] returned by {!run_until_exit} aliases it *)
  scratch_exit : outcome;
      (** preallocated [Exit scratch] so the exit transition
          allocates nothing *)
}

val create :
  vcpu:Vcpu.t -> mem:Iris_memory.Gmem.t -> ept:Iris_memory.Ept.t -> t

val set_exit_counters : t -> Iris_telemetry.Registry.vec -> unit
(** Install the per-reason exit counter family, indexed by
    {!Exit_reason.code}. *)

val run_until_exit : t -> fetch:(unit -> Iris_x86.Insn.t option) -> outcome
(** Execute from the current guest state.  Checks, in priority order:
    forced triple fault, preemption-timer expiry, pending external
    interrupt (if unmasked), interrupt-window, then instructions.

    The returned [Exit ev] aliases the engine's scratch event; read
    what you need from it before calling into the engine again. *)

val complete_entry : t -> unit
(** VM-entry tail: load guest state from the VMCS, deliver a pending
    entry event, charge the entry-transition cost. *)

val inject_extint : Vcpu.t -> vector:int -> unit
(** Platform raises an interrupt line towards the vCPU. *)

val insn_length : Iris_x86.Insn.t -> int
(** Architectural instruction length recorded in the
    VM-exit-instruction-length field. *)
