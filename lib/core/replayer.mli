(** The IRIS replaying component (§IV-B, §V-B).

    Drives a *dummy VM* whose VMX-preemption timer is armed at zero:
    every VM entry immediately exits again before the guest executes
    a single instruction.  On each such exit a VM seed is submitted:

    - the recorded GPR values are copied into the hypervisor's saved
      register file;
    - recorded VMREAD pairs on *writable* fields are VMWRITten into
      the VMCS, so the handler re-reads them naturally;
    - recorded pairs on *read-only* fields (the exit-information
      area, including the exit reason itself) are served by a VMREAD
      shim installed in the hook set;

    then the ordinary exit dispatcher runs, followed by a full VM
    entry — whose architectural checks are deliberately kept in the
    loop to reject semantically-invalid states (the "bad RIP for
    mode 0" crash of §VI-B, and the fuzzer's VMCS-mutation crashes).

    Hypervisor panics propagate as {!Iris_hv.Ctx.Hypervisor_panic}. *)

type t

val create : Iris_hv.Ctx.t -> t
(** The context must wrap a dummy domain
    ([Iris_hv.Xen.construct ~dummy:true]). *)

(** {2 Ablation switches (DESIGN.md §4)}

    Each disables one architectural decision of the paper so the bench
    harness can quantify what it buys.  All default to the paper's
    behaviour. *)

val set_shim_enabled : t -> bool -> unit
(** [false]: recorded read-only fields are *not* served by the VMREAD
    shim — the handler sees the dummy VM's real exit information
    (always the preemption timer), so replay degenerates. *)

val set_entry_checks : t -> bool -> unit
(** [false]: skip the VM entry between seeds (the root-mode-loop
    alternative §IV-B argues against): semantically-invalid states
    are never rejected. *)

val set_trigger : t -> [ `Preemption_timer | `Hlt ] -> unit
(** [`Hlt]: model a dummy VM that triggers exits by halting instead of
    the preemption timer — each submission pays the HLT handler, the
    wakeup injection and the event delivery on top. *)

val ctx : t -> Iris_hv.Ctx.t

type outcome =
  | Replayed
      (** handler ran and the subsequent VM entry succeeded *)
  | Vm_crashed of string
      (** the domain died (entry failure, triple fault, ...) *)

val submit : t -> Seed.t -> outcome
(** Submit one seed.  After a [Vm_crashed] outcome, further submits
    return [Vm_crashed] immediately until the domain is reverted. *)

val submit_all : t -> Seed.t array -> int * outcome
(** Submit a whole trace in order; returns how many seeds completed
    and the final outcome. *)

val submit_batch : t -> Seed.t array -> int * outcome
(** Batched submission (paper §IX, "Replaying efficiency"): the whole
    seed buffer crosses the manager interface in one hypercall, so the
    fixed per-seed submission cost is paid once per batch instead of
    once per seed.  Per-record copy costs and the exit/handle/entry
    loop are unchanged. *)
