(** Top level: domain construction and the exit/entry run loop.

    [construct] mirrors Xen's [construct_vmcs]: VMXON, VMCLEAR,
    VMPTRLD, then programming the execution controls the rest of the
    model relies on (external-interrupt exiting, HLT/RDTSC exiting,
    unconditional I/O exiting, EPT, unrestricted guest, CR0/CR4 masks
    and shadows, host state).  A dummy domain additionally arms the
    VMX-preemption timer at zero — the IRIS replay trigger (§V-B).

    [run] drives a guest program: engine → dispatcher → (block/wake)
    → VM entry, until the program ends, an exit budget is consumed,
    the domain crashes, or the hypervisor panics. *)

val construct :
  ?dummy:bool -> cov:Iris_coverage.Cov.t -> hooks:Hooks.t -> name:string ->
  unit -> Ctx.t
(** Build a 1 GiB domain (the paper's DomU size; the dummy VM is one
    too) ready to launch.  Its id is the next unused domain id, drawn
    from an atomic counter so concurrent construction from
    orchestrator worker domains is safe. *)

type stop_reason =
  | Completed      (** instruction stream exhausted *)
  | Crashed of string
  | Budget         (** [max_exits] reached *)

type run_result = {
  stop : stop_reason;
  exits : int;          (** exits taken during this run *)
  cycles : int64;       (** cycles consumed during this run *)
}

val run :
  ?max_exits:int ->
  Ctx.t -> fetch:(unit -> Iris_x86.Insn.t option) -> run_result
(** May raise {!Ctx.Hypervisor_panic}. *)

val enter : Ctx.t -> (unit, string) result
(** One VM entry (VMLAUNCH or VMRESUME as appropriate) including the
    engine's entry completion.  [Error] means the entry failed and the
    domain was crashed; a VMfail panics. *)
