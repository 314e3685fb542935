(** Porting IRIS VM seeds between VT-x and SVM (paper §IX).

    A recorded VT-x seed is a list of VMCS {field, value} reads plus
    the 15 hypervisor-saved GPRs.  On SVM the same information lands
    differently:

    - VMCS guest-state / control fields map to VMCB save / control
      fields (the table below);
    - the read-only exit-information fields (exit reason,
      qualification, guest-physical address) become *writable* VMCB
      fields (EXITCODE, EXITINFO1/2) — an SVM replayer needs no VMREAD
      shim at all;
    - guest RAX moves out of the register list into the VMCB save
      area, leaving 14 hypervisor-saved GPRs.

    [translate] applies that mapping, reporting what could not be
    carried over (VT-x-only fields), so a campaign can quantify how
    portable a given trace is. *)

type vmcb_write = { field : Vmcb.field; value : int64 }

type untranslatable = {
  vmcs_field : Iris_vmcs.Field.t;
  reason : string;
}

type translated = {
  writes : vmcb_write list;
      (** stores to perform on the target VMCB, in seed order *)
  rax : int64;
      (** goes into the VMCB save area, not the GPR list *)
  gprs : (Iris_x86.Gpr.reg * int64) list;
      (** the remaining 14 hypervisor-saved registers *)
  exitcode : Exitcode.t option;
      (** translated exit reason, if it has an SVM counterpart *)
  dropped : untranslatable list;
}

val field_map : (Iris_vmcs.Field.t * Vmcb.field) list
(** The static VMCS→VMCB correspondence. *)

val map_field : Iris_vmcs.Field.t -> Vmcb.field option

val translate : Iris_core.Seed.t -> translated

val dropped_fields : Iris_core.Trace.t -> (Iris_vmcs.Field.t * int) list
(** How often {!translate} drops each VT-x-only field across a whole
    trace, most-dropped first. *)

val coverage_pct : Iris_core.Trace.t -> float
(** Share of VMCS read records across a whole trace that translate to
    VMCB fields — the portability headline number. *)

val apply : Vmcb.t -> translated -> unit
(** Perform the stores on a VMCB (plus EXITCODE when available) — what
    an SVM replayer's injection step would do. *)
