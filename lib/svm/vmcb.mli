(** AMD SVM's Virtual Machine Control Block (paper §IX,
    "Portability").

    The VMCB "holds information for the hypervisor and the guest
    similarly to the VMCS", with two structural differences that
    matter to IRIS:

    - it is a plain 4 KiB memory page: the hypervisor reads and
      writes fields with ordinary loads/stores (no VMREAD/VMWRITE
      instructions, hence no read-only fields and no need for the
      replayer's VMREAD shim — seed injection is all stores);
    - guest RAX lives *inside* the save area (the world switch swaps
      it), so an SVM seed carries 14 hypervisor-saved GPRs instead of
      VT-x's 15.

    Offsets follow the AMD64 Architecture Programmer's Manual vol. 2,
    Appendix B. *)

type t
(** One VMCB (control area + state save area). *)

type field = private int
(** Dense field index. *)

type area = Control | Save

val def : string -> int -> area -> field
(** Register a field. Only usable during module initialisation: the
    table is frozen once built and any later call raises
    [Invalid_argument]. *)

val is_frozen : unit -> bool
(** True once the table is built; [def] raises from then on. *)

val create : unit -> t
val copy : t -> t

val count : int
val all : field array
val name : field -> string
val offset : field -> int
(** Byte offset within the 4 KiB VMCB page. *)

val area : field -> area
val of_offset : int -> field option

val read : t -> field -> int64
val write : t -> field -> int64 -> unit
(** Plain stores: every field is writable, including exit codes. *)

(** {2 Incremental (copy-on-write) checkpoints}

    A dense {!Iris_util.Journal} over the fields, as in
    [Iris_vmcs.Vmcs]: {!rewind} restores only the fields written since
    the checkpoint and returns how many. *)

type checkpoint

val checkpoint : t -> checkpoint
val rewind : t -> checkpoint -> int
val commit : t -> checkpoint -> unit

val nonzero_fields : t -> (field * int64) list
val pp : Format.formatter -> t -> unit

(** {2 Control-area fields} *)

val intercept_cr_reads : field
val intercept_cr_writes : field
val intercept_exceptions : field
val intercept_misc1 : field       (* INTR, NMI, HLT, IOIO, MSR, CPUID, RDTSC... *)
val intercept_misc2 : field       (* VMRUN, VMMCALL, ... *)
val iopm_base_pa : field
val msrpm_base_pa : field
val tsc_offset : field
val guest_asid : field
val tlb_control : field
val vintr : field                 (* virtual interrupt state (V_IRQ, V_TPR) *)
val interrupt_shadow : field
val exitcode : field
val exitinfo1 : field
val exitinfo2 : field
val exitintinfo : field
val np_enable : field             (* nested paging *)
val eventinj : field
val n_cr3 : field

val next_rip : field
(** SVM's decode-assist replacement for VT-x's exit-instruction
    length: the address of the next instruction. *)

(** {2 State-save-area fields} *)

val save_es_selector : field
val save_es_attrib : field
val save_es_base : field
val save_es_limit : field
val save_cs_selector : field
val save_cs_attrib : field
val save_cs_base : field
val save_cs_limit : field
val save_ss_selector : field
val save_ss_attrib : field
val save_ss_base : field
val save_ss_limit : field
val save_ds_selector : field
val save_ds_attrib : field
val save_ds_base : field
val save_ds_limit : field
val save_gdtr_base : field
val save_gdtr_limit : field
val save_idtr_base : field
val save_idtr_limit : field
val save_efer : field
val save_cr0 : field
val save_cr2 : field
val save_cr3 : field
val save_cr4 : field
val save_dr6 : field
val save_dr7 : field
val save_rflags : field
val save_rip : field
val save_rsp : field

val save_rax : field
(** RAX is part of the world switch — the VT-x/SVM asymmetry the seed
    translation must handle. *)

val save_sysenter_cs : field
val save_sysenter_esp : field
val save_sysenter_eip : field
val save_g_pat : field

(** {2 Consistency}

    A VMRUN with illegal state (the analogue of a VT-x VM-entry
    failure) exits immediately with [VMEXIT_INVALID] (-1). *)

val vmrun_valid : t -> (unit, string) result
