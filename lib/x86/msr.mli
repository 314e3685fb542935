(** Model-specific registers.

    RDMSR/WRMSR are sensitive instructions (exit reasons 31/32).  The
    hypervisor virtualises a subset of the MSR space; access to an
    unknown index injects #GP into the guest — one of the branchy
    handler behaviours the fuzzer pokes at. *)

type index =
  | Ia32_tsc               (** 0x10 *)
  | Ia32_apic_base         (** 0x1B *)
  | Ia32_feature_control   (** 0x3A *)
  | Ia32_bios_sign_id      (** 0x8B *)
  | Ia32_mtrr_cap          (** 0xFE *)
  | Ia32_sysenter_cs       (** 0x174 *)
  | Ia32_sysenter_esp      (** 0x175 *)
  | Ia32_sysenter_eip      (** 0x176 *)
  | Ia32_mcg_cap           (** 0x179 *)
  | Ia32_mcg_status        (** 0x17A *)
  | Ia32_misc_enable       (** 0x1A0 *)
  | Ia32_mtrr_def_type     (** 0x2FF *)
  | Ia32_pat               (** 0x277 *)
  | Ia32_x2apic_tpr        (** 0x808 *)
  | Ia32_x2apic_icr        (** 0x830 *)
  | Ia32_tsc_deadline      (** 0x6E0 *)
  | Ia32_efer              (** 0xC0000080 *)
  | Ia32_star              (** 0xC0000081 *)
  | Ia32_lstar             (** 0xC0000082 *)
  | Ia32_fmask             (** 0xC0000084 *)
  | Ia32_fs_base           (** 0xC0000100 *)
  | Ia32_gs_base           (** 0xC0000101 *)
  | Ia32_kernel_gs_base    (** 0xC0000102 *)
  | Ia32_tsc_aux           (** 0xC0000103 *)

val all : index list
val to_raw : index -> int64
val of_raw : int64 -> index option
val name : index -> string
val pp : Format.formatter -> index -> unit

val writable : index -> bool
(** Whether the hypervisor accepts guest writes ([false] for e.g.
    [Ia32_mtrr_cap] and [Ia32_bios_sign_id], which #GP on WRMSR). *)

val reset_value : index -> int64

(** {2 EFER bits, needed by entry checks and long-mode tracking} *)

val efer_sce : int64
val efer_lme : int64
val efer_lma : int64
val efer_nxe : int64
val efer_valid : int64 -> bool

type file
(** Per-vCPU virtualised MSR storage. *)

val create_file : unit -> file
val read : file -> index -> int64
val write : file -> index -> int64 -> unit
val copy_file : file -> file

val copy_into : src:file -> dst:file -> unit
(** Overwrite every register of [dst] with [src]'s, without
    allocating. *)

val equal_file : file -> file -> bool
