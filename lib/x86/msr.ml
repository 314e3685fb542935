type index =
  | Ia32_tsc
  | Ia32_apic_base
  | Ia32_feature_control
  | Ia32_bios_sign_id
  | Ia32_mtrr_cap
  | Ia32_sysenter_cs
  | Ia32_sysenter_esp
  | Ia32_sysenter_eip
  | Ia32_mcg_cap
  | Ia32_mcg_status
  | Ia32_misc_enable
  | Ia32_mtrr_def_type
  | Ia32_pat
  | Ia32_x2apic_tpr
  | Ia32_x2apic_icr
  | Ia32_tsc_deadline
  | Ia32_efer
  | Ia32_star
  | Ia32_lstar
  | Ia32_fmask
  | Ia32_fs_base
  | Ia32_gs_base
  | Ia32_kernel_gs_base
  | Ia32_tsc_aux

let all =
  [ Ia32_tsc; Ia32_apic_base; Ia32_feature_control; Ia32_bios_sign_id;
    Ia32_mtrr_cap; Ia32_sysenter_cs; Ia32_sysenter_esp; Ia32_sysenter_eip;
    Ia32_mcg_cap; Ia32_mcg_status; Ia32_misc_enable; Ia32_mtrr_def_type;
    Ia32_pat; Ia32_x2apic_tpr; Ia32_x2apic_icr; Ia32_tsc_deadline;
    Ia32_efer; Ia32_star; Ia32_lstar; Ia32_fmask; Ia32_fs_base;
    Ia32_gs_base; Ia32_kernel_gs_base; Ia32_tsc_aux ]

let to_raw = function
  | Ia32_tsc -> 0x10L
  | Ia32_apic_base -> 0x1BL
  | Ia32_feature_control -> 0x3AL
  | Ia32_bios_sign_id -> 0x8BL
  | Ia32_mtrr_cap -> 0xFEL
  | Ia32_sysenter_cs -> 0x174L
  | Ia32_sysenter_esp -> 0x175L
  | Ia32_sysenter_eip -> 0x176L
  | Ia32_mcg_cap -> 0x179L
  | Ia32_mcg_status -> 0x17AL
  | Ia32_misc_enable -> 0x1A0L
  | Ia32_mtrr_def_type -> 0x2FFL
  | Ia32_pat -> 0x277L
  | Ia32_x2apic_tpr -> 0x808L
  | Ia32_x2apic_icr -> 0x830L
  | Ia32_tsc_deadline -> 0x6E0L
  | Ia32_efer -> 0xC0000080L
  | Ia32_star -> 0xC0000081L
  | Ia32_lstar -> 0xC0000082L
  | Ia32_fmask -> 0xC0000084L
  | Ia32_fs_base -> 0xC0000100L
  | Ia32_gs_base -> 0xC0000101L
  | Ia32_kernel_gs_base -> 0xC0000102L
  | Ia32_tsc_aux -> 0xC0000103L

let of_raw raw = List.find_opt (fun i -> to_raw i = raw) all

let name = function
  | Ia32_tsc -> "IA32_TSC"
  | Ia32_apic_base -> "IA32_APIC_BASE"
  | Ia32_feature_control -> "IA32_FEATURE_CONTROL"
  | Ia32_bios_sign_id -> "IA32_BIOS_SIGN_ID"
  | Ia32_mtrr_cap -> "IA32_MTRR_CAP"
  | Ia32_sysenter_cs -> "IA32_SYSENTER_CS"
  | Ia32_sysenter_esp -> "IA32_SYSENTER_ESP"
  | Ia32_sysenter_eip -> "IA32_SYSENTER_EIP"
  | Ia32_mcg_cap -> "IA32_MCG_CAP"
  | Ia32_mcg_status -> "IA32_MCG_STATUS"
  | Ia32_misc_enable -> "IA32_MISC_ENABLE"
  | Ia32_mtrr_def_type -> "IA32_MTRR_DEF_TYPE"
  | Ia32_pat -> "IA32_PAT"
  | Ia32_x2apic_tpr -> "IA32_X2APIC_TPR"
  | Ia32_x2apic_icr -> "IA32_X2APIC_ICR"
  | Ia32_tsc_deadline -> "IA32_TSC_DEADLINE"
  | Ia32_efer -> "IA32_EFER"
  | Ia32_star -> "IA32_STAR"
  | Ia32_lstar -> "IA32_LSTAR"
  | Ia32_fmask -> "IA32_FMASK"
  | Ia32_fs_base -> "IA32_FS_BASE"
  | Ia32_gs_base -> "IA32_GS_BASE"
  | Ia32_kernel_gs_base -> "IA32_KERNEL_GS_BASE"
  | Ia32_tsc_aux -> "IA32_TSC_AUX"

let pp fmt i = Format.pp_print_string fmt (name i)

let writable = function
  | Ia32_mtrr_cap | Ia32_bios_sign_id | Ia32_mcg_cap -> false
  | Ia32_tsc | Ia32_apic_base | Ia32_feature_control | Ia32_sysenter_cs
  | Ia32_sysenter_esp | Ia32_sysenter_eip | Ia32_mcg_status
  | Ia32_misc_enable | Ia32_mtrr_def_type | Ia32_pat | Ia32_x2apic_tpr
  | Ia32_x2apic_icr | Ia32_tsc_deadline | Ia32_efer | Ia32_star
  | Ia32_lstar | Ia32_fmask | Ia32_fs_base | Ia32_gs_base
  | Ia32_kernel_gs_base | Ia32_tsc_aux -> true

let reset_value = function
  | Ia32_apic_base -> 0xFEE00900L (* enabled, BSP *)
  | Ia32_mtrr_cap -> 0x508L
  | Ia32_pat -> 0x0007040600070406L
  | Ia32_misc_enable -> 0x1L
  | Ia32_mcg_cap -> 0x9L
  | Ia32_tsc | Ia32_feature_control | Ia32_bios_sign_id
  | Ia32_sysenter_cs | Ia32_sysenter_esp | Ia32_sysenter_eip
  | Ia32_mcg_status | Ia32_mtrr_def_type | Ia32_x2apic_tpr
  | Ia32_x2apic_icr | Ia32_tsc_deadline | Ia32_efer | Ia32_star
  | Ia32_lstar | Ia32_fmask | Ia32_fs_base | Ia32_gs_base
  | Ia32_kernel_gs_base | Ia32_tsc_aux -> 0L

let efer_sce = 0x1L
let efer_lme = 0x100L
let efer_lma = 0x400L
let efer_nxe = 0x800L

let efer_valid v =
  let known = Int64.logor (Int64.logor efer_sce efer_lme)
      (Int64.logor efer_lma efer_nxe) in
  Int64.logand v (Int64.lognot known) = 0L

(* Dense storage: one slot per constructor. *)
let slot = function
  | Ia32_tsc -> 0
  | Ia32_apic_base -> 1
  | Ia32_feature_control -> 2
  | Ia32_bios_sign_id -> 3
  | Ia32_mtrr_cap -> 4
  | Ia32_sysenter_cs -> 5
  | Ia32_sysenter_esp -> 6
  | Ia32_sysenter_eip -> 7
  | Ia32_mcg_cap -> 8
  | Ia32_mcg_status -> 9
  | Ia32_misc_enable -> 10
  | Ia32_mtrr_def_type -> 11
  | Ia32_pat -> 12
  | Ia32_x2apic_tpr -> 13
  | Ia32_x2apic_icr -> 14
  | Ia32_tsc_deadline -> 15
  | Ia32_efer -> 16
  | Ia32_star -> 17
  | Ia32_lstar -> 18
  | Ia32_fmask -> 19
  | Ia32_fs_base -> 20
  | Ia32_gs_base -> 21
  | Ia32_kernel_gs_base -> 22
  | Ia32_tsc_aux -> 23

type file = int64 array

let create_file () =
  let file = Array.make (List.length all) 0L in
  List.iter (fun i -> file.(slot i) <- reset_value i) all;
  file

let read file i = file.(slot i)

let write file i v = file.(slot i) <- v

let copy_file = Array.copy

let copy_into ~src ~dst = Array.blit src 0 dst 0 (Array.length dst)

let equal_file (a : file) b = a = b
