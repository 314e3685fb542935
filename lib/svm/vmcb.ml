type field = int

type area = Control | Save

type info = { f_name : string; f_offset : int; f_area : area }

let registry : info list ref = ref []

let counter = ref 0

(* Same freeze discipline as [Iris_vmcs.Field]: the table is shared
   read-only across orchestrator worker domains and the dense indices
   are a wire format, so registration after startup must raise. *)
let frozen = ref false

let def f_name f_offset f_area =
  if !frozen then
    invalid_arg ("Vmcb.def: registry frozen (late registration of " ^ f_name ^ ")");
  registry := { f_name; f_offset; f_area } :: !registry;
  let idx = !counter in
  incr counter;
  idx

(* --- control area (offsets 0x000..0x3FF) --- *)
let intercept_cr_reads = def "INTERCEPT_CR_READS" 0x000 Control
let intercept_cr_writes = def "INTERCEPT_CR_WRITES" 0x002 Control
let intercept_dr_reads = def "INTERCEPT_DR_READS" 0x004 Control
let intercept_dr_writes = def "INTERCEPT_DR_WRITES" 0x006 Control
let intercept_exceptions = def "INTERCEPT_EXCEPTIONS" 0x008 Control
let intercept_misc1 = def "INTERCEPT_MISC1" 0x00C Control
let intercept_misc2 = def "INTERCEPT_MISC2" 0x010 Control
let pause_filter_threshold = def "PAUSE_FILTER_THRESHOLD" 0x03C Control
let pause_filter_count = def "PAUSE_FILTER_COUNT" 0x03E Control
let iopm_base_pa = def "IOPM_BASE_PA" 0x040 Control
let msrpm_base_pa = def "MSRPM_BASE_PA" 0x048 Control
let tsc_offset = def "TSC_OFFSET" 0x050 Control
let guest_asid = def "GUEST_ASID" 0x058 Control
let tlb_control = def "TLB_CONTROL" 0x05C Control
let vintr = def "VINTR" 0x060 Control
let interrupt_shadow = def "INTERRUPT_SHADOW" 0x068 Control
let exitcode = def "EXITCODE" 0x070 Control
let exitinfo1 = def "EXITINFO1" 0x078 Control
let exitinfo2 = def "EXITINFO2" 0x080 Control
let exitintinfo = def "EXITINTINFO" 0x088 Control
let np_enable = def "NP_ENABLE" 0x090 Control
let eventinj = def "EVENTINJ" 0x0A8 Control
let n_cr3 = def "N_CR3" 0x0B0 Control
let vmcb_clean = def "VMCB_CLEAN" 0x0C0 Control
let next_rip = def "NEXT_RIP" 0x0C8 Control

(* --- state save area (offsets 0x400..) --- *)
let save_es_selector = def "ES_SELECTOR" 0x400 Save
let save_es_attrib = def "ES_ATTRIB" 0x402 Save
let save_es_limit = def "ES_LIMIT" 0x404 Save
let save_es_base = def "ES_BASE" 0x408 Save
let save_cs_selector = def "CS_SELECTOR" 0x410 Save
let save_cs_attrib = def "CS_ATTRIB" 0x412 Save
let save_cs_limit = def "CS_LIMIT" 0x414 Save
let save_cs_base = def "CS_BASE" 0x418 Save
let save_ss_selector = def "SS_SELECTOR" 0x420 Save
let save_ss_attrib = def "SS_ATTRIB" 0x422 Save
let save_ss_limit = def "SS_LIMIT" 0x424 Save
let save_ss_base = def "SS_BASE" 0x428 Save
let save_ds_selector = def "DS_SELECTOR" 0x430 Save
let save_ds_attrib = def "DS_ATTRIB" 0x432 Save
let save_ds_limit = def "DS_LIMIT" 0x434 Save
let save_ds_base = def "DS_BASE" 0x438 Save
let save_gdtr_limit = def "GDTR_LIMIT" 0x464 Save
let save_gdtr_base = def "GDTR_BASE" 0x468 Save
let save_idtr_limit = def "IDTR_LIMIT" 0x474 Save
let save_idtr_base = def "IDTR_BASE" 0x478 Save
let save_efer = def "EFER" 0x4D0 Save
let save_cr4 = def "CR4" 0x548 Save
let save_cr3 = def "CR3" 0x550 Save
let save_cr0 = def "CR0" 0x558 Save
let save_dr7 = def "DR7" 0x560 Save
let save_dr6 = def "DR6" 0x568 Save
let save_rflags = def "RFLAGS" 0x570 Save
let save_rip = def "RIP" 0x578 Save
let save_rsp = def "RSP" 0x5D8 Save
let save_rax = def "RAX" 0x5F8 Save
let save_star = def "STAR" 0x600 Save
let save_lstar = def "LSTAR" 0x608 Save
let save_cstar = def "CSTAR" 0x610 Save
let save_sfmask = def "SFMASK" 0x618 Save
let save_kernel_gs_base = def "KERNEL_GS_BASE" 0x620 Save
let save_sysenter_cs = def "SYSENTER_CS" 0x628 Save
let save_sysenter_esp = def "SYSENTER_ESP" 0x630 Save
let save_sysenter_eip = def "SYSENTER_EIP" 0x638 Save
let save_cr2 = def "CR2" 0x640 Save
let save_g_pat = def "G_PAT" 0x668 Save
let save_dbgctl = def "DBGCTL" 0x670 Save

let table = Array.of_list (List.rev !registry)

let () = frozen := true

let is_frozen () = !frozen

let count = Array.length table

let all = Array.init count (fun i -> i)

let name f = table.(f).f_name

let offset f = table.(f).f_offset

let area f = table.(f).f_area

let by_offset : (int, field) Hashtbl.t =
  let h = Hashtbl.create 128 in
  Array.iteri (fun i inf -> Hashtbl.replace h inf.f_offset i) table;
  h

let of_offset o = Hashtbl.find_opt by_offset o

(* The copy-on-write journal is dense over the field indices, as in
   [Iris_vmcs.Vmcs]: the per-write probe is a single byte load. *)
type t = {
  values : int64 array;
  journal : (Iris_util.Journal.dense, unit) Iris_util.Journal.t;
}

let make values =
  { values; journal = Iris_util.Journal.dense ~name:"Vmcb" values }

let create () = make (Array.make count 0L)

let copy t = make (Array.copy t.values)

let read t f = t.values.(f)

let write t f v =
  Iris_util.Journal.note t.journal t.values f;
  t.values.(f) <- v

type checkpoint = Iris_util.Journal.handle

let checkpoint t = Iris_util.Journal.push t.journal ()

let rewind t cp = Iris_util.Journal.rewind t.journal cp

let commit t cp = Iris_util.Journal.commit t.journal cp

let nonzero_fields t =
  Array.to_list all
  |> List.filter_map (fun f ->
         let v = read t f in
         if v <> 0L then Some (f, v) else None)

let pp fmt t =
  Format.fprintf fmt "@[<v>VMCB@ ";
  List.iter
    (fun (f, v) -> Format.fprintf fmt "%s = 0x%Lx@ " (name f) v)
    (nonzero_fields t);
  Format.fprintf fmt "@]"

(* VMRUN consistency checks (APM 15.5.1, "Canonicalization and
   Consistency Checks"): illegal state makes VMRUN exit with
   VMEXIT_INVALID instead of running the guest. *)
let vmrun_valid t =
  let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e in
  let* () =
    let cr0 = read t save_cr0 in
    if Iris_x86.Cr0.valid cr0 then Ok ()
    else Error "CR0 fixed-bit violation"
  in
  let* () =
    let efer = read t save_efer in
    if Iris_x86.Msr.efer_valid (Int64.logand efer (Int64.lognot 0x1000L))
    then Ok ()
    else Error "EFER reserved bits"
  in
  let* () =
    (* EFER.LMA requires CR0.PG and CR4.PAE. *)
    let efer = read t save_efer in
    let cr0 = read t save_cr0 in
    let cr4 = read t save_cr4 in
    if
      Int64.logand efer Iris_x86.Msr.efer_lma <> 0L
      && not
           (Iris_x86.Cr0.test cr0 Iris_x86.Cr0.PG
           && Iris_x86.Cr4.test cr4 Iris_x86.Cr4.PAE)
    then Error "EFER.LMA without PG/PAE"
    else Ok ()
  in
  let* () =
    if Iris_x86.Rflags.entry_valid (read t save_rflags) then Ok ()
    else Error "RFLAGS reserved-bit violation"
  in
  let* () =
    if read t guest_asid <> 0L then Ok ()
    else Error "ASID 0 is reserved for the host"
  in
  (* The intercept vectors must keep VMRUN intercepted (bit 0 of
     MISC2), or the guest could VMRUN itself. *)
  if Int64.logand (read t intercept_misc2) 1L <> 0L then Ok ()
  else Error "VMRUN intercept clear"

(* Keep table-only fields alive. *)
let _ = intercept_dr_reads
let _ = intercept_dr_writes
let _ = pause_filter_threshold
let _ = pause_filter_count
let _ = vmcb_clean
let _ = save_star
let _ = save_lstar
let _ = save_cstar
let _ = save_sfmask
let _ = save_kernel_gs_base
let _ = save_dbgctl
