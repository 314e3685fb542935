type failure =
  | Invalid_control of string
  | Invalid_host_state of string
  | Invalid_guest_state of string

let failure_message = function
  | Invalid_control m -> "invalid control field: " ^ m
  | Invalid_host_state m -> "invalid host state: " ^ m
  | Invalid_guest_state m -> "invalid guest state: " ^ m

(* The checks run on every VM entry, so they are written as plain
   if/else chains over direct reads, with no segment record built and
   no closure: the success path allocates nothing. *)

let rd vmcs f = Vmcs.read vmcs f

let rd_int vmcs f = Int64.to_int (Vmcs.read vmcs f)

let has v mask = Int64.logand v mask = mask

let canonical addr =
  let top = Int64.shift_right addr 47 in
  top = 0L || top = -1L

let ia32e_entry vmcs =
  Int64.logand (rd vmcs Field.vm_entry_controls)
    Controls.entry_ia32e_mode_guest
  <> 0L

(* ---- Control-field checks (SDM 26.2.1) ---- *)

let controls vmcs =
  if not (has (rd vmcs Field.pin_based_vm_exec_control)
            Controls.pin_reserved_one_mask)
  then Error (Invalid_control "pin-based controls: default1 bits clear")
  else if not (has (rd vmcs Field.cpu_based_vm_exec_control)
                 Controls.cpu_reserved_one_mask)
  then Error (Invalid_control "proc-based controls: default1 bits clear")
  else if not (has (rd vmcs Field.vm_entry_controls)
                 Controls.entry_reserved_one_mask)
  then Error (Invalid_control "entry controls: default1 bits clear")
  else if not (has (rd vmcs Field.vm_exit_controls)
                 Controls.exit_reserved_one_mask)
  then Error (Invalid_control "exit controls: default1 bits clear")
  else if
    (* CR3-target count must be at most 4. *)
    rd vmcs Field.cr3_target_count > 4L
  then Error (Invalid_control "CR3-target count > 4")
  else begin
    let info = rd vmcs Field.vm_entry_intr_info in
    if not (Controls.intr_info_is_valid info) then Ok ()
    else begin
      match Controls.intr_info_type info with
      | None -> Error (Invalid_control "entry interruption info: bad type")
      | Some Controls.Hardware_exception
        when Controls.intr_info_vector info > 31 ->
          Error
            (Invalid_control "entry interruption info: exception vector > 31")
      | Some Controls.Nmi when Controls.intr_info_vector info <> 2 ->
          Error (Invalid_control "entry interruption info: NMI vector not 2")
      | Some _ -> Ok ()
    end
  end

(* ---- Host-state checks (SDM 26.2.2/26.2.3) ---- *)

let host vmcs =
  let cr0 = rd vmcs Field.host_cr0 in
  let rip = rd vmcs Field.host_rip in
  let cs_sel = rd vmcs Field.host_cs_selector in
  let tr_sel = rd vmcs Field.host_tr_selector in
  if
    not
      (Iris_x86.Cr0.test cr0 Iris_x86.Cr0.PE
      && Iris_x86.Cr0.test cr0 Iris_x86.Cr0.PG)
  then Error (Invalid_host_state "host CR0 must have PE and PG")
  else if not (Iris_x86.Cr4.test (rd vmcs Field.host_cr4) Iris_x86.Cr4.VMXE)
  then Error (Invalid_host_state "host CR4.VMXE clear")
  else if not (rip <> 0L && canonical rip) then
    Error (Invalid_host_state "host RIP zero or non-canonical")
  else if not (cs_sel <> 0L && Int64.logand cs_sel 0x7L = 0L) then
    Error (Invalid_host_state "host CS selector null or bad RPL/TI")
  else if Int64.logand tr_sel 0x7L = 0L && tr_sel <> 0L then Ok ()
  else Error (Invalid_host_state "host TR selector null or bad RPL/TI")

(* ---- Guest-state checks (SDM 26.3.1) ---- *)

let fail msg = Error (Invalid_guest_state msg)

let bad_rip cr0 =
  fail
    (Printf.sprintf "bad RIP for mode %d"
       (Iris_x86.Cpu_mode.to_int (Iris_x86.Cpu_mode.of_cr0 cr0) - 1))

(* A present PDPTE with any reserved bit 1, 2 or 5..8 set. *)
let bad_pdpte vmcs f =
  let v = rd vmcs f in
  Int64.logand v 1L <> 0L && Int64.logand v 0x1E6L <> 0L

let guest_checks =
  let open Iris_x86 in
  [ (fun vmcs ->
      if Cr0.valid (rd vmcs Field.guest_cr0) then Ok ()
      else fail "guest CR0 fixed-bit violation (PG without PE, or NW \
                 without CD)");
    (fun vmcs ->
      if Cr4.valid (rd vmcs Field.guest_cr4) then Ok ()
      else fail "guest CR4 reserved bit set");
    (fun vmcs ->
      if Int64.shift_right_logical (rd vmcs Field.guest_cr3) 48 = 0L then Ok ()
      else fail "guest CR3 exceeds physical-address width");
    (fun vmcs ->
      if Rflags.entry_valid (rd vmcs Field.guest_rflags) then Ok ()
      else fail "guest RFLAGS reserved-bit violation");
    (fun vmcs ->
      let info = rd vmcs Field.vm_entry_intr_info in
      if
        Controls.intr_info_is_valid info
        && Controls.intr_info_type info = Some Controls.External_interrupt
        && not (Rflags.test (rd vmcs Field.guest_rflags) Rflags.IF)
      then fail "external-interrupt injection with RFLAGS.IF clear"
      else Ok ());
    (fun vmcs ->
      if Segment.Ar.valid_cs (rd_int vmcs Field.guest_cs_ar_bytes) then Ok ()
      else fail "guest CS unusable, not present, or not code");
    (fun vmcs ->
      (* A long-mode code segment is only legal when the entry is an
         IA-32e-mode entry (SDM 26.3.1.2). *)
      let ar = rd_int vmcs Field.guest_cs_ar_bytes in
      if (not (Segment.Ar.unusable ar)) && Segment.Ar.long ar
         && not (ia32e_entry vmcs)
      then fail "CS.L set outside IA-32e mode"
      else Ok ());
    (fun vmcs ->
      if Segment.Ar.valid_tr (rd_int vmcs Field.guest_tr_ar_bytes) then Ok ()
      else fail "guest TR unusable or not a busy TSS");
    (fun vmcs ->
      let ar = rd_int vmcs Field.guest_ldtr_ar_bytes in
      if Segment.Ar.unusable ar then Ok ()
      else if (not (Segment.Ar.s ar)) && Segment.Ar.typ ar = 2 then Ok ()
      else fail "guest LDTR usable but not an LDT descriptor");
    (fun vmcs ->
      (* In protected mode without unrestricted guest, SS.RPL must
         equal CS.RPL. *)
      if not (Cr0.test (rd vmcs Field.guest_cr0) Cr0.PE) then Ok ()
      else if Segment.Ar.unusable (rd_int vmcs Field.guest_ss_ar_bytes) then
        Ok ()
      else if
        rd_int vmcs Field.guest_cs_selector land 3
        = rd_int vmcs Field.guest_ss_selector land 3
      then Ok ()
      else fail "SS.RPL differs from CS.RPL");
    (fun vmcs ->
      (* "bad RIP for mode": outside IA-32e-mode code, RIP must fit the
         32-bit instruction pointer; in real mode it must also lie
         within the CS limit. *)
      let rip = rd vmcs Field.guest_rip in
      let cr0 = rd vmcs Field.guest_cr0 in
      if
        ia32e_entry vmcs
        && Segment.Ar.long (rd_int vmcs Field.guest_cs_ar_bytes)
      then if canonical rip then Ok () else fail "non-canonical RIP"
      else if Int64.shift_right_logical rip 32 <> 0L then bad_rip cr0
      else if (not (Cr0.test cr0 Cr0.PE)) && rip > rd vmcs Field.guest_cs_limit
      then bad_rip cr0
      else Ok ());
    (fun vmcs ->
      if Controls.activity_valid (rd vmcs Field.guest_activity_state) then
        Ok ()
      else fail "invalid activity state");
    (fun vmcs ->
      if
        Controls.interruptibility_valid
          (rd vmcs Field.guest_interruptibility_info)
      then Ok ()
      else fail "invalid interruptibility state");
    (fun vmcs ->
      if rd vmcs Field.vmcs_link_pointer = -1L then Ok ()
      else fail "VMCS link pointer not 0xFFFFFFFF_FFFFFFFF");
    (fun vmcs ->
      let entry = rd vmcs Field.vm_entry_controls in
      if Int64.logand entry Controls.entry_load_ia32_efer = 0L then Ok ()
      else begin
        let efer = rd vmcs Field.guest_ia32_efer in
        let lma = Int64.logand efer Msr.efer_lma <> 0L in
        if not (Msr.efer_valid efer) then fail "guest EFER reserved bits"
        else if lma <> ia32e_entry vmcs then
          fail "EFER.LMA inconsistent with IA-32e-mode entry control"
        else Ok ()
      end);
    (fun vmcs ->
      (* PAE paging: PDPTEs must have reserved bits clear. *)
      if
        Cr0.test (rd vmcs Field.guest_cr0) Cr0.PG
        && Cr4.test (rd vmcs Field.guest_cr4) Cr4.PAE
        && not (ia32e_entry vmcs)
      then
        if
          bad_pdpte vmcs Field.guest_pdpte0
          || bad_pdpte vmcs Field.guest_pdpte1
          || bad_pdpte vmcs Field.guest_pdpte2
          || bad_pdpte vmcs Field.guest_pdpte3
        then fail "PDPTE reserved bits set"
        else Ok ()
      else Ok ()) ]

(* Architectural order: controls, host state, then the guest checks. *)
let checks = Array.of_list (controls :: host :: guest_checks)

let rec run_from vmcs i =
  if i = Array.length checks then Ok ()
  else
    match checks.(i) vmcs with
    | Ok () -> run_from vmcs (i + 1)
    | Error _ as e -> e

let run vmcs = run_from vmcs 0
