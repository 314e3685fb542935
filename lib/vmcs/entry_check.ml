type failure =
  | Invalid_control of string
  | Invalid_host_state of string
  | Invalid_guest_state of string

let failure_message = function
  | Invalid_control m -> "invalid control field: " ^ m
  | Invalid_host_state m -> "invalid host state: " ^ m
  | Invalid_guest_state m -> "invalid guest state: " ^ m

let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e

(* ---- Control-field checks (SDM 26.2.1) ---- *)

(* These run on every VM entry, so they are written as plain if/else
   chains over direct reads: the [let*] continuation closures this
   replaced were a per-entry allocation with nothing to show for it on
   the success path. *)

let has v mask = Int64.logand v mask = mask

let check_controls vmcs =
  let pin = Vmcs.read vmcs Field.pin_based_vm_exec_control in
  let cpu = Vmcs.read vmcs Field.cpu_based_vm_exec_control in
  let entry = Vmcs.read vmcs Field.vm_entry_controls in
  let exit = Vmcs.read vmcs Field.vm_exit_controls in
  if not (has pin Controls.pin_reserved_one_mask) then
    Error (Invalid_control "pin-based controls: default1 bits clear")
  else if not (has cpu Controls.cpu_reserved_one_mask) then
    Error (Invalid_control "proc-based controls: default1 bits clear")
  else if not (has entry Controls.entry_reserved_one_mask) then
    Error (Invalid_control "entry controls: default1 bits clear")
  else if not (has exit Controls.exit_reserved_one_mask) then
    Error (Invalid_control "exit controls: default1 bits clear")
  else if
    (* CR3-target count must be at most 4. *)
    Vmcs.read vmcs Field.cr3_target_count > 4L
  then Error (Invalid_control "CR3-target count > 4")
  else begin
    let info = Vmcs.read vmcs Field.vm_entry_intr_info in
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

let canonical addr =
  let top = Int64.shift_right addr 47 in
  top = 0L || top = -1L

let check_host_state vmcs =
  let cr0 = Vmcs.read vmcs Field.host_cr0 in
  let cr4 = Vmcs.read vmcs Field.host_cr4 in
  let rip = Vmcs.read vmcs Field.host_rip in
  let cs_sel = Vmcs.read vmcs Field.host_cs_selector in
  let tr_sel = Vmcs.read vmcs Field.host_tr_selector in
  if
    not
      (Iris_x86.Cr0.test cr0 Iris_x86.Cr0.PE
      && Iris_x86.Cr0.test cr0 Iris_x86.Cr0.PG)
  then Error (Invalid_host_state "host CR0 must have PE and PG")
  else if not (Iris_x86.Cr4.test cr4 Iris_x86.Cr4.VMXE) then
    Error (Invalid_host_state "host CR4.VMXE clear")
  else if not (rip <> 0L && canonical rip) then
    Error (Invalid_host_state "host RIP zero or non-canonical")
  else if not (cs_sel <> 0L && Int64.logand cs_sel 0x7L = 0L) then
    Error (Invalid_host_state "host CS selector null or bad RPL/TI")
  else if Int64.logand tr_sel 0x7L = 0L && tr_sel <> 0L then Ok ()
  else Error (Invalid_host_state "host TR selector null or bad RPL/TI")

(* ---- Guest-state checks (SDM 26.3.1) ---- *)

let seg_of vmcs name =
  let sel_f, base_f, limit_f, ar_f = Field.segment_fields name in
  { Iris_x86.Segment.selector = Int64.to_int (Vmcs.read vmcs sel_f);
    base = Vmcs.read vmcs base_f;
    limit = Vmcs.read vmcs limit_f;
    ar = Int64.to_int (Vmcs.read vmcs ar_f) }

let guest_checks :
    (string * (Vmcs.t -> (unit, string) result)) list =
  let rd vmcs f = Vmcs.read vmcs f in
  let open Iris_x86 in
  [
    ( "cr0",
      fun vmcs ->
        if Cr0.valid (rd vmcs Field.guest_cr0) then Ok ()
        else Error "guest CR0 fixed-bit violation (PG without PE, or NW \
                    without CD)" );
    ( "cr4",
      fun vmcs ->
        if Cr4.valid (rd vmcs Field.guest_cr4) then Ok ()
        else Error "guest CR4 reserved bit set" );
    ( "cr3",
      fun vmcs ->
        let cr3 = rd vmcs Field.guest_cr3 in
        if Int64.shift_right_logical cr3 48 = 0L then Ok ()
        else Error "guest CR3 exceeds physical-address width" );
    ( "rflags",
      fun vmcs ->
        if Rflags.entry_valid (rd vmcs Field.guest_rflags) then Ok ()
        else Error "guest RFLAGS reserved-bit violation" );
    ( "rflags-if",
      fun vmcs ->
        let info = rd vmcs Field.vm_entry_intr_info in
        if
          Controls.intr_info_is_valid info
          && Controls.intr_info_type info = Some Controls.External_interrupt
          && not (Rflags.test (rd vmcs Field.guest_rflags) Rflags.IF)
        then Error "external-interrupt injection with RFLAGS.IF clear"
        else Ok () );
    ( "cs",
      fun vmcs ->
        if Segment.entry_valid_cs (seg_of vmcs Segment.Cs) then Ok ()
        else Error "guest CS unusable, not present, or not code" );
    ( "cs-l",
      fun vmcs ->
        (* A long-mode code segment is only legal when the entry is an
           IA-32e-mode entry (SDM 26.3.1.2). *)
        let cs = seg_of vmcs Segment.Cs in
        let entry = rd vmcs Field.vm_entry_controls in
        if
          (not (Segment.unusable cs))
          && Segment.ar_long cs
          && Int64.logand entry Controls.entry_ia32e_mode_guest = 0L
        then Error "CS.L set outside IA-32e mode"
        else Ok () );
    ( "tr",
      fun vmcs ->
        if Segment.entry_valid_tr (seg_of vmcs Segment.Tr) then Ok ()
        else Error "guest TR unusable or not a busy TSS" );
    ( "ldtr",
      fun vmcs ->
        let l = seg_of vmcs Segment.Ldtr in
        if Segment.unusable l then Ok ()
        else if (not (Segment.ar_s l)) && Segment.ar_type l = 2 then Ok ()
        else Error "guest LDTR usable but not an LDT descriptor" );
    ( "ss-rpl",
      fun vmcs ->
        (* In protected mode without unrestricted guest, SS.RPL must
           equal CS.RPL. *)
        let cr0 = rd vmcs Field.guest_cr0 in
        if not (Cr0.test cr0 Cr0.PE) then Ok ()
        else begin
          let cs = seg_of vmcs Segment.Cs and ss = seg_of vmcs Segment.Ss in
          if Segment.unusable ss then Ok ()
          else if cs.Segment.selector land 3 = ss.Segment.selector land 3 then
            Ok ()
          else Error "SS.RPL differs from CS.RPL"
        end );
    ( "rip",
      fun vmcs ->
        (* "bad RIP for mode": outside IA-32e-mode code, RIP must fit
           the 32-bit instruction pointer; in real mode it must also
           lie within the CS limit. *)
        let rip = rd vmcs Field.guest_rip in
        let cr0 = rd vmcs Field.guest_cr0 in
        let cs = seg_of vmcs Segment.Cs in
        let entry = rd vmcs Field.vm_entry_controls in
        let ia32e =
          Int64.logand entry Controls.entry_ia32e_mode_guest <> 0L
          && Segment.ar_long cs
        in
        if ia32e then
          if canonical rip then Ok () else Error "non-canonical RIP"
        else if Int64.shift_right_logical rip 32 <> 0L then
          Error
            (Printf.sprintf "bad RIP for mode %d"
               (Cpu_mode.to_int (Cpu_mode.of_cr0 cr0) - 1))
        else if
          (not (Cr0.test cr0 Cr0.PE))
          && rip > cs.Segment.limit
        then
          Error
            (Printf.sprintf "bad RIP for mode %d"
               (Cpu_mode.to_int (Cpu_mode.of_cr0 cr0) - 1))
        else Ok () );
    ( "activity",
      fun vmcs ->
        if Controls.activity_valid (rd vmcs Field.guest_activity_state) then
          Ok ()
        else Error "invalid activity state" );
    ( "interruptibility",
      fun vmcs ->
        if
          Controls.interruptibility_valid
            (rd vmcs Field.guest_interruptibility_info)
        then Ok ()
        else Error "invalid interruptibility state" );
    ( "link-pointer",
      fun vmcs ->
        if rd vmcs Field.vmcs_link_pointer = -1L then Ok ()
        else Error "VMCS link pointer not 0xFFFFFFFF_FFFFFFFF" );
    ( "efer",
      fun vmcs ->
        let entry = rd vmcs Field.vm_entry_controls in
        if Int64.logand entry Controls.entry_load_ia32_efer = 0L then Ok ()
        else begin
          let efer = rd vmcs Field.guest_ia32_efer in
          let ia32e =
            Int64.logand entry Controls.entry_ia32e_mode_guest <> 0L
          in
          if not (Msr.efer_valid efer) then Error "guest EFER reserved bits"
          else begin
            let lma = Int64.logand efer Msr.efer_lma <> 0L in
            if lma <> ia32e then
              Error "EFER.LMA inconsistent with IA-32e-mode entry control"
            else Ok ()
          end
        end );
    ( "pdpte",
      fun vmcs ->
        (* PAE paging: PDPTEs must have reserved bits clear. *)
        let cr0 = rd vmcs Field.guest_cr0 in
        let cr4 = rd vmcs Field.guest_cr4 in
        let entry = rd vmcs Field.vm_entry_controls in
        let ia32e = Int64.logand entry Controls.entry_ia32e_mode_guest <> 0L in
        if
          Cr0.test cr0 Cr0.PG && Cr4.test cr4 Cr4.PAE && not ia32e
        then begin
          let bad =
            List.exists
              (fun f ->
                let v = rd vmcs f in
                (* Present PDPTE with any reserved bit 1,2,5..8 set. *)
                Int64.logand v 1L <> 0L && Int64.logand v 0x1E6L <> 0L)
              [ Field.guest_pdpte0; Field.guest_pdpte1; Field.guest_pdpte2;
                Field.guest_pdpte3 ]
          in
          if bad then Error "PDPTE reserved bits set" else Ok ()
        end
        else Ok () );
  ]

let check_guest_state vmcs =
  let rec loop = function
    | [] -> Ok ()
    | (_, check) :: rest -> (
        match check vmcs with
        | Ok () -> loop rest
        | Error msg -> Error (Invalid_guest_state msg))
  in
  loop guest_checks

let run vmcs =
  let* () = check_controls vmcs in
  let* () = check_host_state vmcs in
  check_guest_state vmcs
