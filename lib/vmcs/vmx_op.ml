type ctx = {
  mutable on : bool;
  mutable current_vmcs : Vmcs.t option;
}

let create () = { on = false; current_vmcs = None }

let copy ctx =
  { on = ctx.on;
    current_vmcs = Option.map Vmcs.copy ctx.current_vmcs }

type error =
  | VMfail_invalid
  | VMfail_valid of int * string

let pp_error fmt = function
  | VMfail_invalid -> Format.pp_print_string fmt "VMfailInvalid"
  | VMfail_valid (n, msg) -> Format.fprintf fmt "VMfailValid(%d): %s" n msg

let err_vmclear_bad_addr = 2
let err_vmlaunch_nonclear = 4
let err_vmresume_nonlaunched = 5
let err_entry_bad_controls = 7
let err_entry_bad_host = 8
let err_unsupported_component = 12
let err_readonly_component = 13

let vmxon ctx =
  if ctx.on then Error (VMfail_valid (15, "VMXON in VMX operation"))
  else begin
    ctx.on <- true;
    Ok ()
  end

let vmxoff ctx =
  if not ctx.on then Error VMfail_invalid
  else begin
    ctx.on <- false;
    ctx.current_vmcs <- None;
    Ok ()
  end

let in_vmx_operation ctx = ctx.on

let fail_valid ctx n msg =
  (* A VMfailValid records the error number in the current VMCS. *)
  (match ctx.current_vmcs with
  | Some vmcs ->
      Vmcs.write_exit_info vmcs Field.vm_instruction_error (Int64.of_int n)
  | None -> ());
  Error (VMfail_valid (n, msg))

let vmclear ctx vmcs =
  if not ctx.on then Error VMfail_invalid
  else begin
    Vmcs.vmclear vmcs;
    (* Clearing the current VMCS makes it no longer current. *)
    (match ctx.current_vmcs with
    | Some cur when cur == vmcs -> ctx.current_vmcs <- None
    | Some _ | None -> ());
    Ok ()
  end

let vmptrld ctx vmcs =
  if not ctx.on then Error VMfail_invalid
  else begin
    Vmcs.set_active vmcs;
    ctx.current_vmcs <- Some vmcs;
    Ok ()
  end

let current ctx = ctx.current_vmcs

(* The VMCS an instruction operates on: none outside VMX operation or
   without a current VMCS (VMfailInvalid).  A plain match at each use,
   not a continuation, so no instruction allocates a closure. *)
let operand ctx = if ctx.on then ctx.current_vmcs else None

let vmread ctx field =
  match operand ctx with
  | None -> Error VMfail_invalid
  | Some vmcs -> Ok (Vmcs.read vmcs field)

let write_failed ctx = function
  | Vmcs.Readonly_field f ->
      fail_valid ctx err_readonly_component
        ("VMWRITE to read-only field " ^ Field.name f)
  | Vmcs.Unsupported_field enc ->
      fail_valid ctx err_unsupported_component
        (Printf.sprintf "VMWRITE to unsupported encoding 0x%x" enc)

let vmwrite ctx field v =
  match operand ctx with
  | None -> Error VMfail_invalid
  | Some vmcs -> (
      match Vmcs.write vmcs field v with
      | Ok () -> Ok ()
      | Error e -> write_failed ctx e)

let vmread_enc ctx enc =
  match operand ctx with
  | None -> Error VMfail_invalid
  | Some vmcs -> (
      match Vmcs.read_by_encoding vmcs enc with
      | Ok v -> Ok v
      | Error _ ->
          fail_valid ctx err_unsupported_component
            (Printf.sprintf "VMREAD of unsupported encoding 0x%x" enc))

let vmwrite_enc ctx enc v =
  match operand ctx with
  | None -> Error VMfail_invalid
  | Some vmcs -> (
      match Vmcs.write_by_encoding vmcs enc v with
      | Ok () -> Ok ()
      | Error e -> write_failed ctx e)

type entry_outcome =
  | Entered
  | Entry_failed of Entry_check.failure

let do_entry ctx ~launch =
  match operand ctx with
  | None -> Error VMfail_invalid
  | Some vmcs -> (
      let state = Vmcs.state vmcs in
      if launch && state <> Vmcs.Active_current_clear then
        fail_valid ctx err_vmlaunch_nonclear "VMLAUNCH with non-clear VMCS"
      else if (not launch) && state <> Vmcs.Active_current_launched then
        fail_valid ctx err_vmresume_nonlaunched
          "VMRESUME with non-launched VMCS"
      else
        match Entry_check.run vmcs with
        | Ok () ->
            if launch then Vmcs.mark_launched vmcs;
            Ok Entered
        | Error (Entry_check.Invalid_control _ as f) ->
            fail_valid ctx err_entry_bad_controls
              (Entry_check.failure_message f)
        | Error (Entry_check.Invalid_host_state _ as f) ->
            fail_valid ctx err_entry_bad_host (Entry_check.failure_message f)
        | Error (Entry_check.Invalid_guest_state _ as f) ->
            (* Guest-state failure: the entry itself succeeds as an
               instruction but immediately "exits" with reason 33; the
               launch state is not advanced. *)
            Ok (Entry_failed f))

let vmlaunch ctx = do_entry ctx ~launch:true

let vmresume ctx = do_entry ctx ~launch:false
