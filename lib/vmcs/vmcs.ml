module Journal = Iris_util.Journal

type launch_state = Clear | Active_current_clear | Active_current_launched

(* The copy-on-write journal is dense over the compact field space, so
   the per-write probe is a single byte load; each epoch also keeps
   the launch state at its push. *)
type t = {
  values : int64 array; (* indexed by Field.compact *)
  mutable launch : launch_state;
  journal : (Journal.dense, launch_state) Journal.t;
}

let make values launch =
  { values; launch; journal = Journal.dense ~name:"Vmcs" values }

let revision_id = 0x00DE5E27L

let create () = make (Array.make Field.count 0L) Clear

let state t = t.launch

let vmclear t = t.launch <- Clear

let set_active t =
  match t.launch with
  | Clear -> t.launch <- Active_current_clear
  | Active_current_clear | Active_current_launched -> ()

let mark_launched t = t.launch <- Active_current_launched

let is_launched t = t.launch = Active_current_launched

type access_error =
  | Unsupported_field of int
  | Readonly_field of Field.t

let read t f = t.values.(Field.compact f)

let write t f v =
  if Field.readonly f then Error (Readonly_field f)
  else begin
    let idx = Field.compact f in
    Journal.note t.journal t.values idx;
    t.values.(idx) <- Field.truncate f v;
    Ok ()
  end

let write_exit_info t f v =
  (* Processor-internal writes touch the exit-info area, the guest
     area (state save), and entry controls (clearing the event-
     injection valid bit); never the host area. *)
  assert (Field.area f <> Field.Host);
  let idx = Field.compact f in
  Journal.note t.journal t.values idx;
  t.values.(idx) <- Field.truncate f v

let read_by_encoding t enc =
  match Field.of_encoding16 enc with
  | None -> Error (Unsupported_field enc)
  | Some f -> Ok (read t f)

let write_by_encoding t enc v =
  match Field.of_encoding16 enc with
  | None -> Error (Unsupported_field enc)
  | Some f -> write t f v

let copy t = make (Array.copy t.values) t.launch

let restore_from t ~src =
  Array.blit src.values 0 t.values 0 Field.count;
  t.launch <- src.launch;
  (* Full restore: any outstanding checkpoints are meaningless now. *)
  Journal.invalidate t.journal

(* --- incremental (copy-on-write) checkpoints --- *)

type checkpoint = Journal.handle

let checkpoint t = Journal.push t.journal t.launch

let validate t cp = Journal.validate t.journal cp

let rewind t cp =
  let restored = Journal.rewind t.journal cp in
  t.launch <- Journal.saved t.journal;
  restored

let commit t cp = Journal.commit t.journal cp

let nonzero_fields t =
  Array.to_list Field.all
  |> List.filter_map (fun f ->
         let v = read t f in
         if v <> 0L then Some (f, v) else None)

let pp fmt t =
  let st =
    match t.launch with
    | Clear -> "clear"
    | Active_current_clear -> "active-current-clear"
    | Active_current_launched -> "active-current-launched"
  in
  Format.fprintf fmt "@[<v>VMCS (%s)@ " st;
  List.iter
    (fun (f, v) -> Format.fprintf fmt "%s = 0x%Lx@ " (Field.name f) v)
    (nonzero_fields t);
  Format.fprintf fmt "@]"
