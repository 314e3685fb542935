type t = {
  mutable vmread_filter : (Iris_vmcs.Field.t -> int64 -> int64) option;
  mutable on_vmread : (Iris_vmcs.Field.t -> int64 -> unit) option;
  mutable on_vmwrite : (Iris_vmcs.Field.t -> int64 -> unit) option;
  mutable on_exit_start : (unit -> unit) option;
  mutable on_exit_end : (unit -> unit) option;
  mutable callback_cycles : int;
  mutable probe : Iris_telemetry.Probe.t option;
}

let default_callback_cycles = 25

let create () =
  { vmread_filter = None;
    on_vmread = None;
    on_vmwrite = None;
    on_exit_start = None;
    on_exit_end = None;
    callback_cycles = default_callback_cycles;
    probe = None }

let clear t =
  t.vmread_filter <- None;
  t.on_vmread <- None;
  t.on_vmwrite <- None;
  t.on_exit_start <- None;
  t.on_exit_end <- None

(* Every hook invocation goes through one of the [fire_*] helpers so
   the overhead accounting lives in exactly one place: the surcharge
   is paid once per *installed* callback actually invoked, and an
   empty slot charges nothing.  The regression tests pin both
   properties (Fig. 10's overhead is the sum of these charges). *)

let fire_exit_start t ~charge =
  match t.on_exit_start with
  | None -> ()
  | Some cb ->
      charge t.callback_cycles;
      cb ()

let fire_exit_end t ~charge =
  match t.on_exit_end with
  | None -> ()
  | Some cb ->
      charge t.callback_cycles;
      cb ()

let fire_vmread_filter t ~charge field raw =
  match t.vmread_filter with
  | None -> raw
  | Some filter ->
      charge t.callback_cycles;
      filter field raw

let fire_vmread t ~charge field value =
  match t.on_vmread with
  | None -> ()
  | Some cb ->
      charge t.callback_cycles;
      cb field value

let fire_vmwrite t ~charge field value =
  match t.on_vmwrite with
  | None -> ()
  | Some cb ->
      charge t.callback_cycles;
      cb field value
