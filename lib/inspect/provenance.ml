module F = Iris_vmcs.Field
module R = Iris_vtx.Exit_reason
module Gpr = Iris_x86.Gpr
module Seed = Iris_core.Seed
module Trace = Iris_core.Trace

type access = Read | Write

type touch = {
  t_index : int;
  t_reason : R.t;
  t_access : access;
  t_value : int64;
}

type device = Pic | Pit | Rtc | Uart | Pci | Port_other

let device_name = function
  | Pic -> "PIC"
  | Pit -> "PIT"
  | Rtc -> "RTC"
  | Uart -> "UART"
  | Pci -> "PCI"
  | Port_other -> "port"

let all_devices = [ Pic; Pit; Rtc; Uart; Pci; Port_other ]

(* The port map mirrors what the device models register on the bus
   (lib/devices): both PICs, the PIT channels, RTC/CMOS, COM1 and the
   PCI config-mechanism-1 pair. *)
let device_of_port p =
  if (p >= 0x20 && p <= 0x21) || (p >= 0xA0 && p <= 0xA1) then Pic
  else if p >= 0x40 && p <= 0x43 then Pit
  else if p >= 0x70 && p <= 0x71 then Rtc
  else if p >= 0x3F8 && p <= 0x3FF then Uart
  else if p >= 0xCF8 && p <= 0xCFF then Pci
  else Port_other

type t = {
  by_field : (F.t, touch list) Hashtbl.t;  (** ascending index *)
  ports : (int, touch list) Hashtbl.t;
      (** I/O-instruction exits per port; OUT touches carry the
          written value, IN touches 0 *)
}

let push tbl key touch =
  let prev = try Hashtbl.find tbl key with Not_found -> [] in
  Hashtbl.replace tbl key (touch :: prev)

let finalize tbl = Hashtbl.iter (fun k v -> Hashtbl.replace tbl k (List.rev v)) tbl

let build (trace : Trace.t) =
  let by_field = Hashtbl.create 64 in
  let ports = Hashtbl.create 16 in
  Array.iter
    (fun (s : Seed.t) ->
      let mk access (f, v) =
        push by_field f
          { t_index = s.Seed.index; t_reason = s.Seed.reason;
            t_access = access; t_value = v }
      in
      List.iter (mk Read) s.Seed.reads;
      List.iter (mk Write) s.Seed.writes;
      (match s.Seed.reason with
      | R.Io_instruction -> (
          match
            Option.bind
              (Seed.first_read s F.exit_qualification)
              Iris_vtx.Exit_qual.decode_io
          with
          | None -> ()
          | Some io ->
              let open Iris_vtx.Exit_qual in
              let access, value =
                match io.direction with
                | Io_out ->
                    let mask =
                      match io.size with
                      | 1 -> 0xFFL
                      | 2 -> 0xFFFFL
                      | _ -> 0xFFFF_FFFFL
                    in
                    (Write, Int64.logand (Seed.gpr_value s Gpr.Rax) mask)
                | Io_in -> (Read, 0L)
              in
              push ports io.port
                { t_index = s.Seed.index; t_reason = s.Seed.reason;
                  t_access = access; t_value = value })
      | _ -> ()))
    trace.Trace.seeds;
  finalize by_field;
  finalize ports;
  { by_field; ports }

let field_touches t f = try Hashtbl.find t.by_field f with Not_found -> []

let matches access touch =
  match access with None -> true | Some a -> touch.t_access = a

let first_touch ?access t f =
  List.find_opt (matches access) (field_touches t f)

let last_touch_before ?access t f i =
  List.fold_left
    (fun acc touch ->
      if touch.t_index < i && matches access touch then Some touch else acc)
    None (field_touches t f)

let device_touches t d =
  Hashtbl.fold
    (fun p touches acc ->
      if device_of_port p = d then List.rev_append touches acc else acc)
    t.ports []
  |> List.sort (fun a b -> compare a.t_index b.t_index)

let devices_touched ?(before = max_int) t =
  let counts = Hashtbl.create 8 in
  Hashtbl.iter
    (fun p touches ->
      let d = device_of_port p in
      let n =
        List.fold_left
          (fun n touch -> if touch.t_index < before then n + 1 else n)
          0 touches
      in
      let prev = try Hashtbl.find counts d with Not_found -> 0 in
      Hashtbl.replace counts d (prev + n))
    t.ports;
  List.filter_map
    (fun d ->
      match Hashtbl.find_opt counts d with
      | Some n when n > 0 -> Some (d, n)
      | _ -> None)
    all_devices
