(* PIT input clock vs CPU clock: 1.193182 MHz vs 3.6 GHz. *)
let cpu_cycles_per_pit_tick = 3017

type rw_mode = Lo | Hi | Lohi

type channel = {
  mutable reload : int;
  mutable count : int;
  mutable mode : int;
  mutable rw : rw_mode;
  mutable wrote_lo : bool;   (* lobyte/hibyte write phase *)
  mutable latched : int option;
  mutable programmed : bool;
}

let fresh_channel () =
  { reload = 0x10000;
    count = 0;
    mode = 0;
    rw = Lohi;
    wrote_lo = false;
    latched = None;
    programmed = false }

type t = {
  channels : channel array;
  mutable residual_cycles : int;
}

let create () =
  { channels = Array.init 3 (fun _ -> fresh_channel ());
    residual_cycles = 0 }

let copy t =
  { channels = Array.map (fun c -> { c with reload = c.reload }) t.channels;
    residual_cycles = t.residual_cycles }

let control_write t v =
  let sel = (v lsr 6) land 0x3 in
  if sel = 3 then () (* read-back command: unimplemented, dropped *)
  else begin
    let c = t.channels.(sel) in
    match (v lsr 4) land 0x3 with
    | 0 -> c.latched <- Some c.count
    | 1 ->
        c.rw <- Lo;
        c.mode <- (v lsr 1) land 0x7
    | 2 ->
        c.rw <- Hi;
        c.mode <- (v lsr 1) land 0x7
    | _ ->
        c.rw <- Lohi;
        c.wrote_lo <- false;
        c.mode <- (v lsr 1) land 0x7
  end

let counter_write c v =
  let v = v land 0xFF in
  (match c.rw with
  | Lo -> c.reload <- (c.reload land 0xFF00) lor v
  | Hi -> c.reload <- (c.reload land 0x00FF) lor (v lsl 8)
  | Lohi ->
      if c.wrote_lo then begin
        c.reload <- (c.reload land 0x00FF) lor (v lsl 8);
        c.wrote_lo <- false
      end
      else begin
        c.reload <- (c.reload land 0xFF00) lor v;
        c.wrote_lo <- true
      end);
  if c.reload = 0 then c.reload <- 0x10000;
  c.count <- c.reload;
  c.programmed <- true

let counter_read c =
  let value = match c.latched with Some v -> v | None -> c.count in
  c.latched <- None;
  Int64.of_int (value land 0xFF)

let attach t bus =
  let handler =
    { Port_bus.read =
        (fun ~port ~size:_ ->
          if port >= 0x40 && port <= 0x42 then counter_read t.channels.(port - 0x40)
          else 0xFFL);
      write =
        (fun ~port ~size:_ v ->
          let v = Int64.to_int (Int64.logand v 0xFFL) in
          if port = 0x43 then control_write t v
          else if port >= 0x40 && port <= 0x42 then
            counter_write t.channels.(port - 0x40) v) }
  in
  Port_bus.register bus ~first:0x40 ~last:0x43 ~name:"pit" handler

let channel_period t i =
  if t.channels.(i).programmed then Some t.channels.(i).reload else None

let channel_mode t i = t.channels.(i).mode

let tick t ~cycles =
  assert (cycles >= 0);
  let total = t.residual_cycles + cycles in
  let pit_ticks = total / cpu_cycles_per_pit_tick in
  t.residual_cycles <- total mod cpu_cycles_per_pit_tick;
  let c0 = t.channels.(0) in
  if not c0.programmed then 0
  else begin
    let fired = ref 0 in
    let remaining = ref pit_ticks in
    while !remaining > 0 do
      if c0.count > !remaining then begin
        c0.count <- c0.count - !remaining;
        remaining := 0
      end
      else begin
        remaining := !remaining - c0.count;
        c0.count <- c0.reload;
        incr fired
      end
    done;
    !fired
  end

let transplant ~into ~from =
  Array.iteri
    (fun i src ->
      let dst = into.channels.(i) in
      dst.reload <- src.reload;
      dst.count <- src.count;
      dst.mode <- src.mode;
      dst.rw <- src.rw;
      dst.wrote_lo <- src.wrote_lo;
      dst.latched <- src.latched;
      dst.programmed <- src.programmed)
    from.channels;
  into.residual_cycles <- from.residual_cycles
