type t = {
  tx : Buffer.t;
  mutable rx : char list;
  mutable ier : int;
  mutable fcr : int;
  mutable lcr : int;
  mutable mcr : int;
  mutable scratch : int;
  mutable divisor : int;
  mutable configured : bool;
}

let base = 0x3F8

let create () =
  { tx = Buffer.create 256;
    rx = [];
    ier = 0;
    fcr = 0;
    lcr = 0;
    mcr = 0;
    scratch = 0;
    divisor = 1;
    configured = false }

let copy t =
  let c = create () in
  Buffer.add_string c.tx (Buffer.contents t.tx);
  c.rx <- t.rx;
  c.ier <- t.ier;
  c.fcr <- t.fcr;
  c.lcr <- t.lcr;
  c.mcr <- t.mcr;
  c.scratch <- t.scratch;
  c.divisor <- t.divisor;
  c.configured <- t.configured;
  c

let dlab t = t.lcr land 0x80 <> 0

let read t ~port ~size:_ =
  match port - base with
  | 0 ->
      if dlab t then Int64.of_int (t.divisor land 0xFF)
      else begin
        match t.rx with
        | [] -> 0L
        | c :: rest ->
            t.rx <- rest;
            Int64.of_int (Char.code c)
      end
  | 1 ->
      if dlab t then Int64.of_int ((t.divisor lsr 8) land 0xFF)
      else Int64.of_int t.ier
  | 2 -> 0xC1L (* IIR: FIFOs enabled, no interrupt pending *)
  | 3 -> Int64.of_int t.lcr
  | 4 -> Int64.of_int t.mcr
  | 5 ->
      (* LSR: transmitter always empty; data-ready if rx nonempty. *)
      let dr = if t.rx = [] then 0 else 1 in
      Int64.of_int (0x60 lor dr)
  | 6 -> 0xB0L (* MSR: CTS, DSR, DCD *)
  | 7 -> Int64.of_int t.scratch
  | _ -> 0xFFL

let write t ~port ~size:_ v =
  let v = Int64.to_int (Int64.logand v 0xFFL) in
  match port - base with
  | 0 ->
      if dlab t then t.divisor <- (t.divisor land 0xFF00) lor v
      else Buffer.add_char t.tx (Char.chr v)
  | 1 ->
      if dlab t then t.divisor <- (t.divisor land 0x00FF) lor (v lsl 8)
      else t.ier <- v
  | 2 -> t.fcr <- v
  | 3 ->
      let had_dlab = dlab t in
      t.lcr <- v;
      if had_dlab && not (dlab t) then t.configured <- true
  | 4 -> t.mcr <- v
  | 7 -> t.scratch <- v
  | _ -> ()

let attach t bus =
  Port_bus.register bus ~first:base ~last:(base + 7) ~name:"uart-com1"
    { Port_bus.read = read t; write = write t }

let transmitted t = Buffer.contents t.tx

let push_rx t c = t.rx <- t.rx @ [ c ]

let divisor t = t.divisor

let configured t = t.configured

(* The transmit log only grows within an epoch (see the interface), so
   its length is all a checkpoint needs of it. *)
type checkpoint = {
  c_tx_len : int;
  c_rx : char list;
  c_ier : int;
  c_fcr : int;
  c_lcr : int;
  c_mcr : int;
  c_scratch : int;
  c_divisor : int;
  c_configured : bool;
}

let checkpoint t =
  { c_tx_len = Buffer.length t.tx;
    c_rx = t.rx;
    c_ier = t.ier;
    c_fcr = t.fcr;
    c_lcr = t.lcr;
    c_mcr = t.mcr;
    c_scratch = t.scratch;
    c_divisor = t.divisor;
    c_configured = t.configured }

let rewind t c =
  Buffer.truncate t.tx c.c_tx_len;
  t.rx <- c.c_rx;
  t.ier <- c.c_ier;
  t.fcr <- c.c_fcr;
  t.lcr <- c.c_lcr;
  t.mcr <- c.c_mcr;
  t.scratch <- c.c_scratch;
  t.divisor <- c.c_divisor;
  t.configured <- c.c_configured

let transplant ~into ~from =
  Buffer.clear into.tx;
  Buffer.add_string into.tx (Buffer.contents from.tx);
  into.rx <- from.rx;
  into.ier <- from.ier;
  into.fcr <- from.fcr;
  into.lcr <- from.lcr;
  into.mcr <- from.mcr;
  into.scratch <- from.scratch;
  into.divisor <- from.divisor;
  into.configured <- from.configured
