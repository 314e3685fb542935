(* Initialisation state machine of one 8259A. *)
type icw_state = Ready | Await_icw2 | Await_icw3 | Await_icw4

type chip = {
  mutable state : icw_state;
  mutable needs_icw4 : bool;
  mutable base : int;        (* vector offset (ICW2) *)
  mutable imr : int;
  mutable irr : int;
  mutable isr : int;
  mutable init_done : bool;
  mutable read_isr : bool;   (* OCW3 read-register selector *)
}

let fresh_chip base =
  { state = Ready;
    needs_icw4 = false;
    base;
    imr = 0xFF;
    irr = 0;
    isr = 0;
    init_done = false;
    read_isr = false }

type t = { master : chip; slave : chip }

let create () = { master = fresh_chip 0x08; slave = fresh_chip 0x70 }

let copy t =
  { master = { t.master with state = t.master.state };
    slave = { t.slave with state = t.slave.state } }

let command_write c v =
  if v land 0x10 <> 0 then begin
    (* ICW1: start initialisation. *)
    c.state <- Await_icw2;
    c.needs_icw4 <- v land 0x01 <> 0;
    c.imr <- 0;
    c.isr <- 0;
    c.irr <- 0;
    c.init_done <- false
  end
  else if v land 0x08 <> 0 then
    (* OCW3: read-register command. *)
    c.read_isr <- v land 0x03 = 0x03
  else begin
    (* OCW2: EOI handling (non-specific). *)
    if v land 0x20 <> 0 then begin
      (* Clear the highest-priority in-service bit. *)
      let rec clear i =
        if i < 8 then
          if c.isr land (1 lsl i) <> 0 then c.isr <- c.isr land lnot (1 lsl i)
          else clear (i + 1)
      in
      clear 0
    end
  end

let data_write c v =
  match c.state with
  | Await_icw2 ->
      c.base <- v land 0xF8;
      c.state <- Await_icw3
  | Await_icw3 ->
      c.state <- (if c.needs_icw4 then Await_icw4 else Ready);
      if not c.needs_icw4 then c.init_done <- true
  | Await_icw4 ->
      c.state <- Ready;
      c.init_done <- true
  | Ready -> c.imr <- v land 0xFF

let data_read c = Int64.of_int c.imr

let command_read c = Int64.of_int (if c.read_isr then c.isr else c.irr)

let chip_for t port = if port < 0xA0 then t.master else t.slave

let attach t bus =
  let handler =
    { Port_bus.read =
        (fun ~port ~size:_ ->
          let c = chip_for t port in
          if port land 1 = 0 then command_read c else data_read c);
      write =
        (fun ~port ~size:_ v ->
          let c = chip_for t port in
          let v = Int64.to_int (Int64.logand v 0xFFL) in
          if port land 1 = 0 then command_write c v else data_write c v) }
  in
  Port_bus.register bus ~first:0x20 ~last:0x21 ~name:"pic-master" handler;
  Port_bus.register bus ~first:0xA0 ~last:0xA1 ~name:"pic-slave" handler

let raise_irq t line =
  assert (line >= 0 && line < 16);
  if line < 8 then t.master.irr <- t.master.irr lor (1 lsl line)
  else begin
    t.slave.irr <- t.slave.irr lor (1 lsl (line - 8));
    (* Cascade into master IRQ2. *)
    t.master.irr <- t.master.irr lor 0x04
  end

let pending chip =
  let unmasked = chip.irr land lnot chip.imr in
  let rec first i = if i >= 8 then None else if unmasked land (1 lsl i) <> 0 then Some i else first (i + 1) in
  first 0

let has_pending t =
  match pending t.master with
  | None -> false
  | Some 2 -> pending t.slave <> None
  | Some _ -> true

let ack t =
  match pending t.master with
  | None -> None
  | Some 2 -> (
      (* Cascaded: resolve on the slave. *)
      match pending t.slave with
      | None -> None
      | Some line ->
          t.slave.irr <- t.slave.irr land lnot (1 lsl line);
          t.slave.isr <- t.slave.isr lor (1 lsl line);
          t.master.irr <- t.master.irr land lnot 0x04;
          t.master.isr <- t.master.isr lor 0x04;
          Some (t.slave.base + line))
  | Some line ->
      t.master.irr <- t.master.irr land lnot (1 lsl line);
      t.master.isr <- t.master.isr lor (1 lsl line);
      Some (t.master.base + line)

let eoi t =
  command_write t.master 0x20;
  if t.master.isr land 0x04 = 0 then command_write t.slave 0x20

let initialised t = t.master.init_done && t.slave.init_done

let vector_base t = (t.master.base, t.slave.base)

let imr t = (t.master.imr, t.slave.imr)

let transplant_chip ~into ~from =
  into.state <- from.state;
  into.needs_icw4 <- from.needs_icw4;
  into.base <- from.base;
  into.imr <- from.imr;
  into.irr <- from.irr;
  into.isr <- from.isr;
  into.init_done <- from.init_done;
  into.read_isr <- from.read_isr

let transplant ~into ~from =
  transplant_chip ~into:into.master ~from:from.master;
  transplant_chip ~into:into.slave ~from:from.slave
