type t = {
  mutable index : int;
  ram : int array; (* 128 CMOS bytes *)
}

let bcd v = ((v / 10) lsl 4) lor (v mod 10)

let create () =
  let ram = Array.make 128 0 in
  (* Deterministic timestamp: 2023-06-27 10:30:00 (DSN'23 week). *)
  ram.(0x00) <- bcd 0;   (* seconds *)
  ram.(0x02) <- bcd 30;  (* minutes *)
  ram.(0x04) <- bcd 10;  (* hours *)
  ram.(0x06) <- bcd 2;   (* day of week *)
  ram.(0x07) <- bcd 27;  (* day of month *)
  ram.(0x08) <- bcd 6;   (* month *)
  ram.(0x09) <- bcd 23;  (* year *)
  ram.(0x32) <- bcd 20;  (* century *)
  ram.(0x0A) <- 0x26;    (* status A: divider on, rate 1024 Hz *)
  ram.(0x0B) <- 0x02;    (* status B: 24-hour, BCD *)
  ram.(0x0D) <- 0x80;    (* status D: battery good *)
  (* Base/extended memory size as a classic BIOS reports it. *)
  ram.(0x15) <- 0x80;
  ram.(0x16) <- 0x02;    (* 640 KiB base *)
  ram.(0x17) <- 0x00;
  ram.(0x18) <- 0xFC;    (* extended memory low/high *)
  { index = 0; ram }

let copy t = { index = t.index; ram = Array.copy t.ram }

let attach t bus =
  Port_bus.register bus ~first:0x70 ~last:0x71 ~name:"rtc-cmos"
    { Port_bus.read =
        (fun ~port ~size:_ ->
          if port = 0x70 then Int64.of_int t.index
          else begin
            let v = t.ram.(t.index land 0x7F) in
            (* Reading status C clears it (interrupt flags). *)
            if t.index land 0x7F = 0x0C then t.ram.(0x0C) <- 0;
            Int64.of_int v
          end);
      write =
        (fun ~port ~size:_ v ->
          let v = Int64.to_int (Int64.logand v 0xFFL) in
          if port = 0x70 then t.index <- v land 0x7F
          else
            match t.index land 0x7F with
            | (0x0C | 0x0D) -> () (* read-only status registers *)
            | idx -> t.ram.(idx) <- v) }

let reg_b t = t.ram.(0x0B)

let transplant ~into ~from =
  into.index <- from.index;
  Array.blit from.ram 0 into.ram 0 128
