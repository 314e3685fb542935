type dev = {
  bus : int;
  slot : int;
  func : int;
  vendor_id : int;
  device_id : int;
  class_code : int;
}

let devices =
  [ { bus = 0; slot = 0; func = 0; vendor_id = 0x8086; device_id = 0x0C00;
      class_code = 0x060000 } (* host bridge *);
    { bus = 0; slot = 1; func = 0; vendor_id = 0x8086; device_id = 0x8C50;
      class_code = 0x060100 } (* ISA bridge *);
    { bus = 0; slot = 3; func = 0; vendor_id = 0x8086; device_id = 0x100E;
      class_code = 0x020000 } (* e1000-like NIC *);
    { bus = 0; slot = 5; func = 0; vendor_id = 0x1AF4; device_id = 0x1001;
      class_code = 0x010000 } (* virtio block *) ]

type t = { mutable address : int32 }

let create () = { address = 0l }

let copy t = { address = t.address }

let decode address =
  let a = Int32.to_int address land 0x7FFFFFFF in
  let bus = (a lsr 16) land 0xFF in
  let slot = (a lsr 11) land 0x1F in
  let func = (a lsr 8) land 0x7 in
  let reg = a land 0xFC in
  (bus, slot, func, reg)

let config_read t ~size =
  if Int32.logand t.address 0x80000000l = 0l then Iris_util.Bits.mask (8 * size)
  else begin
    let bus, slot, func, reg = decode t.address in
    match
      List.find_opt
        (fun d -> d.bus = bus && d.slot = slot && d.func = func)
        devices
    with
    | None -> Iris_util.Bits.mask (8 * size)
    | Some d -> (
        let dword =
          match reg with
          | 0x00 -> (d.device_id lsl 16) lor d.vendor_id
          | 0x04 -> 0x02900007 (* status | command *)
          | 0x08 -> (d.class_code lsl 8) lor 0x01 (* rev 1 *)
          | 0x0C -> 0x00000000 (* header type 0 *)
          | 0x10 -> 0xFEB00000 (* BAR0: a memory BAR *)
          | 0x2C -> (d.device_id lsl 16) lor d.vendor_id (* subsystem *)
          | 0x3C -> 0x0100 + d.slot (* pin A, line = slot-derived *)
          | _ -> 0
        in
        let v = Int64.of_int (dword land 0xFFFFFFFF) in
        match size with
        | 4 -> v
        | 2 -> Int64.logand v 0xFFFFL
        | _ -> Int64.logand v 0xFFL)
  end

let attach t bus =
  Port_bus.register bus ~first:0xCF8 ~last:0xCFB ~name:"pci-config-address"
    { Port_bus.read = (fun ~port:_ ~size:_ -> Int64.of_int32 t.address);
      write =
        (fun ~port:_ ~size:_ v ->
          t.address <- Int64.to_int32 (Int64.logand v 0xFFFFFFFFL)) };
  Port_bus.register bus ~first:0xCFC ~last:0xCFF ~name:"pci-config-data"
    { Port_bus.read = (fun ~port:_ ~size -> config_read t ~size);
      write = (fun ~port:_ ~size:_ _ -> ()) }

let transplant ~into ~from = into.address <- from.address
