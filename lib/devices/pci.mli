(** PCI configuration mechanism #1 (ports 0xCF8/0xCFC).

    Boot-time bus enumeration probes every device/function for a
    vendor ID; the synthetic platform exposes a host bridge, an ISA
    bridge, a NIC and a block device, so the probe loop produces a
    long, realistic train of I/O exits with both hits and misses. *)

type t

val create : unit -> t
val copy : t -> t
val attach : t -> Port_bus.t -> unit

type dev = {
  bus : int;
  slot : int;
  func : int;
  vendor_id : int;
  device_id : int;
  class_code : int;  (** 24-bit class/subclass/prog-if *)
}

val devices : dev list
(** The fixed synthetic topology. *)

val transplant : into:t -> from:t -> unit
(** Overwrite [into] from [from], keeping identity. *)
