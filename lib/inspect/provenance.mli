(** Field-provenance index over a recorded trace.

    Answers the debugger questions the accuracy report cannot:
    "which exit first read (or wrote) VMCS field X", "which devices
    did the I/O exits before seed [i] reach" — and, combined with
    {!Session.reverse_continue_to}, "run backwards to the exit that
    last touched X before seed [i]" (the rr reverse-watchpoint idiom
    over IRIS seeds).

    The index is built once from the trace's seeds — recorded VMREAD
    traffic is a read provenance, recorded VMWRITE traffic a write
    provenance — so queries are pure lookups and never touch the
    hypervisor. *)

type access = Read | Write

type touch = {
  t_index : int;  (** submission index of the touching exit *)
  t_reason : Iris_vtx.Exit_reason.t;
  t_access : access;
  t_value : int64;
}

type t

val build : Iris_core.Trace.t -> t
(** The trace must carry seeds ([store_seeds] recordings). *)

val field_touches : t -> Iris_vmcs.Field.t -> touch list
(** Every recorded access to the field, ascending index, reads and
    writes interleaved in execution order per exit. *)

val first_touch :
  ?access:access -> t -> Iris_vmcs.Field.t -> touch option
(** First exit touching the field (optionally restricted to reads or
    writes only). *)

val last_touch_before :
  ?access:access -> t -> Iris_vmcs.Field.t -> int -> touch option
(** [last_touch_before t f i] is the newest touch of [f] strictly
    before seed [i] — the reverse-continue target. *)

(** {2 Device-state provenance}

    I/O-instruction exits decoded through the exit qualification:
    which emulated platform device each port access went to.  OUT
    exits are [Write] touches carrying the written value (RAX masked
    to the access size); IN exits are [Read] touches carrying 0 (the
    read result is produced by the device model, not the seed). *)

type device = Pic | Pit | Rtc | Uart | Pci | Port_other

val device_name : device -> string
val device_of_port : int -> device
(** The lib/devices port map: PIC 0x20/0x21 + 0xA0/0xA1, PIT
    0x40-0x43, RTC/CMOS 0x70/0x71, COM1 UART 0x3F8-0x3FF, PCI
    config 0xCF8-0xCFF; anything else is [Port_other]. *)

val device_touches : t -> device -> touch list
(** Accesses to any port of one device, ascending index. *)

val devices_touched : ?before:int -> t -> (device * int) list
(** Touch counts per device (declaration order, zero counts
    omitted), optionally restricted to exits strictly before seed
    [before] — the device state a replay prefix has established,
    which is what triage buckets cite. *)
