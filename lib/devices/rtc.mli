(** MC146818 real-time clock / CMOS (ports 0x70/0x71).

    Boot reads wall-clock time and CMOS configuration bytes through
    the index/data pair; the kernel also programs status register B
    (24-hour mode, update-ended interrupts). Time is deterministic:
    the epoch the paper ran its experiments. *)

type t

val create : unit -> t
val copy : t -> t
val attach : t -> Port_bus.t -> unit

val reg_b : t -> int

val transplant : into:t -> from:t -> unit
(** Overwrite [into] from [from], keeping identity. *)
