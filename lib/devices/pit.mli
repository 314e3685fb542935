(** Intel 8254 programmable interval timer.

    Channel 0 drives the platform tick; the boot workload programs a
    mode-2 rate generator and the kernel calibrates its TSC against
    it — a burst of OUT 0x43 / OUT 0x40 / IN 0x40 exits interleaved
    with RDTSC exits. *)

type t

val create : unit -> t
val copy : t -> t
val attach : t -> Port_bus.t -> unit

val channel_period : t -> int -> int option
(** Programmed reload value, if the channel has been set up. *)

val channel_mode : t -> int -> int
(** Programmed operating mode (0..5); periodic interrupt generation
    needs mode 2 (rate generator) or 3 (square wave). *)

val tick : t -> cycles:int -> int
(** Advance the PIT input clock (1.193182 MHz derived from the given
    CPU cycles at 3.6 GHz) and return how many channel-0 output pulses
    fired (pending IRQ 0 assertions). *)

val transplant : into:t -> from:t -> unit
(** Overwrite [into] from [from], keeping identity. *)
