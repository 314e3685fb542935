(** Intel 8259A programmable interrupt controller (master + slave).

    The boot workload programs the pair through the classic
    ICW1..ICW4 initialisation sequence on ports 0x20/0x21 and
    0xA0/0xA1 and then masks/unmasks lines — each OUT a separate VM
    exit with a distinct handler path. *)

type t

val create : unit -> t
val copy : t -> t

val attach : t -> Port_bus.t -> unit
(** Register both PICs' ports on the bus. *)

val raise_irq : t -> int -> unit
(** Assert IRQ line 0..15. *)

val ack : t -> int option
(** Highest-priority unmasked pending vector, acknowledging it
    (interrupt-acknowledge cycle); [None] if nothing pending. *)

val has_pending : t -> bool
(** Whether {!ack} would deliver a vector, without consuming it. *)

val eoi : t -> unit
(** Non-specific EOI to the master (and slave if cascaded IRQ was in
    service). *)

val initialised : t -> bool
(** Both PICs completed their ICW sequences. *)

val vector_base : t -> int * int
(** Programmed vector offsets (master, slave); (0x08, 0x70) at reset
    convention, typically remapped to (0x20, 0x28) by an OS. *)

val imr : t -> int * int
(** Current interrupt masks. *)

val transplant : into:t -> from:t -> unit
(** Overwrite [into] from [from], keeping identity. *)
