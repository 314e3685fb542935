(** 16550A UART (COM1).

    Early-boot console: the kernel sets the divisor latch, line
    control and FIFOs, then streams boot messages one OUT per byte —
    the single largest source of I/O-instruction exits during the
    paper's OS BOOT trace. *)

type t

val create : unit -> t
val copy : t -> t
val attach : t -> Port_bus.t -> unit

val transmitted : t -> string
(** Everything the guest wrote to the transmit register. *)

val push_rx : t -> char -> unit
(** Feed a byte into the receive FIFO. *)

val divisor : t -> int
(** Programmed baud divisor. *)

val configured : t -> bool
(** Line control has been written with DLAB cleared at least once
    after a divisor setup. *)

val transplant : into:t -> from:t -> unit
(** Overwrite [into] from [from], keeping identity. *)

(** {2 Incremental checkpoints}

    A checkpoint records the transmit-log length and the register
    state; it does not copy the log.  {!rewind} truncates the log back
    to that length, which is exact because the log only grows between
    a checkpoint and its rewind: {!transplant} is the one operation
    that can shrink it, and it belongs to the full-restore path that
    invalidates checkpoints. *)

type checkpoint

val checkpoint : t -> checkpoint

val rewind : t -> checkpoint -> unit
(** Restore the state captured at [checkpoint].  Raises
    [Invalid_argument] if the log is now shorter than it was then. *)
