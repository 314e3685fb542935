(** Little-endian binary encoding helpers.

    The IRIS seed wire format (§V-A of the paper: 1-byte flag, 1-byte
    encoding, 8-byte value records) is built on these primitives.  A
    [writer] accumulates bytes; a [reader] consumes them with bounds
    checking and raises {!Truncated} on underrun. *)

exception Truncated
(** Raised by readers when the buffer ends mid-value. *)

type writer

val writer : unit -> writer
val w_u8 : writer -> int -> unit
val w_u16 : writer -> int -> unit
val w_u32 : writer -> int -> unit
val w_i64 : writer -> int64 -> unit
val w_bytes : writer -> bytes -> unit
val w_string : writer -> string -> unit
(** Length-prefixed (u32) string. *)

val contents : writer -> bytes
val length : writer -> int

type reader
(** Decodes from an immutable string view of the input; construction
    from [bytes] does not copy (the reader takes ownership and never
    mutates). *)

val reader : bytes -> reader
val reader_of_string : string -> reader
val reader_sub : bytes -> pos:int -> len:int -> reader

val r_reader : reader -> int -> reader
(** [r_reader r len] carves a sub-reader over the next [len] bytes
    without copying; [r] skips past them. *)

val r_u8 : reader -> int
val r_u16 : reader -> int
val r_u32 : reader -> int
val r_i64 : reader -> int64
val r_string : reader -> string
val remaining : reader -> int
val at_end : reader -> bool
