(** General-purpose registers.

    Intel VT-x does *not* save general-purpose registers in the VMCS on
    a VM exit; the hypervisor saves them in its own per-vCPU structure
    (Xen's [cpu_user_regs]).  That is why the IRIS VM seed carries the
    GPR values separately from the VMCS {field,value} pairs, and why the
    paper's seed record encodes "GPR (15 values)": the 16 architectural
    registers minus RSP, which lives in the VMCS guest-state area. *)

type reg =
  | Rax | Rcx | Rdx | Rbx | Rbp | Rsi | Rdi
  | R8 | R9 | R10 | R11 | R12 | R13 | R14 | R15

val all : reg array
(** The 15 registers, in encoding order. *)

val count : int
(** [15]. *)

val encode : reg -> int
(** Stable 1-byte encoding used in the seed wire format. *)

val decode : int -> reg option

val name : reg -> string

val pp : Format.formatter -> reg -> unit

type file
(** A mutable register file. *)

val create : unit -> file
(** All registers zero. *)

val get : file -> reg -> int64
val set : file -> reg -> int64 -> unit
val copy : file -> file
val copy_into : src:file -> dst:file -> unit
val iter : (reg -> int64 -> unit) -> file -> unit
val equal : file -> file -> bool
