(** Segment registers and descriptors.

    Each guest segment register lives in the VMCS guest-state area as
    four fields: selector, base, limit and access rights (the "AR
    bytes", in the packed VMCS format with the unusable bit at
    position 16).  Descriptor-table registers (GDTR/IDTR) carry base
    and limit only.  VM-entry performs extensive consistency checks on
    these (SDM 26.3.1.2); IRIS seeds that corrupt them are a prime
    source of entry failures during fuzzing. *)

type name = Cs | Ds | Es | Fs | Gs | Ss | Tr | Ldtr

val all_names : name list

type t = {
  selector : int;      (** 16-bit selector *)
  base : int64;
  limit : int64;       (** 32-bit limit *)
  ar : int;            (** packed access rights, VMCS format *)
}

val pp : Format.formatter -> t -> unit

(** {2 Access-rights accessors (VMCS AR-byte layout)}

    Over a packed AR value: a {!t}'s [ar], or a guest AR-bytes field
    read straight from the VMCS. *)
module Ar : sig
  val typ : int -> int
  (** bits 0..3 *)

  val s : int -> bool
  (** bit 4: code/data (1) vs system (0) *)

  val dpl : int -> int
  (** bits 5..6 *)

  val present : int -> bool
  (** bit 7 *)

  val long : int -> bool
  (** bit 13: 64-bit code *)

  val db : int -> bool
  (** bit 14: default size *)

  val granularity : int -> bool
  (** bit 15 *)

  val unusable : int -> bool
  (** bit 16 *)

  val valid_cs : int -> bool
  (** A VM-entry-valid CS: a usable, present code segment (S set,
      type bit 3 set). *)

  val valid_tr : int -> bool
  (** A VM-entry-valid TR: a present busy TSS (type 3 or 11) and not
      unusable. *)
end

val make_ar :
  ?typ:int -> ?s:bool -> ?dpl:int -> ?present:bool -> ?avl:bool ->
  ?long:bool -> ?db:bool -> ?granularity:bool -> ?unusable:bool ->
  unit -> int

(** {2 Canonical descriptors} *)

val real_mode : name -> t
(** Flat real-mode segment (base = selector << 4 convention collapsed
    to 0, limit 0xFFFF). *)

val flat_code32 : t
(** Flat 4 GiB 32-bit ring-0 code segment (selector 0x08). *)

val flat_data32 : t
(** Flat 4 GiB 32-bit ring-0 data segment (selector 0x10). *)

val flat_code64 : t
val flat_data64 : t
val null_unusable : t
val initial_tr : t
(** A busy 32-bit TSS as required by entry checks. *)

val initial_ldtr : t
