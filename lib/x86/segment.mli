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

(** {2 Access-rights accessors (VMCS AR-byte layout)} *)

val ar_type : t -> int
(** bits 0..3 *)

val ar_s : t -> bool
(** bit 4: code/data (1) vs system (0) *)

val ar_dpl : t -> int
(** bits 5..6 *)

val ar_present : t -> bool
(** bit 7 *)

val ar_avl : t -> bool
(** bit 12 *)

val ar_long : t -> bool
(** bit 13: 64-bit code *)

val ar_db : t -> bool
(** bit 14: default size *)

val ar_granularity : t -> bool
(** bit 15 *)

val unusable : t -> bool
(** bit 16 *)

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

val entry_valid_cs : t -> bool
(** CS must be a present, accessed code segment and not unusable. *)

val entry_valid_tr : t -> bool
(** TR must be a present busy TSS (type 3 or 11) and not unusable. *)
