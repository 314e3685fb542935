(** Extended Page Tables (second-level address translation).

    The hypervisor maps guest-physical to host-physical pages with
    per-page read/write/execute permissions.  An access the mapping
    does not allow — or to an unmapped page, e.g. an MMIO hole for an
    emulated device — raises an *EPT violation* VM exit (reason 48)
    whose exit qualification encodes the access type and the
    permissions found. *)

type perm = { r : bool; w : bool; x : bool }

val perm_none : perm
val perm_ro : perm
val perm_rw : perm
val perm_rwx : perm

type access = Read | Write | Exec

type t

val create : unit -> t

val map : t -> gpa:int64 -> len:int64 -> perm -> unit
(** Map [len] bytes starting at page-aligned [gpa] with [perm];
    overwrites previous mappings in the range. *)

val unmap : t -> gpa:int64 -> len:int64 -> unit
(** Remove mappings, turning the range into an MMIO hole. *)

val lookup : t -> int64 -> perm option
(** Permissions of the page containing the address, [None] if
    unmapped. *)

type violation = {
  gpa : int64;
  access : access;
  present : perm option;  (** what the EPT held, if mapped *)
}

val check : t -> gpa:int64 -> access -> (unit, violation) result

val qualification : violation -> int64
(** Exit-qualification encoding per SDM Table 27-7: bits 0..2 are the
    access type, bits 3..5 the page permissions, bit 7 valid-GLA. *)

val copy : t -> t

val transplant : into:t -> from:t -> unit
(** Overwrite [into]'s mappings with a copy of [from]'s, keeping
    [into]'s identity.  Discards any outstanding checkpoints on
    [into]. *)

val mapped_pages : t -> int

val override_count : t -> int
(** Entries in the per-page override table (the part a snapshot must
    deep-copy). *)

val dump : t -> (int64 * int64 * perm) list * (int64 * perm option) list
(** Canonical contents: the range list (newest first) and the override
    table sorted by pfn ([None] = MMIO hole).  Two EPTs with equal
    dumps translate identically. *)

(** {2 Incremental (copy-on-write) checkpoints}

    As in {!Gmem}, over the override table: a sparse
    {!Iris_util.Journal} saves the prior binding of every override
    [map]/[unmap] touch, and each epoch keeps the immutable range-list
    head, so {!rewind} undoes only what changed and returns the number
    of override entries restored.  {!transplant} invalidates every
    checkpoint. *)

type checkpoint

val checkpoint : t -> checkpoint
val rewind : t -> checkpoint -> int
val validate : t -> checkpoint -> unit
val commit : t -> checkpoint -> unit
