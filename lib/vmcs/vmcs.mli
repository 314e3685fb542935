(** The Virtual Machine Control Structure.

    One VMCS per vCPU.  Apart from its first eight bytes (revision id
    and abort indicator) the structure may only be accessed with
    VMREAD/VMWRITE (SDM 24.11.1) — the type is abstract to enforce
    that in the model too.  The VMCS tracks the hardware launch state
    driven by VMCLEAR / VMPTRLD / VMLAUNCH (Fig. 1 of the paper):
    [Clear] → (VMPTRLD) → [Active_current_clear] → (VMLAUNCH) →
    [Active_current_launched]. *)

type launch_state = Clear | Active_current_clear | Active_current_launched

type t

val revision_id : int64
(** The model's VMCS revision identifier. *)

val create : unit -> t
(** An uninitialised VMCS region (state [Clear], all fields zero). *)

val state : t -> launch_state

val vmclear : t -> unit
(** Initialise / flush: zero launch state back to [Clear]. Field
    values persist (as on hardware, where they live in memory). *)

val set_active : t -> unit
(** VMPTRLD effect: [Clear] → [Active_current_clear]; keeps launched
    state otherwise. *)

val mark_launched : t -> unit
val is_launched : t -> bool

type access_error =
  | Unsupported_field of int  (** encoding not in the table *)
  | Readonly_field of Field.t (** VMWRITE to exit-information area *)

val read : t -> Field.t -> int64
(** Hardware VMREAD of a supported field: always succeeds. *)

val write : t -> Field.t -> int64 -> (unit, access_error) result
(** Hardware VMWRITE: truncates to field width; fails on read-only
    fields. *)

val write_exit_info : t -> Field.t -> int64 -> unit
(** Processor-internal write used when the CPU itself records exit
    information; bypasses the read-only restriction.  Asserts the
    field is in the exit-info area or guest area. *)

val read_by_encoding : t -> int -> (int64, access_error) result
val write_by_encoding : t -> int -> int64 -> (unit, access_error) result

val copy : t -> t
(** Deep copy for snapshots. *)

val restore_from : t -> src:t -> unit
(** Overwrite all fields and the launch state of [t] from [src],
    keeping [t]'s identity (existing current-VMCS pointers stay
    valid).  Snapshot-revert plumbing, not an architectural
    operation. *)

(** {2 Incremental (copy-on-write) checkpoints}

    A dense {!Iris_util.Journal} over the fields, plus the launch state
    saved at each checkpoint: the first write to each field saves its
    prior value, so {!rewind} undoes only the fields the epoch touched
    (the kAFL/Nyx snapshot-reset trick applied to the VMCS) and
    returns how many it restored.  {!restore_from}, the full-restore
    path, invalidates every checkpoint. *)

type checkpoint

val checkpoint : t -> checkpoint
val rewind : t -> checkpoint -> int
val validate : t -> checkpoint -> unit
val commit : t -> checkpoint -> unit

val nonzero_fields : t -> (Field.t * int64) list
(** For debugging/inspection: all fields with a non-zero value. *)

val pp : Format.formatter -> t -> unit
