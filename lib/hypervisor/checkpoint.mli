(** Nested checkpoints over {!Domain}'s copy-on-write machinery.

    A [Checkpoint.t] manages a stack of marks on one domain.  Each
    mark opens a journal epoch in guest memory, the EPT and the VMCS;
    {!rewind} undoes only what was written after the mark, so the
    fuzzer can rewind to the S_R anchor — or to a mid-case mark —
    without replaying the recorded prefix (kAFL/Nyx-style
    snapshot-reset).

    The determinism contract: rewinding to a mark is observably
    identical to a full [Domain.revert] with a snapshot taken at the
    same point. *)

type t

type mark

val start : Domain.t -> t
(** A manager with an empty mark stack.  Taking a full
    [Domain.revert] on the domain afterwards invalidates all marks. *)

val push : t -> mark
(** Open a new innermost mark at the domain's current state. *)

val rewind : t -> mark -> Domain.revert_stats
(** Restore the domain to the state at [mark].  Marks opened after it
    are discarded; [mark] itself stays live and can be rewound to
    again.  Returns the combined restore footprint of the unwind.
    Raises [Invalid_argument] if [mark] was already discarded. *)

val pop : t -> mark -> unit
(** Close [mark] without restoring, folding its journal into the
    parent epoch.  Raises [Invalid_argument] unless [mark] is the
    innermost live mark. *)

val depth : t -> int
(** Number of live marks. *)
