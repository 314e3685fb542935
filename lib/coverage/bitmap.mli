(** AFL-style shared-memory coverage bitmap.

    The paper's instrumented Xen "writes its own basic block coverage
    to a bitmap, which is exported as a shared memory area accessible
    at the guest level".  The fuzzer uses it as a cheap novelty
    signal: a test case is interesting if it sets a byte no previous
    input set.

    Each map also lists the slots it has filled, so [merge],
    [merge_new], [reset] and [set_bytes] cost time proportional to the
    slots touched, not to [size]: the per-case novelty check over a
    span of a few dozen points does not walk 64 KiB. *)

type t

val create : ?size:int -> unit -> t
(** [size] defaults to 65536 and must be a power of two. *)

val size : t -> int

val record : t -> Cov.point -> unit
(** Hash the point into a byte slot and saturating-increment it. *)

val record_set : t -> Cov.Pset.t -> unit

val set_bytes : t -> int
(** Number of non-zero bytes (the classic "map density" numerator). *)

val merge_new : virgin:t -> t -> int
(** [merge_new ~virgin m] folds [m] into the accumulated [virgin] map
    and returns how many *new* byte slots [m] touched — the fuzzer's
    novelty count. *)

val merge : into:t -> t -> unit
(** [merge ~into m] unions [m] into [into] (saturating per-slot sum).
    Commutative and associative up to saturation, so merging
    per-worker maps in any order matches one sequential run — the
    orchestrator's join path relies on this. *)

val reset : t -> unit
val copy : t -> t
