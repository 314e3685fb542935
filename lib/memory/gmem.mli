(** Sparse guest-physical memory.

    The test VM's RAM (1 GiB in the paper's setup).  IRIS deliberately
    does *not* record this state in its seeds (§IV-A), which is what
    makes replay diverge on memory-dependent emulation paths — so the
    model must exist for the record side even though the replayer's
    dummy VM has an empty one. *)

type t

val page_size : int
(** 4096. *)

val create : size_mib:int -> t
(** Fresh zeroed memory of [size_mib] MiB. *)

val size_bytes : t -> int64

val in_range : t -> int64 -> bool

exception Bad_address of int64
(** Raised on out-of-range physical accesses. *)

val read_u8 : t -> int64 -> int
val write_u8 : t -> int64 -> int -> unit

val read : t -> int64 -> width:int -> int64
(** Little-endian read of [width] bytes (1, 2, 4 or 8). *)

val write : t -> int64 -> width:int -> int64 -> unit

val read_bytes : t -> int64 -> int -> bytes
val write_bytes : t -> int64 -> bytes -> unit

val copy : t -> t
(** Deep copy (for snapshots).  All-zero pages are dropped — an
    absent page reads as zeros — so the copy is canonical. *)

val transplant : into:t -> from:t -> unit
(** Overwrite [into]'s contents with a deep copy of [from], keeping
    [into]'s identity (closures holding it stay valid).  Sizes must
    match.  Discards any outstanding checkpoints on [into]. *)

val clear : t -> unit
(** Drop every page (and any outstanding checkpoints). *)

val allocated_pages : t -> int
(** Pages actually touched (sparse backing). *)

val nonzero_pages : t -> (int64 * bytes) list
(** Canonical logical contents: (pfn, contents) for every page with at
    least one nonzero byte, sorted by pfn.  Two memories with equal
    [nonzero_pages] are observationally identical. *)

val equal : t -> t -> bool
(** Logical equality ([nonzero_pages] plus size). *)

(** {2 Incremental (copy-on-write) checkpoints}

    A sparse {!Iris_util.Journal} over pages: the first write to a page
    in an epoch saves its prior contents, so {!rewind} restores only
    the dirtied pages instead of deep-copying the whole memory and
    returns how many it restored.  Nesting, staleness and the
    [Gmem.rewind]/[Gmem.commit] errors are the journal's.
    {!transplant} and {!clear} — the full restore paths — invalidate
    every checkpoint. *)

type checkpoint

val checkpoint : t -> checkpoint
val rewind : t -> checkpoint -> int
val validate : t -> checkpoint -> unit
val commit : t -> checkpoint -> unit
val checkpoint_depth : t -> int

val dirty_pages : t -> int
(** Pages dirtied so far in the innermost open epoch. *)
