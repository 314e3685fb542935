(** Nested first-touch undo log: the one copy-on-write engine behind
    every checkpointable store ([Gmem], [Ept], [Vmcs], [Vmcb]).

    {!push} opens an epoch.  The store reports each write before it
    happens, and the innermost epoch saves the key's prior value (its
    pre-image) on the first write to it.  {!rewind} writes pre-images
    back, innermost epoch first, down to any live handle; the target
    epoch stays open and empty, the ones inside it are discarded.
    {!commit} folds the innermost epoch into its parent.  Closed epochs
    are pooled.  A handle carries its push's stamp, unique within the
    journal, so it is rejected once its epoch is gone, even after a
    later push reaches the same depth.  Each epoch also keeps one value
    saved at push (e.g. the VMCS launch state).

    Errors name the store: [<name>.rewind: stale checkpoint] and
    [<name>.commit: not the innermost checkpoint]. *)

type ('log, 's) t

type handle

val push : (_, 's) t -> 's -> handle

val rewind : (_, _) t -> handle -> int
(** Restore the state at [handle]'s push; returns the number of
    pre-images written back.  A stale handle raises [Invalid_argument]
    before anything changes. *)

val validate : (_, _) t -> handle -> unit
(** Raise what {!rewind} would raise on [handle]; change nothing. *)

val commit : (_, _) t -> handle -> unit
(** Raises [Invalid_argument] unless [handle] is the innermost. *)

val invalidate : (_, _) t -> unit
(** Discard every epoch, for the store's full-restore paths. *)

val depth : (_, _) t -> int

val dirty : (_, _) t -> int
(** Keys saved in the innermost epoch (0 when none is open). *)

val saved : (_, 's) t -> 's
(** The innermost epoch's value saved at push. *)

(** {2 Dense epochs}: the keys are the indices of an [int64 array]; a
    seen byte per index makes the probe one byte load. *)

type dense

val dense : name:string -> int64 array -> (dense, 's) t
(** {!rewind} writes pre-images back into the given array. *)

val note : (dense, _) t -> int64 array -> int -> unit
(** Call before writing index [i] of the array given to {!dense}.
    Allocation-free. *)

(** {2 Sparse epochs}: any keyed store; one pooled [Hashtbl] per
    epoch. *)

type ('k, 'v) sparse

val sparse :
  name:string -> restore:('k -> 'v -> unit) -> (('k, 'v) sparse, 's) t
(** {!rewind} hands each pre-image to [restore]. *)

val first_touch : (('k, _) sparse, _) t -> 'k -> bool
(** True when an epoch is open and has not saved [k]: the store must
    then {!save} [k]'s pre-image before writing. *)

val save : (('k, 'v) sparse, _) t -> 'k -> 'v -> unit
