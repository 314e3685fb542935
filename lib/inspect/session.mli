(** A time-travel session over one recorded trace.

    Drives a {!Iris_core.Replayer} the way rr drives a recorded
    process: an initial pass replays the whole trace uninstrumented,
    pushing an {!Iris_hv.Checkpoint} mark on the replayer's domain
    every [every] seeds; afterwards {!goto} moves the domain to any
    submission index by rewinding to the nearest mark at or below the
    target and replaying forward — never by re-running the whole
    prefix.  The session is the only owner of the marks: {!finish}
    must run before the underlying domain is fully reverted again.

    Positions are *boundaries*: position [i] is the state before seed
    [i] is submitted.  If the trace crashes the dummy VM at seed [c],
    reachable positions are [0..c] (rewinding below the crash
    un-crashes the domain, so earlier positions stay reachable). *)

type t

val start :
  ?every:int -> replayer:Iris_core.Replayer.t ->
  seeds:Iris_core.Seed.t array -> unit -> t
(** Runs the detection pass: submits every seed with periodic
    checkpointing ([every] defaults to 64).  The replayer must sit at
    the trace's initial state (freshly reverted dummy). *)

val length : t -> int

val every : t -> int

val position : t -> int

val crashed_at : t -> (int * string) option
(** Where the detection pass died, if it did. *)

val replayer : t -> Iris_core.Replayer.t

val goto : t -> int -> unit
(** Move to position [i].  Backward moves rewind to the newest mark
    at or below [i] then replay forward; forward moves just replay.
    Raises [Invalid_argument] for positions outside the reachable
    range ([length], or the crash index), and after {!finish}. *)

val vmread : t -> Iris_vmcs.Field.t -> int64
(** Uninstrumented VMREAD at the current position. *)

val reverse_continue_to :
  ?access:Provenance.access -> t -> Provenance.t ->
  Iris_vmcs.Field.t -> Provenance.touch option
(** [reverse_continue_to s prov f] finds the exit that last touched
    [f] strictly before the current position and moves there (to the
    boundary before the touching exit, so submitting one seed
    re-executes the touch).  Returns [None] — and stays put — when no
    earlier touch exists. *)

val seeds_forward : t -> int
(** Seeds replayed forward so far, detection pass included. *)

val reverts : t -> int
(** Checkpoint rewinds performed so far. *)

val checkpoints : t -> int
(** Live marks, never more than [ceil (length / every)]; [0] after
    {!finish}. *)

val finish : t -> unit
(** Release every live mark (innermost first), folding the
    copy-on-write journals away so the domain can be fully reverted
    again.  The session cannot travel afterwards. *)
