(** Crash triage: bucket findings by exit-path hash, keep one
    digest-verified reproducer per bucket.

    A crash's signature is an FNV-64 over its failure class, the
    basic exit reason of the mutated seed, the coverage span the
    crashing submission executed (the "stack" of handler lines it
    walked), and the crash detail with numbers normalised away — so
    "bad RIP 0x1234" and "bad RIP 0x9abc" share a bucket while
    different exit paths do not.

    Every bucket keeps a deterministic representative — the crash
    with the smallest (spec key, case index) among all counted — and
    a minimized reproducer produced by {!Iris_inspect.Bisect} for
    that representative: the bisector's verification digest is the
    bucket's proof that the repro replays byte-identically.  The
    representative rule makes the drained bucket set independent of
    the order jobs finished in. *)

type crash = {
  c_spec_key : string;   (** owning job's {!Jobspec.key} *)
  c_case : int;          (** campaign case index *)
  c_reason : Iris_vtx.Exit_reason.t;
  c_failure : Iris_fuzzer.Campaign.failure_class;
  c_detail : string;
  c_span : int array;    (** sorted packed points of the crash span *)
  c_devices : (string * int) list;
      (** device provenance of the replay prefix: (device, touches) *)
}

type repro = {
  r_digest : string;        (** verification-trace digest *)
  r_seeds : int;            (** reproducer length *)
  r_deterministic : bool;   (** both verification replays matched *)
  r_attempts : int;
}

type bucket = {
  b_signature : string;
  mutable b_count : int;
  mutable b_rep : crash;
  mutable b_repro : repro option;
      (** [None] when the bisector could not reproduce the crash *)
}

val normalize_detail : string -> string
(** Collapse decimal and 0x-hex runs to ["#"] / ["0x#"]. *)

val signature :
  failure:Iris_fuzzer.Campaign.failure_class ->
  reason:Iris_vtx.Exit_reason.t ->
  span:int array -> detail:string -> string

type t

val create : unit -> t

val note :
  t -> crash -> minimize:(unit -> repro option) ->
  [ `New | `Counted | `Replaced ]
(** Count a crash into its bucket.  [minimize] runs only when the
    crash creates the bucket or replaces its representative. *)

val take_changed : t -> bucket list
(** The buckets that {!note} created or gave a new representative since
    the last call, sorted by signature; the set starts empty again. *)

val count : t -> int
(** Buckets. *)

val total : t -> int
(** Crashes counted. *)

val buckets : t -> bucket list
(** Sorted by signature. *)

val to_json : t -> Iris_telemetry.Json.t
