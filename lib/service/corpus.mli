(** Durable corpus store: seeds keyed by coverage contribution.

    An entry is one interesting test case — a (possibly mutated) VM
    seed plus the replay context that makes it reproducible from
    nothing (workload, recording length, manager PRNG seed, boot
    scale, anchor index) — keyed by an FNV-64 content digest, so
    adding the same case twice is a no-op (dedup idempotence).

    Admission is AFL-style: walking a finished campaign's cases in
    index order, a case enters the corpus iff it lights up a virgin
    slot of the job-local coverage bitmap (the baseline always does).
    Since case outcomes are pure functions of (S_R, seed) and the
    walk order is the case order, the admitted set is a function of
    the job spec alone — scheduling cannot change the corpus.

    Distillation is a greedy set cover over the entries' coverage
    point sets (largest first, key as tie-break): entries whose
    points are all covered by kept entries are dropped.  The union of
    covered points is preserved exactly. *)

type meta = {
  m_workload : Iris_guest.Workload.t;
  m_exits : int;
  m_prng_seed : int;
  m_boot_scale : float;
  m_seed_index : int;  (** anchor index R — prefix replayed to S_R *)
}

type entry = {
  e_key : string;      (** FNV-64 over meta + encoded seed bytes *)
  e_meta : meta;
  e_seed : Iris_core.Seed.t;
  e_points : int array; (** sorted packed coverage points of its span *)
  e_digest : string;   (** {!Iris_fuzzer.Campaign.raw_digest} at admission *)
}

val entry :
  meta:meta -> seed:Iris_core.Seed.t ->
  span:Iris_coverage.Cov.Pset.t -> digest:string -> entry

val points_of_span : Iris_coverage.Cov.Pset.t -> int array
(** The span's packed coverage points, ascending. *)

type t

val create : unit -> t

val add : t -> entry -> bool
(** [false] when an entry with the same key is already stored. *)

val count : t -> int
val entries : t -> entry list  (** sorted by key *)

val coverage : t -> int array
(** Sorted union of all stored entries' points. *)

val total_points : t -> int
(** [Array.length (coverage t)]. *)

val admit_plan :
  t -> meta:meta -> plan:Iris_fuzzer.Campaign.plan ->
  raws:Iris_fuzzer.Campaign.raw array -> int * int
(** Walk a finished campaign in case order, admitting novel cases;
    returns [(admitted, duplicates)]. *)

val distill : t -> int * int
(** Greedy coverage-preserving reduction; [(before, after)] entry
    counts. *)

val digest : t -> string
(** FNV-64 over the sorted entries — equal stores digest equal. *)

val to_json : t -> Iris_telemetry.Json.t
val of_json : Iris_telemetry.Json.t -> (t, string) result

val save : t -> path:string -> unit
val load : path:string -> (t, string) result
(** One JSON document ([iris-corpus-v1]); seeds ride as hex.  [save]
    writes a temporary file in [path]'s directory and renames it over
    [path], so a reader sees the old document or the new one, never a
    partial write. *)

val merge_from : t -> t -> int
(** Add every entry of the second store into the first; returns how
    many were new. *)
