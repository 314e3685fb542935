(** Metrics registry: named counters, gauges and log-scale histograms.

    Instruments are interned once (a hashtable lookup at registration
    time) and updated through direct mutable records afterwards, so
    the hot path — a VM-exit handler running hundreds of thousands of
    times per campaign — pays one pointer dereference and an int64
    add, never a name lookup.

    [vec]/[hist_vec] are code-indexed families (one slot per VM-exit
    reason, for example): the slot index is a small integer the caller
    derives from its own enum, and the label array names each slot for
    snapshots and rendering. *)

type t

type counter
type gauge
type histogram

type vec
(** Family of counters indexed by a small integer code. *)

type hist_vec
(** Family of histograms indexed by a small integer code. *)

val create : unit -> t

(* --- registration (cold path) --- *)

val counter : t -> string -> counter
(** Registers (or returns the existing) counter named [name]. *)

val gauge : t -> string -> gauge

val histogram : t -> string -> histogram
(** Log2-bucketed histogram over non-negative int64 samples: bucket
    [i] counts samples with [2^i <= x < 2^(i+1)] ([x = 0] lands in
    bucket 0).  Tracks count, sum, min and max exactly. *)

val counter_vec : t -> string -> labels:string array -> vec
(** Registers counters [name{label}] for each label; slot [i] is
    labelled [labels.(i)]. *)

val histogram_vec : t -> string -> labels:string array -> hist_vec

(* --- updates (hot path, O(1)) --- *)

val incr : counter -> unit
val add : counter -> int -> unit
val add64 : counter -> int64 -> unit
val counter_value : counter -> int64

val set : gauge -> int64 -> unit
val gauge_value : gauge -> int64

val observe : histogram -> int64 -> unit
(** Negative samples clamp to 0. *)

val vec_incr : vec -> int -> unit
(** [vec_incr v code]; out-of-range codes are dropped silently. *)

val vec_add : vec -> int -> int -> unit
val vec_add64 : vec -> int -> int64 -> unit
val hist_observe : hist_vec -> int -> int64 -> unit

(* --- histogram queries --- *)

val hist_count : histogram -> int64
val hist_sum : histogram -> int64

val hist_quantile : histogram -> float -> float
(** Approximate quantile ([0..1]) by linear interpolation inside the
    log2 bucket holding the target rank; nan when empty. *)

(* --- snapshots --- *)

type sample =
  | S_counter of int64
  | S_gauge of int64
  | S_histogram of {
      count : int64;
      sum : int64;
      min : int64;
      max : int64;
      buckets : (int * int64) list;  (** (log2 bucket, count), sparse *)
    }

type snapshot = (string * sample) list
(** Sorted by metric name.  Vec members appear as
    ["name{label}"] entries. *)

val merge_into : into:t -> t -> unit
(** Fold [t]'s metrics into [into], creating any that are missing:
    counters and histograms add, gauges take the max (a gauge missing
    from [into] is created at [t]'s value).  Commutative and
    associative, so merging per-worker registries in any order yields
    the same snapshot — the orchestrator's join path relies on this.
    Raises [Invalid_argument] if a name is registered with different
    types in the two registries. *)

val snapshot : t -> snapshot

val render : snapshot -> string
(** Human-readable table, one metric per line; histograms show
    count/mean/p50/p99/max. *)

val to_json : snapshot -> Json.t

val to_jsonl : snapshot -> string
(** One JSON object per line: [{"metric":name,...}]. *)
