(** Lightweight span tracer with a bounded ring buffer.

    Spans nest (campaign → recording → exit → handler) through an
    explicit begin/end stack; closed spans land in a fixed-capacity
    ring, so tracing a million-exit campaign costs bounded memory and
    the newest spans win.  Timestamps are supplied by the caller in
    *virtual* cycles (the [Iris_vtx.Clock] counter that every cost in
    the model advances), which makes traces deterministic: two replays
    of the same trace produce byte-identical exports.

    An [instant] is a zero-duration event (a divergence, a crash). *)

type span = {
  name : string;
  cat : string;  (** Chrome trace category, e.g. "exit", "phase" *)
  ts : int64;  (** begin, virtual cycles *)
  dur : int64;  (** duration in virtual cycles; 0 for instants *)
  depth : int;  (** nesting depth at begin time (0 = top level) *)
  tid : int;  (** track id, e.g. the domain id *)
  args : (string * string) list;
}

type t

val create : ?capacity:int -> unit -> t
(** [capacity] bounds the number of *closed* spans retained
    (default 65536). *)

val alloc_tid : t -> int
(** Next unused track id, starting at 1.  Tracks allocated here are
    deterministic per tracer — unlike, say, globally-allocated domain
    ids, which depend on how many VMs earlier runs created. *)

val begin_span :
  ?cat:string -> ?tid:int -> ?args:(string * string) list -> t ->
  name:string -> ts:int64 -> unit

val end_span : ?name:string -> ?args:(string * string) list -> t -> ts:int64 -> unit
(** Closes the innermost open span.  [name]/[args] override what
    [begin_span] recorded — the exit dispatcher only learns the exit
    reason *after* the span began.  Unbalanced calls are dropped. *)

val instant :
  ?cat:string -> ?tid:int -> ?args:(string * string) list -> t ->
  name:string -> ts:int64 -> unit

val spans : t -> span list
(** Closed spans, oldest first (ring order). *)

val recorded : t -> int
(** Closed spans currently retained. *)

val dropped : t -> int
(** Spans evicted by ring wraparound since creation. *)

val depth : t -> int
(** Currently open spans. *)
