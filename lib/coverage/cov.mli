(** gcov-style line-coverage store.

    Handlers call {!hit} with their component and source line (the
    OCaml [__LINE__] of the call site stands in for a C line number).
    The store accumulates global hit counts and can additionally
    capture a *span*: the set of points executed while handling one VM
    exit, which is what the recorder attaches to each VM seed.

    Points hit while the store is disabled, or belonging to
    non-instrumented components (the IRIS patches themselves), are
    dropped — mirroring the paper's "code coverage is cleaned up by
    removing hits due to the execution of our record and replay
    components". *)

type point = private int
(** A packed (component, line) pair. *)

val point : Component.t -> int -> point
val point_component : point -> Component.t
val point_line : point -> int

val point_of_int : int -> point option
(** Validate a raw packed value (deserialisation); [None] when the
    component index or line is out of range. *)

module Pset : Set.S with type elt = point

type t

val create : unit -> t
val enable : t -> unit
val disable : t -> unit
val enabled : t -> bool

val hit : t -> Component.t -> int -> unit
(** Record one execution of the basic block anchored at a source
    line: a short, per-site-deterministic run of consecutive line
    points is marked covered, matching gcov's lines-per-basic-block
    granularity. *)

val hits : t -> point -> int
(** Cumulative hit count of a point. *)

val covered : t -> Pset.t
(** All points hit at least once since creation/reset. *)

val unique_lines : t -> int
(** [Pset.cardinal (covered t)] — the paper's "unique lines of code
    discovered" metric. *)

val lines_of : t -> Component.t -> int list
(** Sorted covered lines of one component. *)

val merge : into:t -> t -> unit
(** Union [t] into [into]: hit counts add. Commutative and
    associative; the in-flight span (if any) is not transferred. *)

val reset : t -> unit

val with_span : t -> (unit -> 'a) -> 'a * Pset.t
(** [with_span t f] runs [f] and returns the set of points hit during
    it (even points already covered before).  Spans do not nest. *)

val span_begin : t -> unit
(** Start capturing a span (callback-style alternative to
    {!with_span}); a span already in progress is discarded. *)

val span_end : t -> Pset.t
(** Finish the span and return the points hit since
    {!span_begin}; empty if no span was open. *)

val by_component : Pset.t -> (Component.t * int) list
(** Point counts per component, descending, zero-count components
    omitted. *)

val block_points : Component.t -> int -> Pset.t
(** The line points {!hit} would mark for a probe site — exposed so
    alternative backends ({!Ipt}) decode to the same granularity. *)
