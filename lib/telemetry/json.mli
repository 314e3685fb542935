(** Minimal JSON tree, printer and parser.

    The telemetry exporters (JSONL metrics, Chrome [trace_event]
    files, [BENCH_iris.json]) need a JSON writer, and the test suite
    needs to parse those files back to prove well-formedness.  The
    container ships no JSON library, so this is a small, total
    implementation: no streaming, no numbers beyond OCaml [float] and
    [int], UTF-8 passed through verbatim. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering with escaped strings. *)

val to_buffer : Buffer.t -> t -> unit

val max_depth : int
(** Deepest nesting of arrays and objects {!of_string} accepts (128). *)

val of_string : string -> (t, string) result
(** Strict parser for the subset above (integers parse as [Int],
    other numerics as [Float]).  Trailing garbage, and nesting deeper
    than {!max_depth}, are errors. *)

val member : string -> t -> t option
(** [member key (Obj ...)] looks up a field; [None] elsewhere. *)

val to_list : t -> t list
(** [[]] when not a [List]. *)

val string_value : t -> string option
val int_value : t -> int option

val float_value : t -> float option
(** [Float] directly, [Int] widened; [None] elsewhere. *)
