(** Terminal rendering of the paper's figures.

    The bench harness regenerates every figure as text: horizontal bar
    charts (Fig. 5, Fig. 7), line/series plots sampled into character
    cells (Fig. 4, Fig. 6, Fig. 8), boxplots (Fig. 10) and aligned
    tables (Table I).  Output is plain ASCII so it diffs cleanly. *)

val bar_chart : title:string -> (string * float) list -> string
(** Horizontal bars, one row per (label, value), the longest 50
    characters wide. *)

val stacked_rows :
  title:string -> header:string list -> (string * float list) list -> string
(** A percentage-breakdown table: each row is normalised to 100 %. *)

val series :
  title:string -> x_label:string -> y_label:string ->
  (string * (float * float) list) list -> string
(** Multi-series scatter/line plot on a 72x16 character grid.  Each
    series is a labelled list of (x, y) points; distinct series get
    distinct glyphs. *)

val boxplots : title:string -> (string * Stats.boxplot) list -> string
(** One 60-character text boxplot row per label, on a shared scale. *)

val table :
  title:string -> header:string list -> string list list -> string
(** Column-aligned table. *)
