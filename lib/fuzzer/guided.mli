(** Coverage-guided fuzzing on top of IRIS record/replay — the
    extension the paper sketches in §IX ("we plan to ... develop a
    fuzzer aimed at discovering vulnerabilities", "make feasible an
    efficient coverage-guided fuzzer").

    A classic greybox loop over the PoC's substrate: the corpus starts
    from a recorded seed; each round picks a corpus entry, applies a
    small stack of bit-flips, submits the mutant from the valid state
    [S_R], and keeps it if it lights up new bytes in an AFL-style
    bitmap.  Everything is deterministic given the PRNG seed. *)

type config = {
  iterations : int;
  prng_seed : int;
}
(** Each mutant stacks 1..4 bit-flips; novelty is judged on a
    65,536-byte AFL-style bitmap. *)

val default_config : config

type progress = {
  iteration : int;
  corpus_size : int;
  unique_lines : int;    (** union line coverage so far *)
  map_bytes : int;       (** bitmap density *)
  crashes : int;
}

type result = {
  seed_index : int;
  executed : int;
  corpus_size : int;
  unique_lines : int;
  baseline_lines : int;
  vm_crashes : int;
  hv_crashes : int;
  curve : progress list;
      (** sampled progress, oldest first (coverage-over-time) *)
  crashing : (Iris_core.Seed.t * Campaign.failure_class * string) list;
      (** saved crashing inputs for later analysis *)
  corpus : Iris_core.Seed.t array;
      (** final corpus, admission order *)
}

val run :
  config:config -> manager:Iris_core.Manager.t ->
  recording:Iris_core.Manager.recording ->
  reason:Iris_vtx.Exit_reason.t -> result option
(** [None] if the recording has no seed with [reason].  S_R is pinned
    with a COW {!Campaign.anchor} and rewound after every iteration.
    The loop is inherently sequential: each round mutates the corpus
    the previous rounds grew. *)

val naive_baseline :
  config:config -> manager:Iris_core.Manager.t ->
  recording:Iris_core.Manager.recording ->
  reason:Iris_vtx.Exit_reason.t -> result option
(** The PoC's strategy at the same budget: always mutate the original
    seed with a single bit-flip and never grow a corpus — for the
    guided-vs-naive comparison. *)
