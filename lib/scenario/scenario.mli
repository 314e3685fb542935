(** The standard inputs of the behaviour gates ({!Gate}), shared by the
    tests, the bench and the CLI, and the one digest helper. *)

val digest : 'a -> string
(** Hex MD5 of a closure-free value's marshalled bytes. *)

val wall_now : unit -> float
(** Host monotonic clock, in seconds. *)

val campaign_reason : Iris_vtx.Exit_reason.t
val campaign_area : Iris_fuzzer.Mutation.area
(** The standard campaign: RDTSC seeds, VMCS area mutated. *)

val plant_position : exits:int -> int
(** Where to plant a fault in a trace of [exits] seeds: 3/5 in. *)

val plant :
  at:int -> Iris_core.Seed.t array ->
  (int * Iris_core.Seed.t array, string) result
(** Give the first seed at index [>= at] that reads guest RIP a
    non-canonical RIP; returns its index and the perturbed copy. *)

val serve_specs : Iris_service.Jobspec.t list
(** Six 400-mutation jobs of two tenants at priorities 3 and 1 over
    1200-exit CPU-bound recordings; one target at several PRNG seeds
    gives corpus distillation overlap to remove. *)
