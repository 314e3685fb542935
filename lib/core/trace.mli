(** A recorded VM behavior: the paper's
    [VM_exit_trace = {VMexit_1, ..., VMexit_N}], as seeds plus
    per-exit metrics. *)

type t = {
  workload : string;
  prng_seed : int;
  seeds : Seed.t array;
  metrics : Metrics.t array;
      (** same length as [seeds] when metrics recording was on; empty
          otherwise *)
  wall_cycles : int64;
      (** guest wall-clock cycles consumed while recording (includes
          guest execution time — the "Real VM" cost of Fig. 9) *)
}

val length : t -> int

val exit_mix : t -> (Iris_vtx.Exit_reason.t * int) list
(** Exit-reason histogram, descending (Fig. 5 rows). *)

val seeds_with_reason : t -> Iris_vtx.Exit_reason.t -> Seed.t list

val sub : t -> pos:int -> len:int -> t
(** Slice of a trace (keeps aligned metrics when present). *)

(** Serialisation includes seeds and, since format v2, the per-exit
    metrics (coverage points are stable for a given hypervisor build).
    v1 files still load, with empty metrics. *)

val total_seed_bytes : t -> int

val max_rw_records : t -> int
(** Largest VMREAD+VMWRITE record count in any seed — the paper's
    "32" (§VI-D). *)

val encode : t -> bytes
val decode : bytes -> (t, string) result

val of_string : string -> (t, string) result
(** Decode from an immutable string without copying it ([decode] and
    [load] are built on this). *)

val digest : t -> string
(** Incremental FNV-1a fingerprint over the same fields and order as
    [encode], without serialising.  Equal traces digest equal; used by
    replay verification instead of re-encoding. *)

val save : t -> path:string -> unit
val load : path:string -> (t, string) result

val pp_summary : Format.formatter -> t -> unit
