(** Per-exit metrics (paper §IV-A).

    For every VM exit the recorder stores, besides the seed itself:
    the hypervisor code coverage observed while handling it, the VMCS
    {field, value} pairs written, and the handler service time in CPU
    cycles.  The same structure is filled while *replaying*, which is
    how accuracy (coverage / VMWRITE fitting) and efficiency are
    computed. *)

type t = {
  coverage : Iris_coverage.Cov.Pset.t;
      (** points hit during this exit's handling *)
  writes : (Iris_vmcs.Field.t * int64) list;
      (** guest-state mutations performed *)
  handler_cycles : int64;
      (** exit-service time (dispatch through injection decision) *)
}

val empty : t

val guest_state_writes : t -> (Iris_vmcs.Field.t * int64) list
(** Only the writes to the guest-state area — the paper's VMWRITE
    accuracy metric targets actual VM state changes. *)

val writes_match : recorded:t -> replayed:t -> bool
(** Whether the replayed guest-state write sequence equals the
    recorded one. *)

val vmwrite_fitting_pct : recorded:t list -> replayed:t list -> float
(** Percentage of exits whose guest-state VMWRITE sequence was
    reproduced exactly. *)

