(** The IRIS recording component (§IV-A, §V-A).

    Installs callbacks on the hypervisor's VMREAD/VMWRITE wrappers and
    the exit-handler entry/exit points.  For every VM exit it collects
    (i) the VM seed — GPRs at handler start plus the ordered VMREAD
    {field, value} pairs — and (ii) the metrics: coverage span,
    VMWRITE pairs, and the handler service time in cycles.

    Seeds, metrics, or both can be stored, matching the manager's
    configuration options. *)

type t

val start :
  ?store_seeds:bool -> ?store_metrics:bool -> Iris_hv.Ctx.t -> t
(** Begin recording on a hypervisor context.  Existing recorder
    callbacks are replaced; any replay shim already installed is left
    untouched (replay + record mode). *)

val stop : t -> workload:string -> prng_seed:int -> Trace.t
(** Uninstall the recorder callbacks (leaving other hooks) and return
    the trace. *)
