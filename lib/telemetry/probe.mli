(** Hot-path instrument pack for a VM-exit dispatch path.

    This is the per-context bundle the hypervisor's exit path and the
    VMCS access wrappers poke: per-exit-reason counters, per-reason
    cycle totals and log-scale cycle histograms, VMREAD/VMWRITE
    counters, and one span per exit in the hub's tracer (§IV-A
    metrics: exit reason, handler service time, VMWRITE sequences).

    The pack is generic over the reason enumeration: the caller
    supplies one label per reason code, so this library does not
    depend on [Iris_vtx].  All update paths are O(1); when no probe is
    installed the instrumentation points cost a single [None] check. *)

type t

val create : ?tid:int -> labels:string array -> Hub.t -> t
(** [labels.(code)] names reason [code]; [tid] is the Chrome-trace
    track ({!Tracer.alloc_tid} keeps it deterministic across runs). *)

val hub : t -> Hub.t

val tid : t -> int
(** The probe's trace track — phase spans around this VM's activity
    should use it too, so they land on the same Perfetto row. *)

val exit_begin : t -> now:int64 -> unit
(** Marks handler start: opens an ["exit"] span, stamps the cycle
    counter. *)

val exit_end : t -> now:int64 -> reason:int -> unit
(** Closes the span under the reason's label and feeds the counters
    and histograms with the elapsed virtual cycles. *)

val unwind : t -> now:int64 -> unit
(** Closes any spans left dangling by a handler that escaped via an
    exception (hypervisor panic), labelled ["aborted"]; the aborted
    exit yields no metrics.  [exit_begin] calls this implicitly; call
    it manually before closing an enclosing phase span. *)

val handler_begin : t -> now:int64 -> unit
(** Sub-span of the current exit covering just the per-reason handler
    body (the dispatch target), as opposed to the dispatcher's shared
    prologue/epilogue. *)

val handler_end : t -> now:int64 -> name:string -> unit

val on_vmread : t -> unit
val on_vmwrite : t -> unit

val instant : t -> name:string -> now:int64 -> unit
(** Zero-duration event on this probe's track (divergence, crash). *)
