(** Wiring telemetry into a hypervisor context.

    [attach hub ctx] interns the per-exit-reason instrument pack
    against [hub]'s registry (shared across every context attached to
    the same hub — the record VM and the dummy VM of one campaign
    accumulate into the same counters, on separate trace tracks) and
    installs it at the two existing seams: the {!Hooks} probe slot
    consulted by {!Exitpath} and {!Access}, and the engine's exit
    counter family. *)

val reason_labels : string array
(** Chrome-trace/metric label per basic exit-reason code
    ({!Iris_vtx.Exit_reason.code}); reserved codes label ["RSVD<n>"]. *)

val attach : Iris_telemetry.Hub.t -> Ctx.t -> Iris_telemetry.Probe.t

val probe : Ctx.t -> Iris_telemetry.Probe.t option
(** The probe attached to this context, if any. *)
