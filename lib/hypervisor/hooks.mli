(** IRIS instrumentation points inside the hypervisor.

    The paper implements IRIS as compile-time callbacks wrapped around
    Xen's [vmread()]/[vmwrite()] functions and the start of the VM
    exit handler (§V-A/§V-B).  This module is that patch surface: the
    exit dispatcher and the {!Access} wrappers invoke whatever
    callbacks are installed.

    Two kinds of consumers exist:
    - the *recorder* observes ([on_vmread], [on_vmwrite],
      [on_exit_start], [on_exit_end]);
    - the *replayer* additionally installs [vmread_filter] to replace
      the return value of VMREADs on read-only fields with the
      recorded seed values.

    Callbacks run with a per-callback cycle surcharge so that enabling
    recording shows up as the small temporal overhead of Fig. 10. *)

type t = {
  mutable vmread_filter : (Iris_vmcs.Field.t -> int64 -> int64) option;
      (** replace the value a VMREAD returns (replay shim) *)
  mutable on_vmread : (Iris_vmcs.Field.t -> int64 -> unit) option;
  mutable on_vmwrite : (Iris_vmcs.Field.t -> int64 -> unit) option;
  mutable on_exit_start : (unit -> unit) option;
  mutable on_exit_end : (unit -> unit) option;
  mutable callback_cycles : int;
      (** cycles charged per callback invocation (recording
          overhead) *)
  mutable probe : Iris_telemetry.Probe.t option;
      (** telemetry instrument pack consulted by the exit dispatcher
          and the {!Access} wrappers; [None] (the default) keeps the
          hot path at a single option check *)
}

val create : unit -> t
(** No callbacks installed. *)

val clear : t -> unit
(** Removes the record/replay callbacks; the telemetry [probe] slot is
    left alone (observability outlives a recording session). *)

val default_callback_cycles : int

(** {2 Hook invocation}

    All call sites fire hooks through these helpers so the overhead
    accounting is centralised: [callback_cycles] is charged through
    [charge] exactly once per installed callback actually invoked, and
    never for an empty slot. *)

val fire_exit_start : t -> charge:(int -> unit) -> unit

val fire_exit_end : t -> charge:(int -> unit) -> unit

val fire_vmread_filter :
  t -> charge:(int -> unit) -> Iris_vmcs.Field.t -> int64 -> int64
(** Returns the (possibly replaced) VMREAD value; the raw value when
    no filter is installed. *)

val fire_vmread :
  t -> charge:(int -> unit) -> Iris_vmcs.Field.t -> int64 -> unit

val fire_vmwrite :
  t -> charge:(int -> unit) -> Iris_vmcs.Field.t -> int64 -> unit
