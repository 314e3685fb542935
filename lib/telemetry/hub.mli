(** One telemetry hub per run: a registry plus a tracer.

    The hub is what gets threaded through the stack (manager, CLI,
    bench): components intern their instruments against
    [registry] and emit spans into [tracer].  Creating a hub installs
    nothing — instrumentation points fire only where a probe or span
    call site finds a hub wired in, so the uninstrumented hot path
    stays a single [None] check. *)

type t = {
  registry : Registry.t;
  tracer : Tracer.t;
}

val create : unit -> t

val merge_into : into:t -> t -> unit
(** Merge this hub's registry into [into]'s (see
    {!Registry.merge_into}).  Traces are per-hub and not merged. *)

val snapshot : t -> Registry.snapshot

val summary : ?title:string -> t -> string

val chrome_trace_string : t -> string
