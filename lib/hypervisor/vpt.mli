(** Virtual platform timers ("vpt.c").

    Xen keeps a list of emulated periodic timers per HVM vCPU (PIT
    channel 0, the local APIC timer, RTC periodic interrupts) and
    delivers their ticks as injected guest interrupts.  The processing
    happens opportunistically on VM exits, so *when* a tick is
    accounted depends on the exit schedule — the second of Fig. 7's
    noise sources. *)

type t

type source = Pt_pit | Pt_lapic | Pt_rtc

val create : cov:Iris_coverage.Cov.t -> t
val copy : t -> t
val restore : t -> from:t -> unit

val arm :
  t -> source:source -> vector:int -> period_cycles:int -> now:int64 -> unit
(** (Re-)arm a periodic timer; first deadline is [now + period]. *)

val disarm : t -> source:source -> unit

val armed : t -> source -> bool

val next_deadline : t -> int64 option
(** Earliest pending deadline across armed timers. *)

val process : t -> now:int64 -> (source * int) list
(** Fire every timer whose deadline has passed, advancing deadlines by
    whole periods (missed ticks coalesce into one, as Xen's
    no-missed-ticks policy does).  Returns the (source, vector) pairs
    to inject. *)

val pending_intr : t -> (source * int) option
(** Earliest overdue timer without consuming it. *)
