(** Cycle-cost model constants.

    Calibrated so the replay-throughput numbers land near the paper's:
    an empty preemption-timer exit/entry round trip costs
    [exit_transition + dispatch_base + entry_transition] ≈ 70 K cycles,
    giving the paper's ideal replay throughput of ~50 K VM exits/s at
    3.6 GHz (§VI-C: 5000 exits in ~0.1 s, ~350 M cycles). *)

val exit_transition : int
(** Hardware context switch, non-root → root (state save, host state
    load). *)

val entry_transition : int
(** Root → non-root (entry checks + guest state load). *)

val dispatch_base : int
(** Hypervisor fixed cost per exit before reaching the reason-specific
    handler. *)

val event_injection : int
(** Delivering an interrupt/exception through the IDT on entry. *)

val vmread_cost : int
val vmwrite_cost : int

val timer_interrupt_period : int
(** Cycles between virtual periodic-timer ticks (250 Hz at 3.6 GHz =
    14.4 M cycles). *)
