(** The CR0-derived operating-mode lattice of the paper's Fig. 8.

    Each mode is "a set of states held by the CR0 register":
    - Mode1: real mode (PE = 0)
    - Mode2: protected mode (PE)
    - Mode3: protected mode with paging (PE, PG)
    - Mode4: Mode3 with alignment checking (AM)
    - Mode5: Mode4 with task-switch flag testing (TS)
    - Mode6: Mode4 with caching enabled (CD = 0) — we follow the paper
      and treat CD as the discriminator on top of Mode4
    - Mode7: Mode5 with caching disabled (CD)

    The replayer's boot-state experiment reproduces Xen's
    "bad RIP for mode 0" crash: a VM whose mode never left Mode1 has no
    business executing protected-mode seeds. *)

type t = Mode1 | Mode2 | Mode3 | Mode4 | Mode5 | Mode6 | Mode7

val of_cr0 : int64 -> t
(** Classify a CR0 value. *)

val to_int : t -> int
(** 1..7, as plotted on Fig. 8's y-axis. *)

val of_int : int -> t option

val name : t -> string

val description : t -> string

val pp : Format.formatter -> t -> unit

