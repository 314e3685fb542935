(** Synthetic single-seed perturbations over a recorded seed array —
    the controlled faults the inspect smoke tests and the bench use
    to check that the locator finds exactly the planted index.

    Both kinds rewrite the first recorded [guest_rip] VMREAD of one
    seed, because RIP is what every handler's advance path consumes
    and what the VM-entry checks validate:

    - [Crash_rip] plants a non-canonical RIP (bit 56 set), so the
      entry after the perturbed seed fails deterministically — the
      replay crashes at exactly that submission index in every mode.
    - [Wrong_value] nudges RIP by [+0x40]: the handler's RIP
      advancement writes a different value than the recording, a
      single-seed VMWRITE mismatch that the next seed's injection
      heals — the minimal transient divergence. *)

type kind = Crash_rip | Wrong_value

val perturb :
  kind:kind -> at:int -> Iris_core.Seed.t array ->
  (int * Iris_core.Seed.t array) option
(** [perturb ~kind ~at seeds] rewrites the first seed at index [>= at]
    that carries a [guest_rip] read, returning the actual perturbed
    index and a fresh seed array (the input is not mutated).  [None]
    when no such seed exists. *)
