(** Verdict normalization for the cross-backend oracle.

    Decides which recorded seeds are comparable across the VT-x and
    SVM substrates, and restricts the post-case observation to state
    the seed itself constrains — the construction behind the oracle's
    zero-false-positive guarantee (see DESIGN.md §11). *)

val comparable_component : Iris_coverage.Component.t -> bool
(** Components attributable to the dispatched handler alone; the
    harness-side components (exit plumbing, VMCS maintenance,
    interrupt/timer/APIC scaffolding) are masked out of coverage
    comparison. *)

type probe = {
  p_slots : (Iris_vmcs.Field.t * Iris_svm.Vmcb.field) list;
      (** what to read back: VMCS field on VT-x, VMCB slot on SVM —
          Save-area slots the seed injected, first occurrence wins *)
  p_gprs : Iris_x86.Gpr.reg list;
      (** registers the seed carried, minus per-family clobbers *)
}

type observation = {
  o_crash : string option;
  o_slots : (string * int64) list;
  o_gprs : (string * int64) list;
  o_components : string list;
}
(** One backend's normalized post-case view.  The [blocked] flag is
    deliberately absent: the replayer never lets the dummy vCPU block
    (§IV-B), so it is harness-suppressed state on the VT-x side. *)

type case_class =
  | Comparable of Iris_svm.Port.translated * probe
  | Untranslatable of string
      (** translation-lossy: expected, never a finding *)

val classify : Iris_core.Seed.t -> case_class
(** Comparable iff the translation dropped nothing, the exit family
    is modeled on the VMCB substrate, and duplicate injections into
    one VMCB slot agree (the first-wins/last-wins hazard). *)

val normalize_components :
  Iris_coverage.Component.t list -> string list
(** Sorted names of the in-mask components. *)

val first_difference : observation -> observation -> string option
(** First disagreement between two non-crashed observations, as a
    human-readable line; [None] means agreement. *)

val digest : observation -> string
(** Hex digest of the full normalized observation (report/bench
    determinism checks). *)
