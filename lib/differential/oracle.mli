(** The differential oracle: run each case on two backends and
    classify the disagreement (paper §IX × NecoFuzz-style
    cross-configuration comparison). *)

type clazz =
  | Lossy of string
      (** translation could not carry the seed over — expected *)
  | Agree
      (** same normalized verdict (both-crashed counts as agreement) *)
  | Semantic of string
      (** both ran; a guest-visible observation differs *)
  | Crash_on_one of {
      left_crash : string option;
      right_crash : string option;
    }  (** one substrate killed the guest, the other carried on *)

type verdict = {
  v_index : int;
  v_reason : string;
  v_class : clazz;
}

val class_kind : clazz -> string

val classify_pair :
  Normalize.observation -> Normalize.observation -> clazz
(** Pure comparison of two observations of one comparable case. *)

val run_case :
  left:Backend.t -> right:Backend.t -> Iris_core.Seed.t -> verdict
(** Classify the seed; if comparable, execute on both backends and
    compare. *)

val expected_planted :
  plant:Iris_svm.Machine.asymmetry -> Iris_core.Seed.t array -> int list
(** Ground truth for the planted-asymmetry harness: indices a perfect
    detector must flag, computed by diffing an unplanted SVM machine
    against the planted one — no VT-x side involved. *)
