(** VM-entry checking (SDM Vol. 3 Section 26.x subset).

    VMLAUNCH/VMRESUME validate, in order: the control fields, the
    host-state area, and the guest-state area.  Control/host failures
    make the instruction VMfail without entering the guest; guest-
    state failures cause an immediate "VM-entry failure" exit (basic
    exit reason 33 with the entry-failure bit set).

    The paper's replay architecture deliberately keeps the VM entry in
    the loop because these checks "are representative of real VM
    behavior and are used to guarantee semantically-correct VM seeds
    submission" (§IV-B).  The same checks are what the fuzzer's VMCS
    mutations crash into. *)

type failure =
  | Invalid_control of string
  | Invalid_host_state of string
  | Invalid_guest_state of string

val failure_message : failure -> string

val run : Vmcs.t -> (unit, failure) result
(** The control, host-state and guest-state checks in architectural
    order: the first failure wins.  The success path allocates
    nothing. *)
