(** An HVM domain: one guest VM with its vCPU, memory, EPT and
    emulated platform devices.

    Mirrors the paper's setup: each DomU has a single vCPU pinned 1:1
    to a pCPU, 1 GiB RAM, and the standard PC platform (PIC, PIT,
    UART, RTC, PCI, local APIC).  A *dummy* domain — the replay
    target — is the same structure created with [~dummy:true]: empty
    memory, no devices initialised by a BIOS, preemption timer armed
    at zero. *)

type t = {
  id : int;
  name : string;
  dummy : bool;
  vcpu : Iris_vtx.Vcpu.t;
  mem : Iris_memory.Gmem.t;
  ept : Iris_memory.Ept.t;
  bus : Iris_devices.Port_bus.t;
  pic : Iris_devices.Pic.t;
  pit : Iris_devices.Pit.t;
  uart : Iris_devices.Uart.t;
  rtc : Iris_devices.Rtc.t;
  pci : Iris_devices.Pci.t;
  vlapic : Vlapic.t;
  vpt : Vpt.t;
  engine : Iris_vtx.Engine.t;
  mutable crashed : string option;
      (** set when the domain has been killed (VM crash) *)
  mutable guest_mode : Iris_x86.Cpu_mode.t;
      (** the hypervisor's own abstraction of the guest CPU operating
          mode, updated during CR-access handling (paper §III) *)
  mutable pending_insn : Iris_x86.Insn.t option;
      (** instruction under emulation for the current exit; [None]
          when replaying (no guest instruction stream exists) *)
  mutable blocked : bool;
      (** vCPU blocked in HLT, waiting for an event *)
  bar_regs : int64 array;
      (** register file of the synthetic PCI device behind
          {!mmio_bar_base} (16 dwords) *)
  stats : stats;  (** snapshot/revert accounting (COW effectiveness) *)
}

and stats = {
  mutable full_reverts : int;   (** deep-copy [revert] calls *)
  mutable cow_reverts : int;
      (** journal-based [rewind] calls: one per [Checkpoint.rewind],
          however many marks it unwinds *)
  mutable checkpoints : int;    (** [checkpoint] captures *)
  mutable pages_restored : int; (** guest pages undone across rewinds *)
  mutable ept_restored : int;   (** EPT override entries undone *)
  mutable vmcs_fields_restored : int;  (** VMCS fields undone *)
}

val create :
  ?dummy:bool -> cov:Iris_coverage.Cov.t -> id:int -> name:string ->
  mem_mib:int -> unit -> t

val crash : t -> string -> unit
(** Mark the domain crashed (idempotent; first reason wins). *)

val crashed : t -> bool

val mmio_bar_base : int64
(** Guest-physical base of the synthetic PCI device BAR (an MMIO
    region that EPT-faults into the device emulator). *)

val mmio_bar_size : int64

type snapshot

val snapshot : t -> snapshot
(** Capture the complete domain state (vCPU, VMCS, memory, EPT,
    devices, vlapic, vpt, flags). *)

val revert : t -> snapshot -> unit

val snapshot_stats : t -> stats
(** A copy of the domain's snapshot/revert counters. *)

(** {2 Incremental (copy-on-write) checkpoints}

    Guest memory, the EPT and the VMCS — the bulk of a snapshot — are
    checkpointed through their write journals, so {!rewind} restores
    only what the epoch dirtied.  The UART transmit log is captured by
    its length and truncated on rewind; the other devices and the vCPU
    scalars are fixed-size and are copied eagerly.
    Checkpoints nest (see {!Checkpoint} for the mark-based manager);
    a full {!revert} invalidates any open checkpoints. *)

type checkpoint

val checkpoint : t -> checkpoint

type revert_stats = {
  rs_pages : int;        (** guest pages restored *)
  rs_ept_entries : int;  (** EPT override entries restored *)
  rs_vmcs_fields : int;  (** VMCS fields restored *)
}

val rewind : t -> checkpoint -> revert_stats
(** Restore the domain to the state captured at [checkpoint], undoing
    only journaled writes.  The checkpoint stays live and can be
    rewound to again; checkpoints taken after it are discarded.
    Observably identical to [revert] with a full snapshot taken at the
    same point.  Raises [Invalid_argument] on a stale checkpoint (e.g.
    after a {!revert}) before changing any state. *)

val release : t -> checkpoint -> unit
(** Drop the innermost checkpoint without restoring, folding its
    journals into the parent epoch. *)

(** {2 Modeled restore footprint}

    Deterministic byte-cost model used by the bench's revert gate:
    how many bytes each restore path must touch. *)

val snapshot_bytes : snapshot -> int
(** Footprint of a full [revert] from [snapshot]. *)

val rewind_bytes : revert_stats -> int
(** Footprint of the COW [rewind] that produced [revert_stats]. *)
