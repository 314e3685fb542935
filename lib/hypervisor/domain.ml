module Gmem = Iris_memory.Gmem
module Ept = Iris_memory.Ept

type t = {
  id : int;
  name : string;
  dummy : bool;
  vcpu : Iris_vtx.Vcpu.t;
  mem : Gmem.t;
  ept : Ept.t;
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
  mutable guest_mode : Iris_x86.Cpu_mode.t;
  mutable pending_insn : Iris_x86.Insn.t option;
  mutable blocked : bool;
  bar_regs : int64 array;
  stats : stats;
}

and stats = {
  mutable full_reverts : int;
  mutable cow_reverts : int;
  mutable checkpoints : int;
  mutable pages_restored : int;
  mutable ept_restored : int;
  mutable vmcs_fields_restored : int;
}

let mmio_bar_base = 0xFEB00000L

let mmio_bar_size = 0x10000L

let create ?(dummy = false) ~cov ~id ~name ~mem_mib () =
  let vcpu = Iris_vtx.Vcpu.create () in
  let mem = Gmem.create ~size_mib:mem_mib in
  let ept = Ept.create () in
  (* Populate RAM mappings; leave the APIC page and the device BAR as
     holes so accesses fault for emulation. *)
  Ept.map ept ~gpa:0L ~len:(Gmem.size_bytes mem) Ept.perm_rwx;
  Ept.unmap ept ~gpa:Vlapic.mmio_base ~len:Vlapic.mmio_size;
  Ept.unmap ept ~gpa:mmio_bar_base ~len:mmio_bar_size;
  let bus = Iris_devices.Port_bus.create () in
  let pic = Iris_devices.Pic.create () in
  let pit = Iris_devices.Pit.create () in
  let uart = Iris_devices.Uart.create () in
  let rtc = Iris_devices.Rtc.create () in
  let pci = Iris_devices.Pci.create () in
  Iris_devices.Pic.attach pic bus;
  Iris_devices.Pit.attach pit bus;
  Iris_devices.Uart.attach uart bus;
  Iris_devices.Rtc.attach rtc bus;
  Iris_devices.Pci.attach pci bus;
  let vlapic = Vlapic.create ~cov in
  let vpt = Vpt.create ~cov in
  let engine = Iris_vtx.Engine.create ~vcpu ~mem ~ept in
  { id;
    name;
    dummy;
    vcpu;
    mem;
    ept;
    bus;
    pic;
    pit;
    uart;
    rtc;
    pci;
    vlapic;
    vpt;
    engine;
    crashed = None;
    guest_mode = Iris_x86.Cpu_mode.Mode1;
    pending_insn = None;
    blocked = false;
    bar_regs = Array.make 16 0L;
    stats =
      { full_reverts = 0;
        cow_reverts = 0;
        checkpoints = 0;
        pages_restored = 0;
        ept_restored = 0;
        vmcs_fields_restored = 0 } }

let snapshot_stats t =
  { t.stats with full_reverts = t.stats.full_reverts }

let crash t reason =
  match t.crashed with
  | Some _ -> ()
  | None -> t.crashed <- Some reason

let crashed t = t.crashed <> None

type snapshot = {
  s_vcpu : Iris_vtx.Vcpu.t;
  s_mem : Gmem.t;
  s_ept : Ept.t;
  s_pic : Iris_devices.Pic.t;
  s_pit : Iris_devices.Pit.t;
  s_uart : Iris_devices.Uart.t;
  s_rtc : Iris_devices.Rtc.t;
  s_pci : Iris_devices.Pci.t;
  s_vlapic : Vlapic.t;
  s_vpt : Vpt.t;
  s_crashed : string option;
  s_guest_mode : Iris_x86.Cpu_mode.t;
  s_blocked : bool;
  s_bar_regs : int64 array;
}

let snapshot t =
  { s_vcpu = Iris_vtx.Vcpu.snapshot t.vcpu;
    s_mem = Gmem.copy t.mem;
    s_ept = Ept.copy t.ept;
    s_pic = Iris_devices.Pic.copy t.pic;
    s_pit = Iris_devices.Pit.copy t.pit;
    s_uart = Iris_devices.Uart.copy t.uart;
    s_rtc = Iris_devices.Rtc.copy t.rtc;
    s_pci = Iris_devices.Pci.copy t.pci;
    s_vlapic = Vlapic.copy t.vlapic;
    s_vpt = Vpt.copy t.vpt;
    s_crashed = t.crashed;
    s_guest_mode = t.guest_mode;
    s_blocked = t.blocked;
    s_bar_regs = Array.copy t.bar_regs }

(* The bus handlers and the engine close over the device/memory
   records, so restoring mutates the existing records in place
   (transplant) rather than swapping them. *)
let revert t s =
  t.stats.full_reverts <- t.stats.full_reverts + 1;
  Iris_vtx.Vcpu.restore t.vcpu ~from:s.s_vcpu;
  Gmem.transplant ~into:t.mem ~from:s.s_mem;
  Ept.transplant ~into:t.ept ~from:s.s_ept;
  Iris_devices.Pic.transplant ~into:t.pic ~from:s.s_pic;
  Iris_devices.Pit.transplant ~into:t.pit ~from:s.s_pit;
  Iris_devices.Uart.transplant ~into:t.uart ~from:s.s_uart;
  Iris_devices.Rtc.transplant ~into:t.rtc ~from:s.s_rtc;
  Iris_devices.Pci.transplant ~into:t.pci ~from:s.s_pci;
  Vlapic.restore t.vlapic ~from:s.s_vlapic;
  Vpt.restore t.vpt ~from:s.s_vpt;
  t.crashed <- s.s_crashed;
  t.guest_mode <- s.s_guest_mode;
  t.pending_insn <- None;
  t.blocked <- s.s_blocked;
  Array.blit s.s_bar_regs 0 t.bar_regs 0 (Array.length t.bar_regs)

(* --- incremental (copy-on-write) checkpoints ---

   Memory, the EPT and the VMCS rewind through their journals and the
   UART by its log length (see the interface).  The fixed-size rest is
   copied eagerly here, so a rewind blits it back without allocating. *)

type checkpoint = {
  k_vcpu : Iris_vtx.Vcpu.checkpoint;
  k_mem : Gmem.checkpoint;
  k_ept : Ept.checkpoint;
  k_pic : Iris_devices.Pic.t;
  k_pit : Iris_devices.Pit.t;
  k_uart : Iris_devices.Uart.checkpoint;
  k_rtc : Iris_devices.Rtc.t;
  k_pci : Iris_devices.Pci.t;
  k_vlapic : Vlapic.t;
  k_vpt : Vpt.t;
  k_crashed : string option;
  k_guest_mode : Iris_x86.Cpu_mode.t;
  k_blocked : bool;
  k_bar_regs : int64 array;
}

let checkpoint t =
  t.stats.checkpoints <- t.stats.checkpoints + 1;
  { k_vcpu = Iris_vtx.Vcpu.checkpoint t.vcpu;
    k_mem = Gmem.checkpoint t.mem;
    k_ept = Ept.checkpoint t.ept;
    k_pic = Iris_devices.Pic.copy t.pic;
    k_pit = Iris_devices.Pit.copy t.pit;
    k_uart = Iris_devices.Uart.checkpoint t.uart;
    k_rtc = Iris_devices.Rtc.copy t.rtc;
    k_pci = Iris_devices.Pci.copy t.pci;
    k_vlapic = Vlapic.copy t.vlapic;
    k_vpt = Vpt.copy t.vpt;
    k_crashed = t.crashed;
    k_guest_mode = t.guest_mode;
    k_blocked = t.blocked;
    k_bar_regs = Array.copy t.bar_regs }

type revert_stats = {
  rs_pages : int;
  rs_ept_entries : int;
  rs_vmcs_fields : int;
}

(* Every journal handle is checked before any state changes, so a stale
   checkpoint raises with the domain untouched. *)
let rewind t k =
  Iris_vtx.Vcpu.validate t.vcpu k.k_vcpu;
  Gmem.validate t.mem k.k_mem;
  Ept.validate t.ept k.k_ept;
  let rs_vmcs_fields = Iris_vtx.Vcpu.rewind t.vcpu k.k_vcpu in
  let rs_pages = Gmem.rewind t.mem k.k_mem in
  let rs_ept_entries = Ept.rewind t.ept k.k_ept in
  Iris_devices.Pic.transplant ~into:t.pic ~from:k.k_pic;
  Iris_devices.Pit.transplant ~into:t.pit ~from:k.k_pit;
  Iris_devices.Uart.rewind t.uart k.k_uart;
  Iris_devices.Rtc.transplant ~into:t.rtc ~from:k.k_rtc;
  Iris_devices.Pci.transplant ~into:t.pci ~from:k.k_pci;
  Vlapic.restore t.vlapic ~from:k.k_vlapic;
  Vpt.restore t.vpt ~from:k.k_vpt;
  t.crashed <- k.k_crashed;
  t.guest_mode <- k.k_guest_mode;
  t.pending_insn <- None;
  t.blocked <- k.k_blocked;
  Array.blit k.k_bar_regs 0 t.bar_regs 0 (Array.length t.bar_regs);
  t.stats.cow_reverts <- t.stats.cow_reverts + 1;
  t.stats.pages_restored <- t.stats.pages_restored + rs_pages;
  t.stats.ept_restored <- t.stats.ept_restored + rs_ept_entries;
  t.stats.vmcs_fields_restored <-
    t.stats.vmcs_fields_restored + rs_vmcs_fields;
  { rs_pages; rs_ept_entries; rs_vmcs_fields }

let release t k =
  Iris_vtx.Vcpu.commit t.vcpu k.k_vcpu;
  Gmem.commit t.mem k.k_mem;
  Ept.commit t.ept k.k_ept

(* --- modeled restore footprint ---

   Deterministic cost model for the bench's revert-throughput gate:
   bytes a restore path must touch.  The fixed part (vCPU scalars,
   MSRs, segments, devices) is common to both paths; the variable part
   is the whole snapshot for a full restore versus only the journaled
   state for a COW rewind. *)

let fixed_restore_bytes = 2048

let snapshot_bytes s =
  fixed_restore_bytes
  + (Gmem.allocated_pages s.s_mem * Gmem.page_size)
  + (Ept.override_count s.s_ept * 16)
  + (Iris_vmcs.Field.count * 8)

let rewind_bytes rs =
  fixed_restore_bytes
  + (rs.rs_pages * Gmem.page_size)
  + (rs.rs_ept_entries * 16)
  + (rs.rs_vmcs_fields * 8)
