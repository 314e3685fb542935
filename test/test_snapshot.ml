(* The COW snapshot engine's determinism contract: rewinding a journal
   checkpoint is observably identical to a full deep-copy restore.

   Each layer (Gmem, EPT, VMCS, VMCB) gets a randomized property test
   that interleaves writes with checkpoint pushes, rewinds to
   arbitrary live marks, and commits — checking the live structure
   against a deep-copy oracle captured at every push.  A whole domain
   (devices, MSRs, timers, memory, VMCS) gets the same treatment
   against a snapshot/revert twin.  On top, the campaign level pins
   that the COW revert path produces byte-identical raw observations
   and merged reports. *)

module Gmem = Iris_memory.Gmem
module Ept = Iris_memory.Ept
module Vmcs = Iris_vmcs.Vmcs
module F = Iris_vmcs.Field
module Vmcb = Iris_svm.Vmcb
module Prng = Iris_util.Prng
module Domain = Iris_hv.Domain
module Checkpoint = Iris_hv.Checkpoint
module Ctx = Iris_hv.Ctx
module Seed = Iris_core.Seed
module Manager = Iris_core.Manager
module Replayer = Iris_core.Replayer
module Mutation = Iris_fuzzer.Mutation
module Campaign = Iris_fuzzer.Campaign
module Guided = Iris_fuzzer.Guided
module R = Iris_vtx.Exit_reason
module W = Iris_guest.Workload
module Vcpu = Iris_vtx.Vcpu
module Clock = Iris_vtx.Clock
module Msr = Iris_x86.Msr
module Gpr = Iris_x86.Gpr
module Uart = Iris_devices.Uart
module Port_bus = Iris_devices.Port_bus
module Vlapic = Iris_hv.Vlapic
module Vpt = Iris_hv.Vpt

let check = Alcotest.check

let digest = Iris_scenario.Scenario.digest

(* --- Gmem: random write/checkpoint/rewind/commit interleavings ---

   The mark stack pairs each live checkpoint with a deep-copy oracle
   taken at the same instant; every rewind must make the live memory
   logically equal ([nonzero_pages]) to the oracle. *)

let prop_gmem_cow_equals_copy =
  QCheck.Test.make ~name:"gmem: rewind ≡ deep-copy restore" ~count:25
    QCheck.small_int (fun salt ->
      let prng = Prng.of_int (0xC0DE + salt) in
      let m = Gmem.create ~size_mib:1 in
      let limit = Int64.to_int (Gmem.size_bytes m) in
      let addr () = Int64.of_int (Prng.int prng (limit - 8)) in
      let write () =
        let w = Prng.choose prng [| 1; 2; 4; 8 |] in
        (* Mix in zero stores so zero-page canonicalization is hit. *)
        let v = if Prng.chance prng 0.2 then 0L else Prng.int64_any prng in
        Gmem.write m (addr ()) ~width:w v
      in
      for _ = 1 to 8 do write () done;
      let stack = ref [] in
      let ok = ref true in
      for _ = 1 to 120 do
        match Prng.int prng 12 with
        | 0 | 1 when List.length !stack < 4 ->
            stack := (Gmem.checkpoint m, Gmem.copy m) :: !stack
        | 2 | 3 when !stack <> [] ->
            (* Rewind to a random live mark; marks inside it die. *)
            let l = !stack in
            let i = Prng.int prng (List.length l) in
            let cp, oracle = List.nth l i in
            ignore (Gmem.rewind m cp : int);
            stack := List.filteri (fun j _ -> j >= i) l;
            if not (Gmem.equal m oracle) then ok := false
        | 4 when !stack <> [] ->
            let cp, _ = List.hd !stack in
            Gmem.commit m cp;
            stack := List.tl !stack
        | _ -> write ()
      done;
      (* Unwind whatever is left, outermost last. *)
      List.iteri
        (fun i (cp, oracle) ->
          (* Everything inside this mark is already gone after the
             previous iteration's rewind. *)
          ignore (i : int);
          ignore (Gmem.rewind m cp : int);
          if not (Gmem.equal m oracle) then ok := false)
        !stack;
      !ok)

let test_gmem_zero_canonical () =
  (* Dirtying a fresh page and rewinding must not leave a logically
     visible trace: the memory reads back as zeros and compares equal
     to an untouched twin. *)
  let m = Gmem.create ~size_mib:1 in
  let twin = Gmem.create ~size_mib:1 in
  let cp = Gmem.checkpoint m in
  Gmem.write m 0x4000L ~width:8 0xDEADBEEFL;
  Gmem.write m 0x8123L ~width:1 7L;
  check Alcotest.int "two pages dirtied" 2 (Gmem.dirty_pages m);
  ignore (Gmem.rewind m cp : int);
  check Alcotest.int64 "reads back zero" 0L (Gmem.read m 0x4000L ~width:8);
  check Alcotest.bool "equal to untouched twin" true (Gmem.equal m twin);
  Gmem.commit m cp;
  check Alcotest.int "stack empty" 0 (Gmem.checkpoint_depth m)

(* A full restore invalidates every checkpoint, and the stale handle
   stays stale after a new checkpoint reaches the same depth (the ABA
   case).  One test, run on each store: [make] builds a fresh store and
   returns its checkpoint, full-restore and rewind operations. *)
type 'cp store = {
  name : string;
  checkpoint : unit -> 'cp;
  full_restore : unit -> unit;
  rewind : 'cp -> int;
}

let test_full_restore_invalidates (make : unit -> _ store) () =
  let s = make () in
  let cp = s.checkpoint () in
  s.full_restore ();
  let stale () =
    Alcotest.check_raises "stale checkpoint"
      (Invalid_argument (s.name ^ ".rewind: stale checkpoint")) (fun () ->
        ignore (s.rewind cp : int))
  in
  stale ();
  ignore (s.checkpoint ());
  stale ()

let gmem_store () =
  let m = Gmem.create ~size_mib:1 in
  Gmem.write m 0x1000L ~width:8 1L;
  { name = "Gmem";
    checkpoint = (fun () -> Gmem.checkpoint m);
    full_restore =
      (fun () -> Gmem.transplant ~into:m ~from:(Gmem.create ~size_mib:1));
    rewind = Gmem.rewind m }

let ept_store () =
  let e = Ept.create () in
  { name = "Ept";
    checkpoint = (fun () -> Ept.checkpoint e);
    full_restore = (fun () -> Ept.transplant ~into:e ~from:(Ept.create ()));
    rewind = Ept.rewind e }

let vmcs_store () =
  let v = Vmcs.create () in
  { name = "Vmcs";
    checkpoint = (fun () -> Vmcs.checkpoint v);
    full_restore = (fun () -> Vmcs.restore_from v ~src:(Vmcs.create ()));
    rewind = Vmcs.rewind v }

(* --- EPT: random map/unmap vs deep-copy oracle --- *)

let prop_ept_cow_equals_copy =
  QCheck.Test.make ~name:"ept: rewind ≡ deep-copy restore" ~count:25
    QCheck.small_int (fun salt ->
      let prng = Prng.of_int (0xE9 + salt) in
      let e = Ept.create () in
      Ept.map e ~gpa:0L ~len:0x1000000L Ept.perm_rwx;
      let page = 4096L in
      let mutate () =
        let pfn = Int64.of_int (Prng.int prng 4096) in
        let gpa = Int64.mul pfn page in
        (* Mostly small per-page updates (override path); rarely a
           range big enough to take the range-list path and shadow
           existing overrides. *)
        let pages =
          if Prng.chance prng 0.05 then 2048 else 1 + Prng.int prng 8
        in
        let len = Int64.mul (Int64.of_int pages) page in
        if Prng.bool prng then
          Ept.map e ~gpa ~len
            (Prng.choose prng
               [| Ept.perm_ro; Ept.perm_rw; Ept.perm_rwx; Ept.perm_none |])
        else Ept.unmap e ~gpa ~len
      in
      for _ = 1 to 8 do mutate () done;
      let stack = ref [] in
      let ok = ref true in
      for _ = 1 to 80 do
        match Prng.int prng 12 with
        | 0 | 1 when List.length !stack < 4 ->
            stack := (Ept.checkpoint e, Ept.copy e) :: !stack
        | 2 | 3 when !stack <> [] ->
            let l = !stack in
            let i = Prng.int prng (List.length l) in
            let cp, oracle = List.nth l i in
            ignore (Ept.rewind e cp : int);
            stack := List.filteri (fun j _ -> j >= i) l;
            if Ept.dump e <> Ept.dump oracle then ok := false
        | 4 when !stack <> [] ->
            let cp, _ = List.hd !stack in
            Ept.commit e cp;
            stack := List.tl !stack
        | _ -> mutate ()
      done;
      List.iter
        (fun (cp, oracle) ->
          ignore (Ept.rewind e cp : int);
          if Ept.dump e <> Ept.dump oracle then ok := false)
        !stack;
      !ok)

(* --- VMCS / VMCB: random field writes vs deep-copy oracle --- *)

let vmcs_canon v = (Vmcs.nonzero_fields v, Vmcs.state v)

let prop_vmcs_cow_equals_copy =
  QCheck.Test.make ~name:"vmcs: rewind ≡ deep-copy restore" ~count:25
    QCheck.small_int (fun salt ->
      let prng = Prng.of_int (0x5D + salt) in
      let v = Vmcs.create () in
      let writable =
        Array.of_list
          (List.filter (fun f -> not (F.readonly f)) (Array.to_list F.all))
      in
      let mutate () =
        match Prng.int prng 10 with
        | 0 -> Vmcs.vmclear v
        | 1 -> Vmcs.set_active v
        | 2 -> Vmcs.mark_launched v
        | 3 ->
            (* Processor-internal store into a read-only field. *)
            Vmcs.write_exit_info v F.vm_exit_reason
              (Int64.of_int (Prng.int prng 65))
        | _ ->
            let f = Prng.choose prng writable in
            (match Vmcs.write v f (Prng.int64_any prng) with
            | Ok () -> ()
            | Error _ -> assert false)
      in
      for _ = 1 to 8 do mutate () done;
      let stack = ref [] in
      let ok = ref true in
      for _ = 1 to 80 do
        match Prng.int prng 12 with
        | 0 | 1 when List.length !stack < 4 ->
            stack := (Vmcs.checkpoint v, Vmcs.copy v) :: !stack
        | 2 | 3 when !stack <> [] ->
            let l = !stack in
            let i = Prng.int prng (List.length l) in
            let cp, oracle = List.nth l i in
            ignore (Vmcs.rewind v cp : int);
            stack := List.filteri (fun j _ -> j >= i) l;
            if vmcs_canon v <> vmcs_canon oracle then ok := false
        | 4 when !stack <> [] ->
            let cp, _ = List.hd !stack in
            Vmcs.commit v cp;
            stack := List.tl !stack
        | _ -> mutate ()
      done;
      List.iter
        (fun (cp, oracle) ->
          ignore (Vmcs.rewind v cp : int);
          if vmcs_canon v <> vmcs_canon oracle then ok := false)
        !stack;
      !ok)

let prop_vmcb_cow_equals_copy =
  QCheck.Test.make ~name:"vmcb: rewind ≡ deep-copy restore" ~count:25
    QCheck.small_int (fun salt ->
      let prng = Prng.of_int (0xB0 + salt) in
      let b = Vmcb.create () in
      let mutate () =
        Vmcb.write b (Prng.choose prng Vmcb.all) (Prng.int64_any prng)
      in
      for _ = 1 to 8 do mutate () done;
      let stack = ref [] in
      let ok = ref true in
      for _ = 1 to 80 do
        match Prng.int prng 12 with
        | 0 | 1 when List.length !stack < 4 ->
            stack := (Vmcb.checkpoint b, Vmcb.copy b) :: !stack
        | 2 | 3 when !stack <> [] ->
            let l = !stack in
            let i = Prng.int prng (List.length l) in
            let cp, oracle = List.nth l i in
            ignore (Vmcb.rewind b cp : int);
            stack := List.filteri (fun j _ -> j >= i) l;
            if Vmcb.nonzero_fields b <> Vmcb.nonzero_fields oracle then
              ok := false
        | 4 when !stack <> [] ->
            let cp, _ = List.hd !stack in
            Vmcb.commit b cp;
            stack := List.tl !stack
        | _ -> mutate ()
      done;
      List.iter
        (fun (cp, oracle) ->
          ignore (Vmcb.rewind b cp : int);
          if Vmcb.nonzero_fields b <> Vmcb.nonzero_fields oracle then
            ok := false)
        !stack;
      !ok)

(* --- domain level: every piece of state, COW vs full restore ---

   [dom_state] projects everything a rewind must put back into plain
   data that compares structurally.  The VMCS VPID is excluded: it
   encodes the process-global domain id, which differs between two
   universes by construction.  A UART checkpoint is plain data — the
   transmit-log length and every register — so next to
   [Uart.transmitted] it is the UART's whole state. *)

let dom_state (dom : Domain.t) =
  let v = dom.Domain.vcpu in
  let vpt = dom.Domain.vpt and lapic = dom.Domain.vlapic in
  ( ( Gmem.nonzero_pages dom.Domain.mem,
      Ept.dump dom.Domain.ept,
      List.filter
        (fun (f, _) -> f <> F.vpid)
        (Vmcs.nonzero_fields v.Vcpu.vmcs),
      Vmcs.state v.Vcpu.vmcs ),
    ( (v.Vcpu.rip, v.Vcpu.rsp, v.Vcpu.rflags, v.Vcpu.cr0, v.Vcpu.cr3),
      Clock.now v.Vcpu.clock,
      Array.map (Gpr.get v.Vcpu.regs) Gpr.all,
      Array.to_list v.Vcpu.segs,
      List.map (Msr.read v.Vcpu.msrs) Msr.all ),
    ( Uart.transmitted dom.Domain.uart,
      Uart.checkpoint dom.Domain.uart,
      (dom.Domain.pic, dom.Domain.pit, dom.Domain.rtc, dom.Domain.pci) ),
    ( Vpt.next_deadline vpt,
      List.map (Vpt.armed vpt) [ Vpt.Pt_pit; Vpt.Pt_lapic; Vpt.Pt_rtc ],
      Vpt.pending_intr vpt,
      (Vlapic.tpr lapic, Vlapic.enabled lapic, Vlapic.highest_pending lapic) ),
    ( dom.Domain.crashed,
      dom.Domain.guest_mode,
      dom.Domain.blocked,
      Array.to_list dom.Domain.bar_regs ) )

(* Digest without sharing, so two equal states digest equally however
   their boxed values happen to be shared. *)
let state_digest dom =
  Digest.to_hex
    (Digest.string (Marshal.to_string (dom_state dom) [ Marshal.No_sharing ]))

(* One random step applied identically to both domains. *)
type op =
  | Out of int * int * int64  (* port, size, value *)
  | In of int * int
  | Rx of char
  | Msr_write of Msr.index * int64
  | Arm of Vpt.source * int * int  (* vector, period *)
  | Disarm of Vpt.source
  | Tick of int  (* advance the clock, then fire due timers *)
  | Mem_write of int64 * int * int64
  | Vmcs_write of F.t * int64
  | Scalars of int64 * int64 * bool

(* Ports of every device on the bus: PIC pair, PIT, RTC, PCI, COM1
   (the transmit register weighted up). *)
let device_ports =
  [| (0x20, 1); (0x21, 1); (0xA0, 1); (0xA1, 1); (0x40, 1); (0x42, 1);
     (0x43, 1); (0x70, 1); (0x71, 1); (0xCF8, 4); (0xCFC, 4); (0x3F8, 1);
     (0x3F8, 1); (0x3F8, 1); (0x3F9, 1); (0x3FA, 1); (0x3FB, 1);
     (0x3FC, 1); (0x3FF, 1) |]

let writable_fields =
  Array.of_list
    (List.filter (fun f -> not (F.readonly f)) (Array.to_list F.all))

let msrs = Array.of_list Msr.all

let random_op prng =
  let source () = Prng.choose prng [| Vpt.Pt_pit; Vpt.Pt_lapic; Vpt.Pt_rtc |] in
  match Prng.int prng 10 with
  | 0 | 1 ->
      let port, size = Prng.choose prng device_ports in
      Out (port, size, Int64.of_int (Prng.int prng 256))
  | 2 ->
      let port, size = Prng.choose prng device_ports in
      In (port, size)
  | 3 -> Rx (Char.chr (Prng.int prng 256))
  | 4 -> Msr_write (Prng.choose prng msrs, Prng.int64_any prng)
  | 5 ->
      Arm (source (), 0x20 + Prng.int prng 32, 1 + Prng.int prng 5_000)
  | 6 -> if Prng.bool prng then Disarm (source ()) else Tick (Prng.int prng 8_000)
  | 7 ->
      Mem_write
        ( Int64.of_int (Prng.int prng 0xFF000),
          Prng.choose prng [| 1; 2; 4; 8 |],
          Prng.int64_any prng )
  | 8 -> Vmcs_write (Prng.choose prng writable_fields, Prng.int64_any prng)
  | _ -> Scalars (Prng.int64_any prng, Prng.int64_any prng, Prng.bool prng)

(* Returns what the step observed (port reads), so the two domains'
   observations can be compared too. *)
let apply (dom : Domain.t) = function
  | Out (port, size, v) ->
      Port_bus.write dom.Domain.bus ~port ~size v;
      0L
  | In (port, size) -> Port_bus.read dom.Domain.bus ~port ~size
  | Rx c ->
      Uart.push_rx dom.Domain.uart c;
      0L
  | Msr_write (i, v) ->
      Msr.write dom.Domain.vcpu.Vcpu.msrs i v;
      0L
  | Arm (source, vector, period_cycles) ->
      let now = Clock.now dom.Domain.vcpu.Vcpu.clock in
      Vpt.arm dom.Domain.vpt ~source ~vector ~period_cycles ~now;
      0L
  | Disarm source ->
      Vpt.disarm dom.Domain.vpt ~source;
      0L
  | Tick n ->
      let clock = dom.Domain.vcpu.Vcpu.clock in
      Clock.advance clock n;
      Int64.of_int
        (List.length (Vpt.process dom.Domain.vpt ~now:(Clock.now clock)))
  | Mem_write (addr, width, v) ->
      Gmem.write dom.Domain.mem addr ~width v;
      0L
  | Vmcs_write (f, v) ->
      (match Vmcs.write dom.Domain.vcpu.Vcpu.vmcs f v with
      | Ok () -> ()
      | Error _ -> assert false);
      0L
  | Scalars (rip, rax, blocked) ->
      dom.Domain.vcpu.Vcpu.rip <- rip;
      Gpr.set dom.Domain.vcpu.Vcpu.regs Gpr.Rax rax;
      dom.Domain.blocked <- blocked;
      dom.Domain.bar_regs.(Int64.to_int (Int64.logand rax 15L)) <- rip;
      if blocked && Int64.logand rip 0xFL = 0L then
        Domain.crash dom "model";
      0L

(* Two domains take the same random steps under nested marks: one
   through [Checkpoint] push/rewind/pop, the oracle through
   [Domain.snapshot]/[revert].  After every step — including mid-epoch
   ones, where the two have done identical work — the states must be
   equal.  The two restore paths share device and vCPU code, so each
   mark also keeps the digest taken at push time, and a rewind must
   land back on it. *)
let prop_domain_cow_equals_full =
  QCheck.Test.make ~name:"domain: rewind ≡ snapshot/revert, every piece"
    ~count:20 QCheck.small_int (fun salt ->
      let prng = Prng.of_int (0xD0 + salt) in
      let make id =
        Domain.create ~cov:(Iris_coverage.Cov.create ()) ~id
          ~name:(Printf.sprintf "model-%d" id) ~mem_mib:1 ()
      in
      let cow = make 1 and oracle = make 2 in
      let cps = Checkpoint.start cow in
      let marks = ref [] in
      let ok = ref true in
      let agree () =
        if state_digest cow <> state_digest oracle then ok := false
      in
      let rewind (mark, snap, at_push) =
        ignore (Checkpoint.rewind cps mark : Domain.revert_stats);
        Domain.revert oracle snap;
        if state_digest cow <> at_push then ok := false
      in
      for _ = 1 to 200 do
        (match Prng.int prng 14 with
        | 0 | 1 when List.length !marks < 4 ->
            let m = Checkpoint.push cps in
            marks := (m, Domain.snapshot oracle, state_digest cow) :: !marks
        | 2 | 3 when !marks <> [] ->
            let l = !marks in
            let i = Prng.int prng (List.length l) in
            rewind (List.nth l i);
            marks := List.filteri (fun j _ -> j >= i) l
        | 4 when !marks <> [] ->
            let m, _, _ = List.hd !marks in
            Checkpoint.pop cps m;
            marks := List.tl !marks
        | _ ->
            let op = random_op prng in
            if apply cow op <> apply oracle op then ok := false);
        agree ()
      done;
      List.iter (fun m -> rewind m; agree ()) !marks;
      !ok)

(* --- domain level: COW revert ≡ full restore, case by case --- *)

let mgr () = Manager.create ~boot_scale:0.02 ~prng_seed:21 ()

let config n = { Campaign.mutations = n; prng_seed = 77 }

let rdtsc_plan n trace =
  match
    Campaign.plan ~config:(config n) ~trace ~reason:R.Rdtsc
      ~area:Mutation.Area_vmcs
  with
  | Some plan -> plan
  | None -> Alcotest.fail "rdtsc seeds exist"

(* The full-restore oracle: a deep snapshot of S_R, transplanted back
   after every case. *)
let full_anchor ~replayer ~trace plan =
  Campaign.Anchor_full
    (Campaign.reach_sr ~replayer ~trace
       ~seed_index:plan.Campaign.plan_target.Seed.index)

let cow_anchor ~replayer ~trace plan =
  Campaign.anchor ~replayer ~trace
    ~seed_index:plan.Campaign.plan_target.Seed.index ()

(* Two isolated replayer universes execute the same plan — one
   anchored with a deep snapshot, one with a journal mark — and every
   per-case raw observation must be byte-identical. *)
let test_per_case_equivalence () =
  let setup pin =
    let m = mgr () in
    let recording = Manager.record m W.Cpu_bound ~exits:300 in
    let trace = recording.Manager.trace in
    let plan = rdtsc_plan 120 trace in
    let replayer =
      Manager.make_dummy m ~revert_to:recording.Manager.snapshot ()
    in
    (plan, replayer, pin ~replayer ~trace plan)
  in
  let canon replayer = state_digest (Replayer.ctx replayer).Ctx.dom in
  let plan_f, repl_f, anch_f = setup full_anchor in
  let plan_c, repl_c, anch_c = setup cow_anchor in
  check Alcotest.string "same plan" (digest plan_f) (digest plan_c);
  let sr_f = canon repl_f and sr_c = canon repl_c in
  check Alcotest.string "S_R states agree" sr_f sr_c;
  for i = 0 to Campaign.case_count plan_f - 1 do
    let seed = Campaign.case plan_f i in
    let rf = Campaign.execute_case ~replayer:repl_f ~anchor:anch_f seed in
    let rc = Campaign.execute_case ~replayer:repl_c ~anchor:anch_c seed in
    check Alcotest.string
      (Printf.sprintf "case %d raw identical" i)
      (digest rf) (digest rc)
  done;
  (* Both restore paths land the domain exactly back on S_R... *)
  check Alcotest.string "full restore returns to S_R" sr_f (canon repl_f);
  check Alcotest.string "cow rewind returns to S_R" sr_c (canon repl_c);
  (* ...so the two universes still agree with each other. *)
  check Alcotest.string "domains agree" (canon repl_f) (canon repl_c)

(* [Campaign.run] (COW) reports exactly what the seams report when S_R
   is pinned by the full-restore oracle. *)
let test_campaign_modes_byte_identical () =
  let full =
    let m = mgr () in
    let recording = Manager.record m W.Cpu_bound ~exits:300 in
    let trace = recording.Manager.trace in
    let plan = rdtsc_plan 120 trace in
    let replayer =
      Manager.make_dummy m ~revert_to:recording.Manager.snapshot ()
    in
    let anchor = full_anchor ~replayer ~trace plan in
    Campaign.execute ~replayer ~anchor plan
  in
  let m = mgr () in
  let recording = Manager.record m W.Cpu_bound ~exits:300 in
  match
    Campaign.run ~config:(config 120) ~manager:m ~recording ~reason:R.Rdtsc
      ~area:Mutation.Area_vmcs ()
  with
  | Some cow ->
      check Alcotest.string "campaign report identical" (digest full)
        (digest cow)
  | None -> Alcotest.fail "rdtsc seeds exist"

(* Golden values of this guided run, taken when the loop could still pin
   S_R by full restore and both restore paths produced them: the
   COW-only loop stays bound to the full-restore result. *)
let test_guided_full_restore_golden () =
  let m = mgr () in
  let recording = Manager.record m W.Cpu_bound ~exits:300 in
  match
    Guided.run ~config:{ Guided.iterations = 150; prng_seed = 5 } ~manager:m
      ~recording ~reason:R.Rdtsc
  with
  | None -> Alcotest.fail "rdtsc seeds exist"
  | Some g ->
      List.iter
        (fun (what, expected, got) -> check Alcotest.int what expected got)
        [ ("seed_index", 164, g.Guided.seed_index);
          ("executed", 150, g.Guided.executed);
          ("unique_lines", 39, g.Guided.unique_lines);
          ("corpus_size", 2, g.Guided.corpus_size);
          ("vm_crashes", 30, g.Guided.vm_crashes);
          ("hv_crashes", 22, g.Guided.hv_crashes) ]

(* --- stats accounting --- *)

let test_cow_stats_accounting () =
  let m = mgr () in
  let recording = Manager.record m W.Cpu_bound ~exits:300 in
  let trace = recording.Manager.trace in
  let plan = rdtsc_plan 40 trace in
  let replayer =
    Manager.make_dummy m ~revert_to:recording.Manager.snapshot ()
  in
  let dom = (Replayer.ctx replayer).Ctx.dom in
  let before = Domain.snapshot_stats dom in
  let anchor = cow_anchor ~replayer ~trace plan in
  let n = min 10 (Campaign.case_count plan) in
  for i = 0 to n - 1 do
    ignore
      (Campaign.execute_case ~replayer ~anchor (Campaign.case plan i)
        : Campaign.raw)
  done;
  let st = Domain.snapshot_stats dom in
  check Alcotest.int "one checkpoint opened" 1
    (st.Domain.checkpoints - before.Domain.checkpoints);
  check Alcotest.int "one rewind per case" n
    (st.Domain.cow_reverts - before.Domain.cow_reverts);
  check Alcotest.bool "full-restore path unused" true
    (st.Domain.full_reverts = before.Domain.full_reverts);
  check Alcotest.bool "journaled work was measured" true
    (st.Domain.vmcs_fields_restored > before.Domain.vmcs_fields_restored)

(* A rewind that raises must leave the domain as it was: after a full
   revert the mark's journal handles are stale, and the rewind has to
   reject them before restoring the vCPU scalars or anything else. *)
let test_failed_rewind_untouched () =
  let dom =
    Domain.create ~cov:(Iris_coverage.Cov.create ()) ~id:3 ~name:"stale"
      ~mem_mib:1 ()
  in
  let snap = Domain.snapshot dom in
  let cps = Checkpoint.start dom in
  let mark = Checkpoint.push cps in
  Domain.revert dom snap;
  dom.Domain.vcpu.Vcpu.rip <- 0x1234L;
  Gmem.write dom.Domain.mem 0x2000L ~width:8 7L;
  let before = state_digest dom in
  Alcotest.check_raises "stale mark"
    (Invalid_argument "Vmcs.rewind: stale checkpoint") (fun () ->
      ignore (Checkpoint.rewind cps mark : Domain.revert_stats));
  check Alcotest.string "state unchanged" before (state_digest dom)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "iris_snapshot"
    [ ( "gmem",
        qcheck [ prop_gmem_cow_equals_copy ]
        @ [ Alcotest.test_case "zero pages canonical" `Quick
              test_gmem_zero_canonical;
            Alcotest.test_case "full restore invalidates" `Quick
              (test_full_restore_invalidates gmem_store) ] );
      ( "ept",
        qcheck [ prop_ept_cow_equals_copy ]
        @ [ Alcotest.test_case "full restore invalidates" `Quick
              (test_full_restore_invalidates ept_store) ] );
      ( "vmcs",
        qcheck [ prop_vmcs_cow_equals_copy ]
        @ [ Alcotest.test_case "full restore invalidates" `Quick
              (test_full_restore_invalidates vmcs_store) ] );
      ("vmcb", qcheck [ prop_vmcb_cow_equals_copy ]);
      ( "domain",
        qcheck [ prop_domain_cow_equals_full ]
        @ [ Alcotest.test_case "per-case raw equivalence" `Slow
              test_per_case_equivalence;
            Alcotest.test_case "campaign modes identical" `Slow
              test_campaign_modes_byte_identical;
            Alcotest.test_case "guided = full-restore golden" `Slow
              test_guided_full_restore_golden;
            Alcotest.test_case "cow stats accounting" `Slow
              test_cow_stats_accounting;
            Alcotest.test_case "failed rewind leaves state untouched" `Quick
              test_failed_rewind_untouched ] ) ]
