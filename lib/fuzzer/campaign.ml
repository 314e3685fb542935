module Ctx = Iris_hv.Ctx
module Cov = Iris_coverage.Cov
module Prng = Iris_util.Prng
module Seed = Iris_core.Seed
module Manager = Iris_core.Manager
module Replayer = Iris_core.Replayer

type failure_class = No_failure | Vm_crash | Hypervisor_crash

let failure_name = function
  | No_failure -> "none"
  | Vm_crash -> "VM crash"
  | Hypervisor_crash -> "hypervisor crash"

type verdict = {
  mutation : Mutation.t;
  failure : failure_class;
  detail : string;
  new_lines : int;
}

type result = {
  reason : Iris_vtx.Exit_reason.t;
  area : Mutation.area;
  seed_index : int;
  executed : int;
  baseline_lines : int;
  fuzz_lines : int;
  coverage_increase_pct : float;
  vm_crashes : int;
  hv_crashes : int;
  crashing : verdict list;
}

let pct_string r = Printf.sprintf "+%.0f%%" r.coverage_increase_pct

type config = {
  mutations : int;
  prng_seed : int;
}

let default_config = { mutations = 10_000; prng_seed = 0xF022 }

(* Submit one seed inside a coverage span, triaging the outcome. *)
let submit_probed replayer seed =
  let ctx = Replayer.ctx replayer in
  Cov.span_begin ctx.Ctx.cov;
  let outcome =
    match Replayer.submit replayer seed with
    | Replayer.Replayed -> (No_failure, "")
    | Replayer.Vm_crashed msg -> (Vm_crash, msg)
    | exception Ctx.Hypervisor_panic msg ->
        (match Iris_hv.Observe.probe ctx with
        | None -> ()
        | Some p ->
            let now = Iris_vtx.Clock.now (Ctx.clock ctx) in
            Iris_telemetry.Probe.unwind p ~now;
            Iris_telemetry.Probe.instant p ~name:"hv_crash" ~now);
        (Hypervisor_crash, msg)
  in
  let span = Cov.span_end ctx.Ctx.cov in
  (outcome, span)

(* --- pure test-case generation ---

   The plan draws every random choice of a campaign (target pick,
   then [config.mutations] draws of [Mutation.random]) without
   touching a hypervisor, so test cases can be generated once on the
   dispatching side and sharded across workers.  Mutations that the
   PRNG rejects ([Mutation.random] returning [None]) are dropped
   here. *)

type plan = {
  plan_reason : Iris_vtx.Exit_reason.t;
  plan_area : Mutation.area;
  plan_target : Seed.t;
  plan_mutations : Mutation.t array;
}

let plan ~config ~trace ~reason ~area =
  match Iris_core.Trace.seeds_with_reason trace reason with
  | [] -> None
  | candidates ->
      let prng = Prng.of_int config.prng_seed in
      let target =
        List.nth candidates (Prng.int prng (List.length candidates))
      in
      let mutations = ref [] in
      for _ = 1 to config.mutations do
        match Mutation.random prng area target with
        | None -> ()
        | Some m -> mutations := m :: !mutations
      done;
      Some
        { plan_reason = reason;
          plan_area = area;
          plan_target = target;
          plan_mutations = Array.of_list (List.rev !mutations) }

(* Test case [0] is the unmutated baseline; case [i > 0] is mutation
   [i - 1] applied to the target.  [Mutation.apply] is pure, so cases
   can be materialised on any domain. *)
let case p i =
  if i = 0 then p.plan_target
  else Mutation.apply p.plan_mutations.(i - 1) p.plan_target

let case_count p = 1 + Array.length p.plan_mutations

(* The bisector's entry point: a crashing verdict names its mutation;
   re-applying it to the plan's target rebuilds the exact mutant seed
   that killed the VM. *)
let crashing_seed p (v : verdict) = Mutation.apply v.mutation p.plan_target

(* --- execution (per test case; shardable) --- *)

type raw = {
  raw_failure : failure_class;
  raw_detail : string;
  raw_span : Cov.Pset.t;
  raw_cycles : int64;
}

(* Fingerprint of a case outcome, folding every [raw] field in a fixed
   order (span points ascend — [Pset.fold] is ordered).  Since a raw is
   a pure function of (S_R, seed), equal digests across independent
   replays are the service layer's byte-identity check. *)
let raw_digest raw =
  let module Fnv = Iris_util.Fnv64 in
  let h = Fnv.init in
  let h =
    Fnv.int h
      (match raw.raw_failure with
      | No_failure -> 0
      | Vm_crash -> 1
      | Hypervisor_crash -> 2)
  in
  let h = Fnv.string h raw.raw_detail in
  let h =
    Cov.Pset.fold (fun p h -> Fnv.int h (p : Cov.point :> int)) raw.raw_span h
  in
  let h = Fnv.int64 h raw.raw_cycles in
  Fnv.to_hex h

(* The outcome reported for a case whose worker context died beyond
   the replayer's triage. *)
let crash_raw msg =
  { raw_failure = Hypervisor_crash;
    raw_detail = "worker context died: " ^ msg;
    raw_span = Cov.Pset.empty;
    raw_cycles = 0L }

(* Reach the valid state S_R by replaying the recorded prefix.  Every
   subsequent test case restores to here, which also resets the
   virtual clock — the reason a test case's outcome is independent of
   what its worker executed before it. *)
let reach_sr_state ~replayer ~trace ~seed_index =
  let prefix = Array.sub trace.Iris_core.Trace.seeds 0 seed_index in
  let reached, _ = Replayer.submit_all replayer prefix in
  if reached < Array.length prefix then
    invalid_arg "Campaign: prefix replay crashed"

let reach_sr ~replayer ~trace ~seed_index =
  reach_sr_state ~replayer ~trace ~seed_index;
  Iris_hv.Domain.snapshot (Replayer.ctx replayer).Ctx.dom

(* COW-effectiveness telemetry (visible in [stats]): how many reverts
   took the journal path and how little they had to restore, broken
   down by the exit reason under test. *)
type cow_counters = {
  probe : Iris_telemetry.Probe.t;
  reverts : Iris_telemetry.Registry.counter;
  pages : Iris_telemetry.Registry.counter;
  ept : Iris_telemetry.Registry.counter;
  vmcs_fields : Iris_telemetry.Registry.counter;
  pages_by_reason : Iris_telemetry.Registry.vec;
}

(* How a worker pins S_R between cases.  Campaigns open a journal
   epoch at S_R and rewind only what each case dirtied (kAFL/Nyx-style
   snapshot-reset).  [Anchor_full] deep-copies the whole domain and
   transplants it back after every case — the original engine, kept as
   the equivalence oracle that tests and the bench build from
   [reach_sr]; [test_snapshot.ml] pins that the two are observably
   identical. *)
type anchor =
  | Anchor_full of Iris_hv.Domain.snapshot
  | Anchor_cow of
      Iris_hv.Checkpoint.t * Iris_hv.Checkpoint.mark * cow_counters option ref

let anchor ~replayer ~trace ~seed_index () =
  reach_sr_state ~replayer ~trace ~seed_index;
  let cps = Iris_hv.Checkpoint.start (Replayer.ctx replayer).Ctx.dom in
  let mark = Iris_hv.Checkpoint.push cps in
  Anchor_cow (cps, mark, ref None)

let no_footprint =
  { Iris_hv.Domain.rs_pages = 0; rs_ept_entries = 0; rs_vmcs_fields = 0 }

(* The one way back to S_R.  Reverting also resets the virtual clock.
   The COW path returns what it restored; the full path has no
   journal footprint to report. *)
let rewind ~replayer = function
  | Anchor_full s_r ->
      Iris_hv.Domain.revert (Replayer.ctx replayer).Ctx.dom s_r;
      no_footprint
  | Anchor_cow (cps, mark, _) -> Iris_hv.Checkpoint.rewind cps mark

let restore ~replayer anchor =
  ignore (rewind ~replayer anchor : Iris_hv.Domain.revert_stats)

(* Rewind before popping: a walk past the mark must not fold into the
   parent epoch. *)
let release ~replayer anchor =
  restore ~replayer anchor;
  match anchor with
  | Anchor_full _ -> ()
  | Anchor_cow (cps, mark, _) -> Iris_hv.Checkpoint.pop cps mark

let cow_counters probe =
  let module R = Iris_telemetry.Registry in
  let reg = (Iris_telemetry.Probe.hub probe).Iris_telemetry.Hub.registry in
  { probe;
    reverts = R.counter reg "cow.reverts";
    pages = R.counter reg "cow.pages_restored";
    ept = R.counter reg "cow.ept_restored";
    vmcs_fields = R.counter reg "cow.vmcs_fields_restored";
    pages_by_reason =
      R.counter_vec reg "cow.pages_by_reason"
        ~labels:Iris_hv.Observe.reason_labels }

(* The counters live in the hub of whichever probe is attached when the
   case rewinds — workers and service universes attach theirs only
   after the anchor is pinned — so they are resolved on the first
   rewind under each probe and kept for the next.  Only [execute_case]
   counts, so guided and differential restores stay out of [cow.*]. *)
let note_cow ~replayer anchor ~reason rs =
  match (anchor, Iris_hv.Observe.probe (Replayer.ctx replayer)) with
  | Anchor_full _, _ | Anchor_cow _, None -> ()
  | Anchor_cow (_, _, resolved), Some p ->
      let c =
        match !resolved with
        | Some c when c.probe == p -> c
        | _ ->
            let c = cow_counters p in
            resolved := Some c;
            c
      in
      let module R = Iris_telemetry.Registry in
      R.incr c.reverts;
      R.add c.pages rs.Iris_hv.Domain.rs_pages;
      R.add c.ept rs.Iris_hv.Domain.rs_ept_entries;
      R.add c.vmcs_fields rs.Iris_hv.Domain.rs_vmcs_fields;
      R.vec_add c.pages_by_reason
        (Iris_vtx.Exit_reason.code reason)
        rs.Iris_hv.Domain.rs_pages

let execute_case ~replayer ~anchor seed =
  let ctx = Replayer.ctx replayer in
  let t0 = Iris_vtx.Clock.now (Ctx.clock ctx) in
  let (raw_failure, raw_detail), raw_span = submit_probed replayer seed in
  let raw_cycles = Int64.sub (Iris_vtx.Clock.now (Ctx.clock ctx)) t0 in
  (* Every test starts again from the valid state S_R. *)
  note_cow ~replayer anchor ~reason:seed.Seed.reason (rewind ~replayer anchor);
  { raw_failure; raw_detail; raw_span; raw_cycles }

(* --- ordered merge (pure) ---

   [raws] holds one entry per plan case, in case order; per-mutant
   novelty ("new lines") depends on everything seen before the mutant,
   so it is recomputed here from the raw spans in index order — never
   on the workers — making the verdicts identical for any sharding. *)

let finalize ~plan:p ~raws =
  assert (Array.length raws = case_count p);
  let baseline = raws.(0).raw_span in
  let seen = ref baseline in
  let vm_crashes = ref 0 in
  let hv_crashes = ref 0 in
  let crashing = ref [] in
  for i = 1 to Array.length raws - 1 do
    let { raw_failure = failure; raw_detail = detail; raw_span = span; _ } =
      raws.(i)
    in
    let fresh = Cov.Pset.cardinal (Cov.Pset.diff span !seen) in
    seen := Cov.Pset.union !seen span;
    match failure with
    | No_failure -> ()
    | Vm_crash ->
        incr vm_crashes;
        crashing :=
          { mutation = p.plan_mutations.(i - 1); failure; detail;
            new_lines = fresh }
          :: !crashing
    | Hypervisor_crash ->
        incr hv_crashes;
        crashing :=
          { mutation = p.plan_mutations.(i - 1); failure; detail;
            new_lines = fresh }
          :: !crashing
  done;
  let baseline_lines = Cov.Pset.cardinal baseline in
  let fuzz_lines = Cov.Pset.cardinal !seen in
  let coverage_increase_pct =
    if baseline_lines = 0 then 0.0
    else
      100.0
      *. float_of_int (fuzz_lines - baseline_lines)
      /. float_of_int baseline_lines
  in
  { reason = p.plan_reason;
    area = p.plan_area;
    seed_index = p.plan_target.Seed.index;
    executed = Array.length p.plan_mutations;
    baseline_lines;
    fuzz_lines;
    coverage_increase_pct;
    vm_crashes = !vm_crashes;
    hv_crashes = !hv_crashes;
    crashing = List.rev !crashing }

(* --- in-order driver --- *)

let execute ~replayer ~anchor p =
  finalize ~plan:p
    ~raws:
      (Array.init (case_count p) (fun i ->
           execute_case ~replayer ~anchor (case p i)))

let run ~config ~manager ~recording ~reason ~area () =
  let trace = recording.Manager.trace in
  Option.map
    (fun p ->
      let replayer =
        Manager.make_dummy manager ~revert_to:recording.Manager.snapshot ()
      in
      let seed_index = p.plan_target.Seed.index in
      execute ~replayer ~anchor:(anchor ~replayer ~trace ~seed_index ()) p)
    (plan ~config ~trace ~reason ~area)
