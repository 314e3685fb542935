(* campaign-postboot and campaign-osboot: the Table-I fuzzing loop.

   A run records one 5000-exit trace in set-up.  Each repetition runs
   one campaign per (exit reason, mutation area, stratum): targets are
   drawn from fixed strata of the reason's seeds in trace order, so
   every seed of the benchmark exercises shallow and deep valid states
   S_R alike, the property rewind and prefix-replay cost depend on.

   On post-boot (CPU-bound) state the COW rewind dominates a case; on
   OS BOOT state seed submission, coverage spans and finalize do.  A
   rewind optimisation should show on the first and barely on the
   second. *)

module Manager = Iris_core.Manager
module Trace = Iris_core.Trace
module Seed = Iris_core.Seed
module Replayer = Iris_core.Replayer
module Campaign = Iris_fuzzer.Campaign
module Mutation = Iris_fuzzer.Mutation
module Cov = Iris_coverage.Cov
module Ctx = Iris_hv.Ctx
module Checkpoint = Iris_hv.Checkpoint
module R = Iris_vtx.Exit_reason
module W = Iris_guest.Workload
module Fnv = Iris_util.Fnv64
module Prng = Iris_util.Prng

type params = {
  guest : W.t;
  exits : int;
  boot_scale : float;
  targets : (R.t * Mutation.area list) list;
  strata : int;
  mutations : int;
}

type target = {
  reason : R.t;
  area : Mutation.area;
  config : Campaign.config;
  label : string;
}

(* A config PRNG seed whose target (the plan's first draw) lies in
   stratum [j] of [k] among the reason's seeds. *)
let stratified_seed prng ~trace ~reason ~j ~k =
  let candidates = Array.of_list (Trace.seeds_with_reason trace reason) in
  let n = Array.length candidates in
  if n = 0 then
    failwith (Printf.sprintf "no %s exit in the recording" (R.short_name reason));
  let lo = j * n / k and hi = max ((j + 1) * n / k) ((j * n / k) + 1) in
  let rank (s : Seed.t) =
    let r = ref 0 in
    Array.iter (fun (c : Seed.t) -> if c.Seed.index < s.Seed.index then incr r) candidates;
    !r
  in
  let rec search () =
    let prng_seed = 1 + Prng.int prng 1_000_000_000 in
    let config = { Campaign.mutations = 0; prng_seed } in
    match Campaign.plan ~config ~trace ~reason ~area:Mutation.Area_gpr with
    | Some p when rank p.Campaign.plan_target >= lo && rank p.Campaign.plan_target < hi ->
        prng_seed
    | Some _ | None -> search ()
  in
  search ()

let choose_targets p prng trace =
  List.concat_map
    (fun (reason, areas) ->
      List.concat
        (List.init p.strata (fun j ->
             let prng_seed = stratified_seed prng ~trace ~reason ~j ~k:p.strata in
             List.map
               (fun area ->
                 { reason;
                   area;
                   config = { Campaign.mutations = p.mutations; prng_seed };
                   label =
                     Printf.sprintf "%s/%s#%d" (R.short_name reason)
                       (Mutation.area_name area) j })
               areas)))
    p.targets

let failure_code = function
  | Campaign.No_failure -> 0
  | Campaign.Vm_crash -> 1
  | Campaign.Hypervisor_crash -> 2

let result_digest h (r : Campaign.result) =
  let h = Fnv.int h (R.code r.Campaign.reason) in
  let h = Fnv.string h (Mutation.area_name r.Campaign.area) in
  let h = List.fold_left Fnv.int h
      [ r.Campaign.seed_index; r.Campaign.executed; r.Campaign.baseline_lines;
        r.Campaign.fuzz_lines; r.Campaign.vm_crashes; r.Campaign.hv_crashes ]
  in
  List.fold_left
    (fun h (v : Campaign.verdict) ->
      let h = Fnv.string h (Mutation.describe v.Campaign.mutation) in
      let h = Fnv.int h (failure_code v.Campaign.failure) in
      let h = Fnv.string h v.Campaign.detail in
      Fnv.int h v.Campaign.new_lines)
    h r.Campaign.crashing

(* One target's campaign: its result and every case's raw outcome. *)
type outcome = { result : Campaign.result; raws : Campaign.raw array }

let outcome_digest h o =
  let h = result_digest h o.result in
  Array.fold_left (fun h raw -> Fnv.string h (Campaign.raw_digest raw)) h o.raws

let plan_of ~trace t =
  match Campaign.plan ~config:t.config ~trace ~reason:t.reason ~area:t.area with
  | Some p -> p
  | None -> failwith ("no seed for " ^ t.label)

let cow = function
  | Campaign.Anchor_cow (cps, mark, _) -> (cps, mark)
  | Campaign.Anchor_full _ -> invalid_arg "campaign anchor is not COW"

(* [Campaign.run] through its public seams — make_dummy, plan, anchor,
   one [execute_case] per case, finalize — timing each case. *)
let campaign_untraced m (rec_ : Manager.recording) t ~lat =
  let trace = rec_.Manager.trace in
  let replayer = Manager.make_dummy m ~revert_to:rec_.Manager.snapshot () in
  let plan = plan_of ~trace t in
  let anchor =
    Campaign.anchor ~replayer ~trace ~seed_index:plan.Campaign.plan_target.Seed.index ()
  in
  let raws =
    Array.init (Campaign.case_count plan) (fun i ->
        let t0 = Measure.now_s () in
        let raw = Campaign.execute_case ~replayer ~anchor (Campaign.case plan i) in
        lat.(i) <- Measure.now_s () -. t0;
        raw)
  in
  let cps, mark = cow anchor in
  Checkpoint.pop cps mark;
  { result = Campaign.finalize ~plan ~raws; raws }

type tally = {
  mutable pages : int;
  mutable vmcs_fields : int;
  mutable ept : int;
  mutable vm_crashed : int;
  mutable hv_panics : int;
}

(* [Campaign.execute_case] taken apart at its layer boundaries; the
   outcome must digest the same as the library's. *)
let case_traced replayer cps mark seed tally =
  let ctx = Replayer.ctx replayer in
  let cov = ctx.Ctx.cov in
  let t0 = Iris_vtx.Clock.now (Ctx.clock ctx) in
  Spans.enter Spans.cov_span;
  Cov.span_begin cov;
  Spans.leave ();
  Spans.enter Spans.replayer_submit;
  let raw_failure, raw_detail =
    match Replayer.submit replayer seed with
    | Replayer.Replayed -> (Campaign.No_failure, "")
    | Replayer.Vm_crashed msg ->
        tally.vm_crashed <- tally.vm_crashed + 1;
        (Campaign.Vm_crash, msg)
    | exception Ctx.Hypervisor_panic msg ->
        tally.hv_panics <- tally.hv_panics + 1;
        (Campaign.Hypervisor_crash, msg)
  in
  Spans.leave ();
  Spans.enter Spans.cov_span;
  let raw_span = Cov.span_end cov in
  Spans.leave ();
  let raw_cycles = Int64.sub (Iris_vtx.Clock.now (Ctx.clock ctx)) t0 in
  Spans.enter Spans.checkpoint_rewind;
  let rs = Checkpoint.rewind cps mark in
  Spans.leave ();
  tally.pages <- tally.pages + rs.Iris_hv.Domain.rs_pages;
  tally.vmcs_fields <- tally.vmcs_fields + rs.Iris_hv.Domain.rs_vmcs_fields;
  tally.ept <- tally.ept + rs.Iris_hv.Domain.rs_ept_entries;
  { Campaign.raw_failure; raw_detail; raw_span; raw_cycles }

let campaign_traced m (rec_ : Manager.recording) t tally =
  let trace = rec_.Manager.trace in
  let replayer =
    Spans.span Spans.manager_make_dummy (fun () ->
        Manager.make_dummy m ~revert_to:rec_.Manager.snapshot ())
  in
  let plan = Spans.span Spans.campaign_plan (fun () -> plan_of ~trace t) in
  let anchor =
    Spans.span Spans.campaign_anchor (fun () ->
        Campaign.anchor ~replayer ~trace
          ~seed_index:plan.Campaign.plan_target.Seed.index ())
  in
  let cps, mark = cow anchor in
  let raws =
    Array.init (Campaign.case_count plan) (fun i ->
        Spans.request := i;
        Spans.enter Spans.mutation_apply;
        let seed = Campaign.case plan i in
        Spans.leave ();
        case_traced replayer cps mark seed tally)
  in
  Checkpoint.pop cps mark;
  let result = Spans.span Spans.campaign_finalize (fun () -> Campaign.finalize ~plan ~raws) in
  ({ result; raws }, Array.length plan.Campaign.plan_mutations)

let setup p ~seed =
  let prng = Prng.of_int seed in
  let m = Manager.create ~boot_scale:p.boot_scale ~prng_seed:(1 + Prng.int prng 1_000_000) () in
  let recording = Manager.record ~store_metrics:false m p.guest ~exits:p.exits in
  let targets = choose_targets p prng recording.Manager.trace in
  (* Run every target's campaign through [campaign], timing only the
     campaigns; outcomes are digested and dropped as they come. *)
  let each campaign =
    let wall = ref 0.0 and h = ref Fnv.init and ops = ref 0 and points = ref 0 in
    let results =
      List.map
        (fun t ->
          let o = Measure.add wall (fun () -> campaign t) in
          h := outcome_digest !h o;
          ops := !ops + Array.length o.raws;
          Array.iter (fun r -> points := !points + Cov.Pset.cardinal r.Campaign.raw_span) o.raws;
          o.result)
        targets
    in
    (results, !wall, !ops, !points, Fnv.to_hex !h)
  in
  let last = ref [] in
  let rep () =
    let lats = List.map (fun t -> (t, Array.make (p.mutations + 1) 0.0)) targets in
    let results, wall_s, ops, _, digest =
      each (fun t -> campaign_untraced m recording t ~lat:(List.assq t lats))
    in
    last := results;
    { Harness.wall_s;
      ops;
      failed = 0;
      latencies =
        List.map2
          (fun (t, lat) (r : Campaign.result) -> (t.label, Array.sub lat 0 (r.Campaign.executed + 1)))
          lats results;
      digest }
  in
  let traced () =
    let base = rep () in
    Gc.full_major ();
    let tally = { pages = 0; vmcs_fields = 0; ept = 0; vm_crashed = 0; hv_panics = 0 } in
    let accepted = ref 0 in
    let _, wall_s, ops, points, digest =
      each (fun t ->
          let o, n = campaign_traced m recording t tally in
          accepted := !accepted + n;
          o)
    in
    Harness.traced_after ~base ~wall_s ~ops ~failed:0 ~digest
      ~counts:
        [ ("checkpoint.pages_restored", float_of_int tally.pages);
          ("checkpoint.vmcs_fields_restored", float_of_int tally.vmcs_fields);
          ("checkpoint.ept_restored", float_of_int tally.ept);
          ("replayer.vm_crashed", float_of_int tally.vm_crashed);
          ("replayer.hv_panics", float_of_int tally.hv_panics);
          ("cov.span_points", float_of_int points);
          ( "campaign.accepted_ratio",
            float_of_int !accepted
            /. float_of_int (p.mutations * List.length targets) ) ]
  in
  (* The seams must add up to [Campaign.run] itself. *)
  let after_warm_up () =
    List.concat
      (List.map2
         (fun t seams ->
           match
             Campaign.run ~config:t.config ~manager:m ~recording ~reason:t.reason
               ~area:t.area ()
           with
           | Some r when result_digest Fnv.init r = result_digest Fnv.init seams -> []
           | Some _ | None ->
               [ Printf.sprintf "%s: Campaign.run disagrees with its seams" t.label ])
         targets !last)
  in
  { Harness.rep; traced; after_warm_up }

let postboot_full =
  { guest = W.Cpu_bound;
    exits = 5_000;
    boot_scale = 0.3;
    targets =
      [ (R.Rdtsc, [ Mutation.Area_gpr; Mutation.Area_vmcs ]);
        (R.Cpuid, [ Mutation.Area_gpr; Mutation.Area_vmcs ]) ];
    strata = 2;
    mutations = 2_500 }

let osboot_full =
  { guest = W.Os_boot;
    exits = 5_000;
    boot_scale = 0.3;
    targets =
      [ (R.Io_instruction, [ Mutation.Area_vmcs ]);
        (R.Cr_access, [ Mutation.Area_gpr ]);
        (R.Ept_violation, [ Mutation.Area_vmcs ]) ];
    strata = 3;
    mutations = 7_000 }

let shrink p = { p with exits = 1_000; boot_scale = 0.01; strata = 1; mutations = p.mutations / 50 }

let make name full pinned =
  { Harness.name;
    setup = (fun ~seed ~smoke -> setup (if smoke then shrink full else full) ~seed);
    pinned }

let postboot = make "campaign-postboot" postboot_full "325385a315c76588"
let osboot = make "campaign-osboot" osboot_full "eb85b664af7653fd"
