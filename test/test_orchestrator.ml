(* Tests for the parallel fuzzing orchestrator: the domain pool (every
   index claimed exactly once, panic containment and respawn), and —
   above all — the subsystem's determinism contract:
   merged campaign reports and telemetry snapshots must be
   byte-identical for any --jobs N. *)

module Pool = Iris_orchestrator.Pool
module Orch = Iris_orchestrator.Orchestrator
module Mutation = Iris_fuzzer.Mutation
module Campaign = Iris_fuzzer.Campaign
module Manager = Iris_core.Manager
module F = Iris_vmcs.Field
module Vmcb = Iris_svm.Vmcb
module R = Iris_vtx.Exit_reason
module W = Iris_guest.Workload
module Registry = Iris_telemetry.Registry
module Gate = Iris_scenario.Gate

let check = Alcotest.check

let digest = Iris_scenario.Scenario.digest

(* --- Pool: the worker pool --- *)

(* Whatever the worker count and however the workers race for the
   cursor, every index runs exactly once and its result lands in its
   own slot. *)
let prop_pool_every_index_once =
  QCheck.Test.make ~name:"every index exactly once" ~count:100
    QCheck.(pair (int_range 1 6) (int_range 0 300))
    (fun (jobs, total) ->
      let runs = Array.init total (fun _ -> Atomic.make 0) in
      let results, stats =
        Pool.run ~jobs ~total ~init:ignore
          ~task:(fun () i ->
            Atomic.incr runs.(i);
            i)
          ~on_crash:(fun _ _ -> -1)
      in
      Array.for_all (fun c -> Atomic.get c = 1) runs
      && results = Array.init total Fun.id
      && Array.fold_left (fun a s -> a + s.Pool.executed) 0 stats = total)

let test_pool_inline_executes_all () =
  let results, stats =
    Pool.run ~jobs:1 ~total:50 ~init:ignore
      ~task:(fun () i -> i * i)
      ~on_crash:(fun _ _ -> -1)
  in
  check Alcotest.bool "all squares" true
    (results = Array.init 50 (fun i -> i * i));
  check Alcotest.int "one worker did everything" 50 stats.(0).Pool.executed

let test_pool_single_worker_in_order () =
  let order = ref [] in
  let _, stats =
    Pool.run ~jobs:1 ~total:5 ~init:ignore
      ~task:(fun () i -> order := i :: !order)
      ~on_crash:(fun _ _ -> Alcotest.fail "no task raises")
  in
  check Alcotest.(list int) "in order" [ 0; 1; 2; 3; 4 ] (List.rev !order);
  check Alcotest.int "one worker" 1 (Array.length stats)

let test_pool_parallel_executes_all () =
  let results, stats =
    Pool.run ~jobs:4 ~total:50 ~init:ignore
      ~task:(fun () i -> i * i)
      ~on_crash:(fun _ _ -> -1)
  in
  check Alcotest.bool "all squares" true
    (results = Array.init 50 (fun i -> i * i));
  check Alcotest.int "work conservation" 50
    (Array.fold_left (fun a s -> a + s.Pool.executed) 0 stats)

let test_pool_panic_containment () =
  let boots = Atomic.make 0 in
  let results, stats =
    Pool.run ~jobs:2 ~total:20
      ~init:(fun _ -> Atomic.incr boots)
      ~task:(fun () i -> if i = 7 then failwith "hypervisor context died" else i)
      ~on_crash:(fun e i ->
        check Alcotest.bool "exn carried" true
          (Printexc.to_string e <> "");
        -1000 - i)
  in
  check Alcotest.int "crash verdict reported in place" (-1007) results.(7);
  Array.iteri
    (fun i r -> if i <> 7 then check Alcotest.int "other tasks fine" i r)
    results;
  check Alcotest.int "one respawn" 1
    (Array.fold_left (fun a s -> a + s.Pool.respawns) 0 stats);
  (* 2 boots + 1 respawn. *)
  check Alcotest.int "worker universe rebuilt" 3 (Atomic.get boots)

let test_pool_empty () =
  let results, stats =
    Pool.run ~jobs:3 ~total:0 ~init:(fun w -> w)
      ~task:(fun _ i -> i) ~on_crash:(fun _ _ -> -1)
  in
  check Alcotest.int "no results" 0 (Array.length results);
  check Alcotest.int "nothing executed" 0
    (Array.fold_left (fun a s -> a + s.Pool.executed) 0 stats)

(* A worker with no index to claim is never started, so it builds no
   state (for the orchestrator: boots no universe). *)
let test_pool_fewer_tasks_than_workers () =
  let boots = Atomic.make 0 in
  let results, stats =
    Pool.run ~jobs:4 ~total:2
      ~init:(fun w -> Atomic.incr boots; w)
      ~task:(fun _ i -> 10 + i) ~on_crash:(fun _ _ -> -1)
  in
  check Alcotest.(array int) "every slot filled" [| 10; 11 |] results;
  check Alcotest.int "two workers started" 2 (Array.length stats);
  check Alcotest.int "two states built" 2 (Atomic.get boots);
  check Alcotest.int "work conservation" 2
    (Array.fold_left (fun a s -> a + s.Pool.executed) 0 stats)

(* Worker 0 runs on the calling domain at every [jobs].  Each task
   waits until both are claimed, so neither worker can take both. *)
let test_pool_caller_is_worker_zero () =
  let claimed = Atomic.make 0 in
  let ran_on, _ =
    Pool.run ~jobs:2 ~total:2 ~init:ignore
      ~task:(fun () _ ->
        Atomic.incr claimed;
        while Atomic.get claimed < 2 do
          Domain.cpu_relax ()
        done;
        (Domain.self () :> int))
      ~on_crash:(fun e _ -> raise e)
  in
  let caller = (Domain.self () :> int) in
  check Alcotest.int "one task ran on the caller" 1
    (Array.fold_left (fun n d -> if d = caller then n + 1 else n) 0 ran_on)

(* A failure of worker 0's [init] propagates only once the spawned
   worker has been joined, so it has run every task. *)
let test_pool_joins_after_caller_fails () =
  let finished = Atomic.make 0 in
  (match
     Pool.run ~jobs:2 ~total:2
       ~init:(fun w -> if w = 0 then failwith "worker 0 cannot boot")
       ~task:(fun () _ -> Atomic.incr finished)
       ~on_crash:(fun e _ -> raise e)
   with
  | _ -> Alcotest.fail "worker 0's init failure must propagate"
  | exception Failure _ -> ());
  check Alcotest.int "the spawned worker ran both tasks" 2
    (Atomic.get finished)

(* --- domain-safety satellites --- *)

let test_registries_frozen () =
  check Alcotest.bool "vmcs field table frozen" true (F.is_frozen ());
  check Alcotest.bool "vmcb table frozen" true (Vmcb.is_frozen ());
  (match F.def "LATE_FIELD" 0x9999 F.W16 F.Ctrl with
  | _ -> Alcotest.fail "late VMCS registration must raise"
  | exception Invalid_argument _ -> ());
  match Vmcb.def "LATE_FIELD" 0x999 Vmcb.Control with
  | _ -> Alcotest.fail "late VMCB registration must raise"
  | exception Invalid_argument _ -> ()

let test_concurrent_domids_unique () =
  let construct () =
    let cov = Iris_coverage.Cov.create () in
    let hooks = Iris_hv.Hooks.create () in
    let ctx =
      Iris_hv.Xen.construct ~dummy:true ~cov ~hooks ~name:"id-test" ()
    in
    ctx.Iris_hv.Ctx.dom.Iris_hv.Domain.id
  in
  let spawned =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () -> Array.init 8 (fun _ -> construct ())))
  in
  let ids =
    Array.concat (Array.to_list (Array.map Domain.join spawned))
  in
  check Alcotest.int "32 distinct domain ids" 32
    (List.length (List.sort_uniq compare (Array.to_list ids)))

(* --- telemetry merge --- *)

let test_registry_merge_commutes () =
  let mk a_c g h =
    let r = Registry.create () in
    Registry.add (Registry.counter r "c") a_c;
    Registry.set (Registry.gauge r "g") g;
    List.iter (Registry.observe (Registry.histogram r "h")) h;
    r
  in
  let snap_of parts =
    let into = Registry.create () in
    List.iter (fun p -> Registry.merge_into ~into p) parts;
    Registry.snapshot into
  in
  let a () = mk 3 5L [ 10L; 200L ] in
  let b () = mk 4 9L [ 7L ] in
  let ab = snap_of [ a (); b () ] in
  let ba = snap_of [ b (); a () ] in
  check Alcotest.string "merge commutes" (digest ab) (digest ba);
  (* Counters add, gauges max. *)
  (match List.assoc "c" ab with
  | Registry.S_counter v -> check Alcotest.int64 "counter adds" 7L v
  | _ -> Alcotest.fail "c is a counter");
  (match List.assoc "g" ab with
  | Registry.S_gauge v -> check Alcotest.int64 "gauge maxes" 9L v
  | _ -> Alcotest.fail "g is a gauge");
  match List.assoc "h" ab with
  | Registry.S_histogram { count; sum; min; max; _ } ->
      check Alcotest.int64 "hist count" 3L count;
      check Alcotest.int64 "hist sum" 217L sum;
      check Alcotest.int64 "hist min" 7L min;
      check Alcotest.int64 "hist max" 200L max
  | _ -> Alcotest.fail "h is a histogram"

(* --- the determinism contract --- *)

let mgr () = Manager.create ~boot_scale:0.02 ~prng_seed:21 ()

let config n = { Campaign.mutations = n; prng_seed = 77 }

let test_fuzz_jobs_byte_identical () =
  let m = mgr () in
  let recording = Manager.record m W.Cpu_bound ~exits:300 in
  match
    Gate.campaign ~recording ~config:(config 80) ~jobs:[ 1; 4 ]
  with
  | Error msg -> Alcotest.fail msg
  | Ok runs ->
      let o1 = List.assoc 1 runs
      and rep = (List.assoc 4 runs).Orch.fuzz_report in
      (* Worker accounting sanity. *)
      check Alcotest.int "4 workers" 4 (Array.length rep.Orch.r_workers);
      check Alcotest.int "work conservation"
        (Campaign.case_count
           (Option.get
              (Campaign.plan ~config:(config 80)
                 ~trace:recording.Manager.trace ~reason:R.Rdtsc
                 ~area:Mutation.Area_vmcs)))
        (Array.fold_left
           (fun a w -> a + w.Orch.w_executed)
           0 rep.Orch.r_workers);
      check Alcotest.bool "model wall positive" true
        (rep.Orch.r_model_wall_cycles > 0L);
      check Alcotest.bool "critical path never beats ideal" true
        (rep.Orch.r_model_wall_cycles
        >= Int64.div rep.Orch.r_model_busy_cycles 4L);
      check Alcotest.bool "jobs=4 wall no worse than jobs=1" true
        (rep.Orch.r_model_wall_cycles
        <= o1.Orch.fuzz_report.Orch.r_model_wall_cycles)

(* [cow.*] counts where a case rewinds: the sequential runner's probe
   hub and the merged worker hubs, whose probes attach only after S_R,
   report the same rewind footprints at any jobs count. *)
let test_cow_counters_match_sequential () =
  let m = mgr () in
  let recording = Manager.record m W.Cpu_bound ~exits:300 in
  let reason = R.Rdtsc and area = Mutation.Area_vmcs in
  let hub = Iris_telemetry.Hub.create () in
  Manager.set_hub m (Some hub);
  ignore
    (Campaign.run ~config:(config 80) ~manager:m ~recording ~reason ~area ()
      : Campaign.result option);
  let cow h =
    List.filter
      (fun (name, _) -> String.starts_with ~prefix:"cow." name)
      (Iris_telemetry.Hub.snapshot h)
  in
  let sequential = cow hub in
  let plan =
    Option.get
      (Campaign.plan ~config:(config 80) ~trace:recording.Manager.trace
         ~reason ~area)
  in
  check Alcotest.bool "cow.reverts = case count" true
    (List.assoc_opt "cow.reverts" sequential
    = Some (Registry.S_counter (Int64.of_int (Campaign.case_count plan))));
  List.iter
    (fun jobs ->
      let o =
        Option.get (Orch.fuzz ~jobs ~config:(config 80) ~recording ~reason ~area ())
      in
      check Alcotest.string
        (Printf.sprintf "cow.* at jobs=%d = Campaign.run" jobs)
        (digest sequential)
        (digest (cow o.Orch.fuzz_report.Orch.r_hub)))
    [ 1; 4 ]

(* The identity check behind every gate names the first label whose
   digest differs, so a failing gate says which jobs count or
   submission order broke. *)
let test_gate_same_names_first_difference () =
  check Alcotest.(result unit string) "equal digests pass" (Ok ())
    (Gate.same ~what:"report" [ ("jobs=1", "d0"); ("jobs=4", "d0") ]);
  let names label labelled =
    match Gate.same ~what:"report" labelled with
    | Ok () -> Alcotest.fail "unequal digests must fail"
    | Error msg ->
        check Alcotest.bool (msg ^ " names " ^ label) true
          (String.starts_with ~prefix:("report: " ^ label ^ " ") msg)
  in
  names "jobs=4" [ ("jobs=1", "d0"); ("jobs=4", "d1") ];
  names "jobs=2 reversed"
    [ ("jobs=1", "d0"); ("jobs=2", "d0"); ("jobs=2 reversed", "d1");
      ("jobs=4", "d2") ]

let test_fuzz_absent_reason () =
  let m = mgr () in
  let recording = Manager.record m W.Cpu_bound ~exits:200 in
  check Alcotest.bool "no HLT in cpu-bound" true
    (Orch.fuzz ~jobs:2 ~config:(config 10) ~recording ~reason:R.Hlt
       ~area:Mutation.Area_vmcs ()
    = None)

(* A dummy built on a used, even disabled, coverage store replays the
   recording exactly like one built on a fresh store: same outcomes,
   same coverage. *)
let test_dummy_on_reused_store () =
  let m = mgr () in
  let recording = Manager.record m W.Os_boot ~exits:150 in
  let seeds = recording.Manager.trace.Iris_core.Trace.seeds in
  let replay rep =
    let outcomes =
      Array.map
        (fun s ->
          match Iris_core.Replayer.submit rep s with
          | Iris_core.Replayer.Replayed -> "replayed"
          | Iris_core.Replayer.Vm_crashed msg -> "crashed: " ^ msg
          | exception Iris_hv.Ctx.Hypervisor_panic msg -> "panic: " ^ msg)
        seeds
    in
    let cov = (Iris_core.Replayer.ctx rep).Iris_hv.Ctx.cov in
    let hits =
      List.map
        (fun p -> (p, Iris_coverage.Cov.hits cov p))
        (Iris_coverage.Cov.Pset.elements (Iris_coverage.Cov.covered cov))
    in
    (outcomes, hits)
  in
  let fresh = replay (Orch.dummy ~recording ~name:"fresh") in
  let cov = Iris_coverage.Cov.create () in
  ignore (replay (Orch.dummy_on ~cov ~recording ~name:"first"));
  Iris_coverage.Cov.disable cov;
  let reused = replay (Orch.dummy_on ~cov ~recording ~name:"second") in
  check Alcotest.bool "coverage recorded" true (snd fresh <> []);
  check Alcotest.string "reused store = fresh store" (digest fresh) (digest reused)

let () =
  Alcotest.run "iris_orchestrator"
    [ ( "pool",
        [ QCheck_alcotest.to_alcotest prop_pool_every_index_once;
          Alcotest.test_case "inline jobs=1" `Quick
            test_pool_inline_executes_all;
          Alcotest.test_case "single worker in order" `Quick
            test_pool_single_worker_in_order;
          Alcotest.test_case "parallel jobs=4" `Quick
            test_pool_parallel_executes_all;
          Alcotest.test_case "panic containment" `Quick
            test_pool_panic_containment;
          Alcotest.test_case "empty" `Quick test_pool_empty;
          Alcotest.test_case "fewer tasks than workers" `Quick
            test_pool_fewer_tasks_than_workers;
          Alcotest.test_case "worker 0 on the caller" `Quick
            test_pool_caller_is_worker_zero;
          Alcotest.test_case "joins after worker 0 fails" `Quick
            test_pool_joins_after_caller_fails ] );
      ( "domain-safety",
        [ Alcotest.test_case "registries frozen" `Quick
            test_registries_frozen;
          Alcotest.test_case "concurrent domids" `Quick
            test_concurrent_domids_unique ] );
      ( "telemetry",
        [ Alcotest.test_case "merge commutes" `Quick
            test_registry_merge_commutes;
          Alcotest.test_case "cow counters match sequential" `Slow
            test_cow_counters_match_sequential ] );
      ( "determinism",
        [ Alcotest.test_case "fuzz jobs byte-identical" `Slow
            test_fuzz_jobs_byte_identical;
          Alcotest.test_case "gate names first difference" `Quick
            test_gate_same_names_first_difference;
          Alcotest.test_case "absent reason" `Slow test_fuzz_absent_reason;
          Alcotest.test_case "dummy on a reused store" `Quick
            test_dummy_on_reused_store ] ) ]
