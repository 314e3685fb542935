(* Tests for the parallel fuzzing orchestrator: the sharded
   work-stealing scheduler, the domain pool (panic containment and
   respawn), and — above all — the subsystem's determinism contract:
   merged campaign reports, telemetry snapshots and corpora must be
   byte-identical for any --jobs N. *)

module Shard = Iris_orchestrator.Shard
module Pool = Iris_orchestrator.Pool
module Orch = Iris_orchestrator.Orchestrator
module Mutation = Iris_fuzzer.Mutation
module Campaign = Iris_fuzzer.Campaign
module Guided = Iris_fuzzer.Guided
module Manager = Iris_core.Manager
module F = Iris_vmcs.Field
module Vmcb = Iris_svm.Vmcb
module R = Iris_vtx.Exit_reason
module W = Iris_guest.Workload
module Hub = Iris_telemetry.Hub
module Registry = Iris_telemetry.Registry

let check = Alcotest.check

(* Byte-identity oracle: two values are "byte-identical" when their
   marshalled representations digest equally. *)
let digest v = Digest.to_hex (Digest.string (Marshal.to_string v []))

(* --- Shard: the sharded deque scheduler --- *)

let test_shard_every_index_once () =
  let total = 103 and workers = 4 in
  let t = Shard.create ~total ~workers in
  let seen = Array.make total 0 in
  (* Single-threaded simulation: round-robin takes until all dry. *)
  let active = Array.make workers true in
  let live = ref workers in
  while !live > 0 do
    for w = 0 to workers - 1 do
      if active.(w) then
        match Shard.take t w with
        | Shard.Own i | Shard.Stolen i -> seen.(i) <- seen.(i) + 1
        | Shard.Empty ->
            active.(w) <- false;
            decr live
    done
  done;
  Array.iteri
    (fun i n -> check Alcotest.int (Printf.sprintf "index %d once" i) 1 n)
    seen;
  check Alcotest.int "nothing left" 0 (Shard.remaining t)

let test_shard_chunked_stealing () =
  (* Workers 1..3 never show up; worker 0 must drain the whole range,
     stealing chunks (not single tasks) from the idle shards. *)
  let t = Shard.create ~total:40 ~workers:4 in
  let own = ref 0 and stolen = ref 0 in
  let rec drain () =
    match Shard.take t 0 with
    | Shard.Own _ ->
        incr own;
        drain ()
    | Shard.Stolen _ ->
        incr stolen;
        drain ()
    | Shard.Empty -> ()
  in
  drain ();
  check Alcotest.int "all 40 executed" 40 (!own + !stolen);
  check Alcotest.bool "steals happened" true (!stolen >= 3);
  check Alcotest.bool "chunked: far fewer steals than tasks" true (!stolen < 20);
  check Alcotest.int "nothing left" 0 (Shard.remaining t)

let test_shard_single_worker () =
  let t = Shard.create ~total:5 ~workers:1 in
  let rec drain acc =
    match Shard.take t 0 with
    | Shard.Own i -> drain (i :: acc)
    | Shard.Stolen _ -> Alcotest.fail "nobody to steal from"
    | Shard.Empty -> List.rev acc
  in
  check Alcotest.(list int) "in order" [ 0; 1; 2; 3; 4 ] (drain [])

(* --- Pool: the worker pool --- *)

let squares jobs =
  Pool.run ~jobs ~total:50
    ~init:(fun w -> w)
    ~task:(fun _ i -> i * i)
    ~on_crash:(fun _ _ -> -1)

let test_pool_inline_executes_all () =
  let results, stats, who = squares 1 in
  check Alcotest.bool "all squares" true
    (results = Array.init 50 (fun i -> i * i));
  check Alcotest.int "one worker did everything" 50 stats.(0).Pool.executed;
  check Alcotest.bool "attribution" true (Array.for_all (( = ) 0) who)

let test_pool_parallel_executes_all () =
  let results, stats, who = squares 4 in
  check Alcotest.bool "all squares" true
    (results = Array.init 50 (fun i -> i * i));
  check Alcotest.int "work conservation" 50
    (Array.fold_left (fun a s -> a + s.Pool.executed) 0 stats);
  check Alcotest.bool "every task attributed" true
    (Array.for_all (fun w -> w >= 0 && w < 4) who)

let test_pool_panic_containment () =
  let boots = Atomic.make 0 in
  let results, stats, _ =
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
  let results, stats, who =
    Pool.run ~jobs:3 ~total:0 ~init:(fun w -> w)
      ~task:(fun _ i -> i) ~on_crash:(fun _ _ -> -1)
  in
  check Alcotest.int "no results" 0 (Array.length results);
  check Alcotest.int "no attribution" 0 (Array.length who);
  check Alcotest.int "nothing executed" 0
    (Array.fold_left (fun a s -> a + s.Pool.executed) 0 stats)

let test_pool_fewer_tasks_than_workers () =
  let results, stats, who =
    Pool.run ~jobs:4 ~total:2 ~init:(fun w -> w)
      ~task:(fun _ i -> 10 + i) ~on_crash:(fun _ _ -> -1)
  in
  check Alcotest.(array int) "every slot filled" [| 10; 11 |] results;
  check Alcotest.int "four workers reported" 4 (Array.length stats);
  check Alcotest.int "work conservation" 2
    (Array.fold_left (fun a s -> a + s.Pool.executed) 0 stats);
  check Alcotest.bool "who in range" true
    (Array.for_all (fun w -> w >= 0 && w < 4) who)

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
  (* The sequential oracle runs on the deep-copy full-restore path;
     the orchestrator's workers run on the COW rewind path — the
     merged report must be byte-identical anyway. *)
  let seq =
    Campaign.run ~snapshot_mode:Campaign.Full_restore ~config:(config 80)
      ~manager:m ~recording ~reason:R.Rdtsc ~area:Mutation.Area_vmcs ()
  in
  let orch jobs =
    Orch.fuzz ~jobs ~config:(config 80) ~recording ~reason:R.Rdtsc
      ~area:Mutation.Area_vmcs ()
  in
  match (seq, orch 1, orch 4) with
  | Some seq, Some o1, Some o4 ->
      (* The merged report is byte-identical to the sequential one and
         across job counts. *)
      check Alcotest.string "jobs=1 (cow) = sequential (full restore)"
        (digest seq)
        (digest o1.Orch.fuzz_result);
      check Alcotest.string "jobs=4 = jobs=1" (digest o1.Orch.fuzz_result)
        (digest o4.Orch.fuzz_result);
      (* Merged telemetry snapshots are byte-identical too. *)
      check Alcotest.string "merged telemetry identical"
        (digest (Hub.snapshot o1.Orch.fuzz_report.Orch.r_hub))
        (digest (Hub.snapshot o4.Orch.fuzz_report.Orch.r_hub));
      (* Worker accounting sanity. *)
      let rep = o4.Orch.fuzz_report in
      check Alcotest.int "4 workers" 4 (Array.length rep.Orch.r_workers);
      check Alcotest.int "work conservation"
        (Campaign.case_count
           (match
              Campaign.plan ~config:(config 80)
                ~trace:recording.Manager.trace ~reason:R.Rdtsc
                ~area:Mutation.Area_vmcs
            with
           | Some p -> p
           | None -> Alcotest.fail "plan exists"))
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
  | _ -> Alcotest.fail "rdtsc seeds exist"

let test_fuzz_absent_reason () =
  let m = mgr () in
  let recording = Manager.record m W.Cpu_bound ~exits:200 in
  check Alcotest.bool "no HLT in cpu-bound" true
    (Orch.fuzz ~jobs:2 ~config:(config 10) ~recording ~reason:R.Hlt
       ~area:Mutation.Area_vmcs ()
    = None)

let guided_config n =
  { Guided.default_config with Guided.iterations = n; prng_seed = 5 }

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

let test_guided_sweep_byte_identical () =
  let m = mgr () in
  let recording = Manager.record m W.Cpu_bound ~exits:300 in
  (* HLT is absent from CPU-bound: its cell must come back None and
     stay None for every job count. *)
  let reasons = [| R.Rdtsc; R.Hlt; R.Cpuid |] in
  let sweep jobs =
    Orch.guided_sweep ~jobs ~config:(guided_config 120) ~recording ~reasons ()
  in
  let s1 = sweep 1 and s3 = sweep 3 in
  check Alcotest.string "sweep results byte-identical (corpora included)"
    (digest s1.Orch.sweep_results)
    (digest s3.Orch.sweep_results);
  check Alcotest.string "merged telemetry identical"
    (digest (Hub.snapshot s1.Orch.sweep_report.Orch.r_hub))
    (digest (Hub.snapshot s3.Orch.sweep_report.Orch.r_hub));
  (* And equal to the plain sequential runner, reason by reason. *)
  let seq =
    Guided.run ~config:(guided_config 120) ~manager:m ~recording
      ~reason:R.Rdtsc
  in
  (match s1.Orch.sweep_results.(0) with
  | r, res ->
      check Alcotest.bool "reason preserved" true (r = R.Rdtsc);
      check Alcotest.string "sequential guided = sweep cell" (digest seq)
        (digest res));
  match s1.Orch.sweep_results.(1) with
  | _, None -> ()
  | _, Some _ -> Alcotest.fail "HLT must be absent"

let () =
  Alcotest.run "iris_orchestrator"
    [ ( "shard",
        [ Alcotest.test_case "every index once" `Quick
            test_shard_every_index_once;
          Alcotest.test_case "chunked stealing" `Quick
            test_shard_chunked_stealing;
          Alcotest.test_case "single worker" `Quick test_shard_single_worker ]
      );
      ( "pool",
        [ Alcotest.test_case "inline jobs=1" `Quick
            test_pool_inline_executes_all;
          Alcotest.test_case "parallel jobs=4" `Quick
            test_pool_parallel_executes_all;
          Alcotest.test_case "panic containment" `Quick
            test_pool_panic_containment;
          Alcotest.test_case "empty" `Quick test_pool_empty;
          Alcotest.test_case "fewer tasks than workers" `Quick
            test_pool_fewer_tasks_than_workers ] );
      ( "domain-safety",
        [ Alcotest.test_case "registries frozen" `Quick
            test_registries_frozen;
          Alcotest.test_case "concurrent domids" `Quick
            test_concurrent_domids_unique ] );
      ( "telemetry",
        [ Alcotest.test_case "merge commutes" `Quick
            test_registry_merge_commutes ] );
      ( "determinism",
        [ Alcotest.test_case "fuzz jobs byte-identical" `Slow
            test_fuzz_jobs_byte_identical;
          Alcotest.test_case "absent reason" `Slow test_fuzz_absent_reason;
          Alcotest.test_case "dummy on a reused store" `Quick
            test_dummy_on_reused_store;
          Alcotest.test_case "guided sweep byte-identical" `Slow
            test_guided_sweep_byte_identical ] ) ]
