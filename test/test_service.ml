(* Tests for the fuzzing-as-a-service layer: the DRR job queue, the
   corpus store's set-theoretic properties (dedup idempotence,
   coverage-preserving distillation), crash-triage bucketing, the wire
   protocol, and — the tentpole contract — schedule-order independence
   of a drained queue's merged report plus replay-from-corpus
   byte-identity. *)

module Jobspec = Iris_service.Jobspec
module Jobqueue = Iris_service.Jobqueue
module Corpus = Iris_service.Corpus
module Triage = Iris_service.Triage
module Server = Iris_service.Server
module Wire = Iris_service.Wire
module Campaign = Iris_fuzzer.Campaign
module Mutation = Iris_fuzzer.Mutation
module Provenance = Iris_inspect.Provenance
module Manager = Iris_core.Manager
module Seed = Iris_core.Seed
module J = Iris_telemetry.Json
module Export = Iris_telemetry.Export
module Registry = Iris_telemetry.Registry
module R = Iris_vtx.Exit_reason
module W = Iris_guest.Workload
module Gpr = Iris_x86.Gpr
module F = Iris_vmcs.Field
module Cov = Iris_coverage.Cov
module Bisect = Iris_inspect.Bisect
module Orchestrator = Iris_orchestrator.Orchestrator
module Gate = Iris_scenario.Gate

let check = Alcotest.check

(* --- Jobqueue: deficit round-robin --- *)

(* Simulate a drain where every pick consumes its full budget, and
   measure per-tenant service while both tenants still have work:
   consumption must track the 3:1 weight ratio. *)
let test_drr_fairness () =
  let q = Jobqueue.create ~quantum:100 () in
  Jobqueue.submit q ~id:1 ~tenant:"alice" ~weight:3;
  Jobqueue.submit q ~id:2 ~tenant:"bob" ~weight:1;
  let remaining = Hashtbl.create 4 in
  Hashtbl.replace remaining 1 50_000;
  Hashtbl.replace remaining 2 50_000;
  let served = Hashtbl.create 4 in
  Hashtbl.replace served 1 0;
  Hashtbl.replace served 2 0;
  let rounds = ref 0 in
  while (not (Jobqueue.is_idle q)) && !rounds < 10_000 do
    incr rounds;
    let picks = Jobqueue.next q ~max:2 in
    List.iter
      (fun (id, budget) ->
        let rem = Hashtbl.find remaining id in
        let eat = min budget rem in
        Hashtbl.replace remaining id (rem - eat);
        Hashtbl.replace served id (Hashtbl.find served id + eat);
        Jobqueue.complete q ~id ~consumed:eat ~finished:(rem - eat = 0))
      picks;
    (* stop measuring once either job drained *)
    if Hashtbl.find remaining 1 = 0 || Hashtbl.find remaining 2 = 0 then begin
      Hashtbl.replace remaining 1 0;
      Hashtbl.replace remaining 2 0;
      (* flush any jobs still queued *)
      let rec flush () =
        match Jobqueue.next q ~max:2 with
        | [] -> if not (Jobqueue.is_idle q) then flush ()
        | picks ->
            List.iter
              (fun (id, _) ->
                Jobqueue.complete q ~id ~consumed:0 ~finished:true)
              picks;
            flush ()
      in
      flush ()
    end
  done;
  let a = float_of_int (Hashtbl.find served 1) in
  let b = float_of_int (Hashtbl.find served 2) in
  Alcotest.(check bool) "both tenants served" true (a > 0.0 && b > 0.0);
  let ratio = a /. b in
  if ratio < 2.0 || ratio > 4.5 then
    Alcotest.failf "weight-3 tenant got %.2fx the weight-1 tenant" ratio

let test_queue_cancel_defer () =
  let q = Jobqueue.create ~quantum:10 () in
  Jobqueue.submit q ~id:1 ~tenant:"a" ~weight:1;
  Jobqueue.submit q ~id:2 ~tenant:"a" ~weight:1;
  Alcotest.(check bool) "cancel queued" true (Jobqueue.cancel q 2);
  Alcotest.(check bool) "cancel gone" false (Jobqueue.cancel q 2);
  (match Jobqueue.next q ~max:4 with
  | [ (1, _) ] -> ()
  | picks -> Alcotest.failf "expected pick of job 1, got %d picks" (List.length picks));
  Alcotest.(check bool) "in flight not cancellable at queue level" false
    (Jobqueue.cancel q 1);
  Jobqueue.defer q 1 ~rounds:3;
  Jobqueue.complete q ~id:1 ~consumed:5 ~finished:false;
  check Alcotest.(list (pair int int)) "deferred job yields no picks" []
    (Jobqueue.next q ~max:4);
  ignore (Jobqueue.next q ~max:4 : (int * int) list);
  (* deferral expires after the requested rounds *)
  (match Jobqueue.next q ~max:4 with
  | [ (1, _) ] -> ()
  | _ -> Alcotest.fail "deferred job should be eligible again");
  Jobqueue.complete q ~id:1 ~consumed:0 ~finished:true;
  Alcotest.(check bool) "idle after drain" true (Jobqueue.is_idle q)

(* --- Triage --- *)

let test_normalize_detail () =
  check Alcotest.string "hex run" "bad RIP 0x# for mode #"
    (Triage.normalize_detail "bad RIP 0x3fe4a for mode 0");
  check Alcotest.string "decimal runs" "entry failure # (code #)"
    (Triage.normalize_detail "entry failure 33 (code 2047)");
  check Alcotest.string "no digits" "triple fault"
    (Triage.normalize_detail "triple fault")

let prop_signature_digit_blind =
  QCheck.Test.make ~name:"signatures blind to embedded numbers" ~count:200
    QCheck.(pair small_nat small_nat)
    (fun (a, b) ->
      let detail n = Printf.sprintf "bad RIP 0x%x for mode %d" n (n mod 7) in
      let span = [| 3; 17; 99 |] in
      Triage.signature ~failure:Campaign.Vm_crash ~reason:R.Rdtsc ~span
        ~detail:(detail a)
      = Triage.signature ~failure:Campaign.Vm_crash ~reason:R.Rdtsc ~span
          ~detail:(detail b))

let test_triage_rep_order_independent () =
  let crash key case =
    { Triage.c_spec_key = key;
      c_case = case;
      c_reason = R.Rdtsc;
      c_failure = Campaign.Vm_crash;
      c_detail = "bad RIP 0x10";
      c_span = [| 1; 2 |];
      c_devices = [] }
  in
  let minimize_tag tag () =
    Some
      { Triage.r_digest = tag; r_seeds = 1; r_deterministic = true;
        r_attempts = 0 }
  in
  let t1 = Triage.create () in
  ignore (Triage.note t1 (crash "aa" 5) ~minimize:(minimize_tag "rep-aa5"));
  ignore (Triage.note t1 (crash "bb" 1) ~minimize:(minimize_tag "rep-bb1"));
  let t2 = Triage.create () in
  ignore (Triage.note t2 (crash "bb" 1) ~minimize:(minimize_tag "rep-bb1"));
  ignore (Triage.note t2 (crash "aa" 5) ~minimize:(minimize_tag "rep-aa5"));
  check Alcotest.string "same buckets either order"
    (J.to_string (Triage.to_json t1))
    (J.to_string (Triage.to_json t2));
  (match Triage.buckets t1 with
  | [ b ] -> (
      check Alcotest.int "both crashes counted" 2 b.Triage.b_count;
      check Alcotest.string "smallest (key, case) is representative" "aa"
        b.Triage.b_rep.Triage.c_spec_key;
      match b.Triage.b_repro with
      | Some r -> check Alcotest.string "repro follows representative" "rep-aa5"
                    r.Triage.r_digest
      | None -> Alcotest.fail "expected a repro")
  | bs -> Alcotest.failf "expected one bucket, got %d" (List.length bs))

(* --- Corpus properties --- *)

let mk_seed idx v =
  { Seed.index = idx;
    reason = R.Rdtsc;
    gprs = [ (Gpr.Rax, Int64.of_int v); (Gpr.Rbx, 7L) ];
    reads = [ (F.all.(v mod F.count), Int64.of_int (v * 3)) ];
    writes = [] }

let meta =
  { Corpus.m_workload = W.Cpu_bound;
    m_exits = 300;
    m_prng_seed = 21;
    m_boot_scale = 0.02;
    m_seed_index = 17 }

let mk_entry (idx, v, points) =
  let span =
    List.fold_left
      (fun acc p ->
        match Cov.point_of_int p with
        | Some pt -> Cov.Pset.add pt acc
        | None -> acc)
      Cov.Pset.empty points
  in
  Corpus.entry ~meta ~seed:(mk_seed idx v) ~span
    ~digest:(Printf.sprintf "d%04x" (idx * 31 + v))

let arb_entries =
  QCheck.make
    QCheck.Gen.(
      list_size (int_range 0 30)
        (let* idx = int_bound 50 in
         let* v = int_bound 50 in
         let+ points = list_size (int_range 0 8) (int_range 1 200) in
         (idx, v, points)))

let store_of specs =
  let t = Corpus.create () in
  List.iter (fun s -> ignore (Corpus.add t (mk_entry s) : bool)) specs;
  t

let prop_dedup_idempotent =
  QCheck.Test.make ~name:"corpus dedup is idempotent" ~count:100 arb_entries
    (fun specs ->
      let once = store_of specs in
      let twice = store_of (specs @ specs) in
      Corpus.count once = Corpus.count twice
      && Corpus.digest once = Corpus.digest twice)

let prop_distill_preserves_coverage =
  QCheck.Test.make ~name:"distillation preserves total coverage" ~count:100
    arb_entries
    (fun specs ->
      let t = store_of specs in
      let cov_before = Corpus.coverage t in
      let before, after = Corpus.distill t in
      let cov_after = Corpus.coverage t in
      before >= after && cov_before = cov_after)

let prop_distill_idempotent =
  QCheck.Test.make ~name:"distillation is idempotent" ~count:100 arb_entries
    (fun specs ->
      let t = store_of specs in
      ignore (Corpus.distill t : int * int);
      let d1 = Corpus.digest t in
      let _, after1 = Corpus.distill t in
      d1 = Corpus.digest t && after1 = Corpus.count t)

let prop_save_load_roundtrip =
  QCheck.Test.make ~name:"corpus save/load round-trips" ~count:50 arb_entries
    (fun specs ->
      let t = store_of specs in
      let path = Filename.temp_file "iris_corpus" ".json" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          Corpus.save t ~path;
          match Corpus.load ~path with
          | Ok t' -> Corpus.digest t = Corpus.digest t'
          | Error e -> QCheck.Test.fail_report e))

(* [Corpus.save] replaces the file whole: a reader that opened the old
   document keeps reading all of it, and no temporary file is left
   beside the target. *)
let test_save_atomic () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "iris-atomic-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat dir "corpus.json" in
  let old_store = store_of [ (1, 1, [ 3 ]) ] in
  let new_store = store_of [ (2, 5, [ 4; 9 ]); (7, 8, [ 11 ]) ] in
  Corpus.save old_store ~path;
  let read_all ic =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> In_channel.input_all ic)
  in
  let old_doc = read_all (open_in_bin path) in
  let reader = open_in_bin path in
  Corpus.save new_store ~path;
  check Alcotest.string "old channel reads the old document" old_doc
    (read_all reader);
  (match Corpus.load ~path with
  | Ok t ->
      check Alcotest.string "load returns the new store"
        (Corpus.digest new_store) (Corpus.digest t)
  | Error e -> Alcotest.fail e);
  check
    Alcotest.(array string)
    "no temporary file remains" [| "corpus.json" |] (Sys.readdir dir);
  Sys.remove path;
  Unix.rmdir dir

(* --- Wire protocol --- *)

let spec_a =
  Jobspec.make ~tenant:"alice" ~priority:3 ~boot_scale:0.02
    ~workload:W.Cpu_bound ~exits:300 ~reason:R.Rdtsc ~area:Mutation.Area_gpr
    ~mutations:90 ~prng_seed:21 ()

let spec_b =
  Jobspec.make ~tenant:"bob" ~priority:1 ~boot_scale:0.02
    ~workload:W.Cpu_bound ~exits:300 ~reason:R.Cpuid ~area:Mutation.Area_vmcs
    ~mutations:60 ~prng_seed:21 ()

let test_wire_roundtrip () =
  let reqs =
    [ Wire.Submit spec_a;
      Wire.Status;
      Wire.Cancel 3;
      Wire.Drain;
      Wire.Verify;
      Wire.Corpus_stats;
      Wire.Distill;
      Wire.Corpus_save "/tmp/c.json";
      Wire.Corpus_load "/tmp/c.json";
      Wire.Shutdown ]
  in
  List.iter
    (fun r ->
      match Wire.request_of_line (Wire.request_to_line r) with
      | Ok r' ->
          check Alcotest.string "request round-trips"
            (Wire.request_to_line r) (Wire.request_to_line r')
      | Error e -> Alcotest.failf "round-trip failed: %s" e)
    reqs

let test_jobspec_key_content_derived () =
  let a1 = Jobspec.key spec_a in
  let a2 =
    Jobspec.key
      (Jobspec.make ~tenant:"alice" ~priority:3 ~boot_scale:0.02
         ~workload:W.Cpu_bound ~exits:300 ~reason:R.Rdtsc
         ~area:Mutation.Area_gpr ~mutations:90 ~prng_seed:21 ())
  in
  check Alcotest.string "equal specs share a key" a1 a2;
  Alcotest.(check bool) "distinct specs differ" false
    (Jobspec.key spec_a = Jobspec.key spec_b)

let test_status_line_shape () =
  let reg = Registry.create () in
  Registry.incr (Registry.counter reg "service.rounds");
  let line =
    Export.status_line ~extra:[ ("corpus", J.Int 4) ] ~seq:7
      (Registry.snapshot reg)
  in
  match J.of_string line with
  | Error e -> Alcotest.failf "status line is not JSON: %s" e
  | Ok j ->
      check Alcotest.(option int) "seq" (Some 7)
        (Option.bind (J.member "seq" j) J.int_value);
      check Alcotest.(option int) "extra field" (Some 4)
        (Option.bind (J.member "corpus" j) J.int_value);
      Alcotest.(check bool) "metrics present" true
        (J.member "metrics" j <> None)

(* --- The tentpole: end-to-end determinism of a drained queue --- *)

(* One shared recording cache: the scenario records once, every
   server replays from the same recording — which is also how the
   long-lived daemon amortises recording cost. *)
let shared_cache = Server.recordings ()

(* Gate.serve at test size: jobs 1 and 2 in order, jobs 2 reversed. *)
let serve_gate =
  lazy
    (match
       Gate.serve ~recordings:shared_cache ~quantum:24 ~jobs:[ 1; 2 ]
         [ spec_a; spec_b ]
     with
    | Ok facts -> facts
    | Error msg -> Alcotest.fail msg)

(* --- Decoders on corrupted input --- *)

(* Two real encodings: a [Submit] wire line and the corpus document
   that [serve_gate]'s first drain admitted. *)
let real_encodings =
  lazy
    (let drain = List.hd (Lazy.force serve_gate).Gate.drains in
     [| Wire.request_to_line (Wire.Submit spec_a);
        J.to_string (Corpus.to_json (Server.corpus drain.Gate.server)) |])

(* Bit flips, a truncation, or the prefix of one encoding spliced onto
   the suffix of the other. *)
let corrupted =
  let open QCheck.Gen in
  let pick = map (fun i -> (Lazy.force real_encodings).(i)) (int_bound 1) in
  let flips s =
    let* flips =
      list_size (1 -- 8) (pair (int_bound (String.length s - 1)) (int_bound 7))
    in
    let b = Bytes.of_string s in
    List.iter
      (fun (i, bit) ->
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit))))
      flips;
    return (Bytes.to_string b)
  in
  let truncate s = map (String.sub s 0) (int_bound (String.length s)) in
  let splice a b =
    map2
      (fun i j -> String.sub a 0 i ^ String.sub b j (String.length b - j))
      (int_bound (String.length a))
      (int_bound (String.length b))
  in
  QCheck.make ~print:String.escaped
    (frequency
       [ (3, pick >>= flips);
         (1, pick >>= truncate);
         (1, pick >>= fun a -> pick >>= splice a) ])

(* Each decoder answers [Ok] or [Error]; an exception fails the test. *)
let decodes_totally s =
  let total = function Ok _ | Error _ -> true in
  total (Wire.request_of_line s)
  &&
  match J.of_string s with
  | Error _ -> true
  | Ok j ->
      total (Corpus.of_json j)
      && total (Jobspec.of_json j)
      && Option.fold ~none:true ~some:(fun spec -> total (Jobspec.of_json spec))
           (J.member "spec" j)

let prop_decoders_total =
  QCheck.Test.make ~name:"decoders never raise" ~count:500 corrupted
    decodes_totally

(* An entry whose points are not all integers, or not a list, is an
   error: dropping them would load the entry with other coverage. *)
let test_corpus_points_malformed () =
  let doc = Corpus.to_json (store_of [ (1, 1, [ 3; 5 ]) ]) in
  let rec with_points bad = function
    | J.Obj kvs ->
        J.Obj
          (List.map
             (fun (k, v) ->
               (k, if k = "points" then bad else with_points bad v))
             kvs)
    | J.List l -> J.List (List.map (with_points bad) l)
    | j -> j
  in
  Alcotest.(check bool) "well-formed document loads" true
    (Result.is_ok (Corpus.of_json doc));
  List.iter
    (fun (what, bad) ->
      Alcotest.(check bool) what true
        (Result.is_error (Corpus.of_json (with_points bad doc))))
    [ ("non-integer point", J.List [ J.Int 3; J.String "5" ]);
      ("non-list points", J.Int 3) ]

let test_server_report_schedule_independent () =
  let drains = (Lazy.force serve_gate).Gate.drains in
  (* identical campaigns on every server admit an identical corpus *)
  List.iter
    (fun d ->
      check Alcotest.string ("corpus digest " ^ d.Gate.label)
        (Corpus.digest (Server.corpus (List.hd drains).Gate.server))
        (Corpus.digest (Server.corpus d.Gate.server)))
    drains;
  Alcotest.(check bool) "corpus not empty" true
    (Corpus.count (Server.corpus (List.hd drains).Gate.server) > 0)

let test_server_replay_from_corpus () =
  let facts = Lazy.force serve_gate in
  let live =
    Server.corpus
      (List.find (fun d -> d.Gate.label = "jobs=2") facts.Gate.drains)
        .Gate.server
  in
  Alcotest.(check bool) "corpus entries checked" true
    (facts.Gate.verify.Server.v_corpus_checked >= Corpus.count live);
  (* distillation never loses coverage on the real store's entries
     either (on a copy: the other server tests read the live store) *)
  let store = Corpus.create () in
  ignore (Corpus.merge_from store live : int);
  let before, after = Corpus.distill store in
  Alcotest.(check bool) "distillation reduced or kept" true (after <= before);
  check
    Alcotest.(list int)
    "distillation preserved live coverage"
    (Array.to_list (Corpus.coverage live))
    (Array.to_list (Corpus.coverage store))

(* Every case a job's universe runs rewinds once to S_R, and the job's
   probe, attached after the anchor was pinned, counts each rewind. *)
let test_server_counts_cow_rewinds () =
  List.iter
    (fun d ->
      let snap = Iris_telemetry.Hub.snapshot (Server.hub d.Gate.server) in
      let counter name =
        match List.assoc_opt name snap with
        | Some (Registry.S_counter n) -> n
        | _ -> 0L
      in
      check Alcotest.int64 ("no respawns " ^ d.Gate.label) 0L
        (counter "service.respawns");
      check Alcotest.bool ("cases ran " ^ d.Gate.label) true
        (counter "service.cases" > 0L);
      check Alcotest.int64
        ("cow.reverts = service.cases " ^ d.Gate.label)
        (counter "service.cases") (counter "cow.reverts"))
    (Lazy.force serve_gate).Gate.drains

(* A job whose modeled-cycle budget runs out drains to [timed-out], and
   the report carries how far it got.  The budget is checked against
   the cumulative case cycles in case order, so quantum boundaries,
   pool width and submission order cannot move the case it stops at. *)
let test_server_timeout () =
  let budget = 5_000_000L in
  let timed =
    Jobspec.make ~tenant:"erin" ~priority:1 ~boot_scale:0.02
      ~timeout_cycles:budget ~workload:W.Cpu_bound ~exits:300
      ~reason:R.Rdtsc ~area:Mutation.Area_gpr ~mutations:90 ~prng_seed:21 ()
  in
  let report ~jobs specs =
    let server = Server.create ~jobs ~quantum:24 ~recordings:shared_cache () in
    List.iter (fun s -> ignore (Server.submit server s : int)) specs;
    ignore (Server.drain server : Server.drain_summary);
    J.to_string (Server.report server)
  in
  let first = report ~jobs:1 [ spec_a; timed ] in
  List.iter
    (fun (label, r) -> check Alcotest.string label first r)
    [ ("jobs=2", report ~jobs:2 [ spec_a; timed ]);
      ("jobs=2 reversed", report ~jobs:2 [ timed; spec_a ]) ];
  let job =
    match J.of_string first with
    | Error e -> Alcotest.fail e
    | Ok doc ->
        Option.get (J.member "jobs" doc)
        |> J.to_list
        |> List.find (fun j ->
               J.member "key" j = Some (J.String (Jobspec.key timed)))
  in
  let field path =
    List.fold_left (fun j k -> Option.bind j (J.member k)) (Some job) path
  in
  check Alcotest.string "status" {|["timed-out"]|}
    (J.to_string (Option.get (field [ "statuses" ])));
  check Alcotest.bool "no result" true (field [ "result" ] = Some J.Null);
  let int path = Option.get (Option.bind (field path) J.int_value) in
  let executed = int [ "partial"; "executed" ] in
  (* past the first 24-case quantum, short of the baseline case plus
     90 mutants *)
  check Alcotest.bool "partial run" true (executed > 24 && executed < 91);
  check Alcotest.bool "cycles reached the budget" true
    (Int64.of_int (int [ "partial"; "cycles" ]) >= budget)

(* Every way a job ends, driven one job at a time through one server:
   each ending sets its status and moves exactly one [service.jobs_*]
   counter, and a drained server has nothing left to step. *)
let test_server_job_endings () =
  let server = Server.create ~jobs:1 ~quantum:24 ~recordings:shared_cache () in
  let tallies () =
    let snap = Iris_telemetry.Hub.snapshot (Server.hub server) in
    List.filter_map
      (fun (name, v) ->
        match v with
        | Registry.S_counter n
          when String.starts_with ~prefix:"service.jobs_" name
               && name <> "service.jobs_submitted" ->
            Some (name, n)
        | _ -> None)
      snap
  in
  let status id =
    (List.find (fun ji -> ji.Server.ji_id = id) (Server.job_infos server))
      .Server.ji_status
  in
  let until_ended id =
    while
      (match status id with Server.Queued | Server.Running -> true | _ -> false)
      && Server.step server
    do
      ()
    done
  in
  let ends label spec ~status:want ~counter act =
    let id = Server.submit server spec in
    let before = tallies () in
    act id;
    Alcotest.(check bool) (label ^ ": status") true (status id = want);
    let moved =
      List.filter_map
        (fun (name, n) ->
          let was = Option.value (List.assoc_opt name before) ~default:0L in
          if n <> was then Some (name, Int64.sub n was) else None)
        (tallies ())
    in
    check
      Alcotest.(list (pair string int64))
      (label ^ ": one counter moved") [ (counter, 1L) ] moved
  in
  let long = { spec_a with Jobspec.priority = 1 } in
  ends "completion" spec_b ~status:Server.Completed
    ~counter:"service.jobs_completed" until_ended;
  ends "queued cancel" long ~status:Server.Cancelled
    ~counter:"service.jobs_cancelled" (fun id ->
      Alcotest.(check bool) "cancel accepted" true (Server.cancel server id));
  ends "running cancel" long ~status:Server.Cancelled
    ~counter:"service.jobs_cancelled" (fun id ->
      Alcotest.(check bool) "stepped" true (Server.step server);
      Alcotest.(check bool) "running after one quantum" true
        (status id = Server.Running);
      Alcotest.(check bool) "cancel accepted" true (Server.cancel server id);
      until_ended id);
  ends "no seed" { long with Jobspec.reason = R.Xsetbv } ~status:Server.No_seed
    ~counter:"service.jobs_no_seed" until_ended;
  ends "timeout"
    { long with Jobspec.timeout_cycles = Some 5_000_000L }
    ~status:Server.Timed_out ~counter:"service.jobs_timed_out" until_ended;
  ignore (Server.drain server : Server.drain_summary);
  Alcotest.(check bool) "idle after drain" false (Server.step server)

let test_wire_pipe_session () =
  let server = Server.create ~jobs:1 ~quantum:24 ~recordings:shared_cache () in
  let submit =
    J.to_string
      (J.Obj [ ("cmd", J.String "submit"); ("spec", Jobspec.to_json spec_a) ])
  in
  let r1, stop1 = Wire.handle_line server submit in
  Alcotest.(check bool) "submit ok" true (Wire.response_ok r1);
  Alcotest.(check bool) "submit continues" false stop1;
  let r2, _ = Wire.handle_line server {|{"cmd":"drain"}|} in
  Alcotest.(check bool) "drain ok" true (Wire.response_ok r2);
  let r3, _ = Wire.handle_line server {|{"cmd":"corpus"}|} in
  Alcotest.(check bool) "corpus ok" true (Wire.response_ok r3);
  let r4, _ = Wire.handle_line server {|{"nonsense":1}|} in
  Alcotest.(check bool) "parse error not ok" false (Wire.response_ok r4);
  let r5, stop5 = Wire.handle_line server {|{"cmd":"shutdown"}|} in
  Alcotest.(check bool) "shutdown ok" true (Wire.response_ok r5);
  Alcotest.(check bool) "shutdown stops" true stop5

(* A saved corpus is untrusted input: an entry whose seed index is
   negative is refused on load, one whose index lies past its recorded
   trace is a verify mismatch, and neither raises out of the wire. *)
let test_loaded_corpus_cannot_kill () =
  let path = Filename.temp_file "iris-corpus" ".json" in
  let save seed_index =
    let store = Corpus.create () in
    let entry =
      Corpus.entry
        ~meta:{ meta with Corpus.m_seed_index = seed_index }
        ~seed:(mk_seed 0 1) ~span:Cov.Pset.empty ~digest:"d0000"
    in
    ignore (Corpus.add store entry : bool);
    Corpus.save store ~path
  in
  let server = Server.create ~jobs:1 ~quantum:24 ~recordings:shared_cache () in
  let request r = fst (Wire.handle_line server (Wire.request_to_line r)) in
  save (-1);
  Alcotest.(check bool) "negative seed_index refused" false
    (Wire.response_ok (request (Wire.Corpus_load path)));
  Alcotest.(check bool) "verify after the refusal" true
    (Wire.response_ok (request Wire.Verify));
  save 5000;
  Alcotest.(check bool) "index past the trace loads" true
    (Wire.response_ok (request (Wire.Corpus_load path)));
  Sys.remove path;
  let verify = request Wire.Verify in
  Alcotest.(check bool) "verify fails" false (Wire.response_ok verify);
  let field k =
    Option.bind
      (Result.to_option (J.of_string verify))
      (fun j -> Option.bind (J.member k j) J.int_value)
  in
  Alcotest.(check (option int)) "checked" (Some 1) (field "corpus_checked");
  Alcotest.(check (option int)) "counted as a mismatch" (Some 1)
    (field "corpus_mismatches")

(* Run [f call] against a socket daemon on its own domain, then join
   it: [f] must end with a shutdown.  A daemon that died mid-test
   leaves its listening socket open, and a later call would wait
   forever in its backlog, as would a call behind a daemon stalled on
   another client: SIGALRM's default action fails the test instead. *)
let with_socket_daemon name f =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "iris-%s-%d.sock" name (Unix.getpid ()))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  ignore (Unix.alarm 60 : int);
  let server = Server.create ~jobs:1 ~quantum:24 ~recordings:shared_cache () in
  let daemon = Domain.spawn (fun () -> Wire.serve_socket server ~path) in
  (* the daemon binds the socket on its own domain: retry until then *)
  let rec call ?(tries = 0) line =
    match Wire.call ~path line with
    | Ok resp -> resp
    | Error _ when tries > 0 ->
        Unix.sleepf 0.01;
        call ~tries:(tries - 1) line
    | Error e -> Alcotest.failf "%s: %s" line e
  in
  f ~path call;
  ignore (Domain.join daemon : bool);
  ignore (Unix.alarm 0 : int)

(* A client that sends a drain and hangs up before reading the answer
   costs only that answer: the daemon goes on serving the next
   clients. *)
let test_socket_survives_hang_up () =
  with_socket_daemon "wire" (fun ~path call ->
      let submit =
        J.to_string
          (J.Obj
             [ ("cmd", J.String "submit"); ("spec", Jobspec.to_json spec_a) ])
      in
      Alcotest.(check bool) "submit ok" true
        (Wire.response_ok (call ~tries:500 submit));
      let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect sock (Unix.ADDR_UNIX path);
      let drain = Bytes.of_string "{\"cmd\":\"drain\"}\n" in
      ignore (Unix.write sock drain 0 (Bytes.length drain) : int);
      Unix.close sock;
      Alcotest.(check bool) "status after the hang-up" true
        (Wire.response_ok (call {|{"cmd":"status"}|}));
      Alcotest.(check bool) "shutdown after the hang-up" true
        (Wire.response_ok (call {|{"cmd":"shutdown"}|})))

(* The socket relay and the pipe answer the same lines alike: through
   the daemon, a drain's report digest and the corpus answer equal those
   of a pipe session on a fresh server.  A relay to a path with no
   daemon returns false instead of raising. *)
let test_socket_relay_matches_pipe () =
  let lines =
    List.map Wire.request_to_line
      [ Wire.Submit spec_a; Wire.Drain; Wire.Corpus_stats; Wire.Shutdown ]
  in
  (* run [transport] over [lines] through temporary files *)
  let session transport =
    let inp = Filename.temp_file "iris-session" ".jsonl" in
    let out = Filename.temp_file "iris-session" ".out" in
    Out_channel.with_open_bin inp (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) lines);
    let ok =
      In_channel.with_open_bin inp (fun ic ->
          Out_channel.with_open_bin out (fun oc -> transport ic oc))
    in
    let resps = In_channel.with_open_bin out In_channel.input_all in
    Sys.remove inp;
    Sys.remove out;
    (ok, String.split_on_char '\n' (String.trim resps))
  in
  let digest = function
    | [ _; drain; _; _ ] ->
        Option.bind (Result.to_option (J.of_string drain)) (fun j ->
            Option.bind (J.member "report_digest" j) J.string_value)
    | _ -> None
  in
  let corpus = function [ _; _; c; _ ] -> c | _ -> "" in
  let relayed = ref (false, []) in
  with_socket_daemon "relay" (fun ~path call ->
      (* wait for the daemon to bind before relaying *)
      ignore (call ~tries:500 {|{"cmd":"status"}|} : string);
      relayed := session (Wire.relay ~path));
  let relay_ok, relayed = !relayed in
  check Alcotest.bool "every relayed response ok" true relay_ok;
  check Alcotest.int "one response per line" 4 (List.length relayed);
  let server = Server.create ~jobs:1 ~quantum:24 ~recordings:shared_cache () in
  let pipe_ok, piped = session (Wire.serve_pipe server) in
  check Alcotest.bool "every piped response ok" true pipe_ok;
  check Alcotest.bool "drain has a report digest" true (digest relayed <> None);
  check Alcotest.(option string) "drain report digest" (digest piped)
    (digest relayed);
  check Alcotest.string "corpus response" (corpus piped) (corpus relayed);
  let nowhere =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "iris-nowhere-%d.sock" (Unix.getpid ()))
  in
  let ok, resps = session (Wire.relay ~path:nowhere) in
  check Alcotest.bool "no daemon: relay returns false" false ok;
  check Alcotest.int "no daemon: one answer, then the relay ends" 1
    (List.length resps)

(* A client that connects and sends nothing is dropped at its receive
   deadline: the other clients are served while it stays connected. *)
let test_socket_survives_silent_client () =
  with_socket_daemon "silent" (fun ~path call ->
      Alcotest.(check bool) "status before" true
        (Wire.response_ok (call ~tries:500 {|{"cmd":"status"}|}));
      let silent = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect silent (Unix.ADDR_UNIX path);
      Alcotest.(check bool) "status beside a silent client" true
        (Wire.response_ok (call {|{"cmd":"status"}|}));
      Alcotest.(check bool) "shutdown beside a silent client" true
        (Wire.response_ok (call {|{"cmd":"shutdown"}|}));
      Unix.close silent)

(* --- Pooled bisection --- *)

let vmcs_spec ~tenant ~reason ~prng_seed =
  Jobspec.make ~tenant ~priority:1 ~boot_scale:0.02 ~workload:W.Cpu_bound
    ~exits:300 ~reason ~area:Mutation.Area_vmcs ~mutations:60 ~prng_seed ()

(* VMCS mutants crash often, and each reason's campaign is run by two
   tenants over different recordings: their crashes share buckets but
   bisect to different reproducers.  One head job per tenant is picked
   a round, so at jobs > 1 the two tenants' jobs finish in the same
   round and a representative can be replaced within it. *)
let crash_specs =
  [ vmcs_spec ~tenant:"carol" ~reason:R.Cpuid ~prng_seed:21;
    vmcs_spec ~tenant:"dave" ~reason:R.Cpuid ~prng_seed:22;
    vmcs_spec ~tenant:"carol" ~reason:R.Rdtsc ~prng_seed:21;
    vmcs_spec ~tenant:"dave" ~reason:R.Rdtsc ~prng_seed:22 ]

(* Drain one round at a time (a quantum this large finishes a job per
   pick) and return the signatures of buckets whose representative a
   later round replaced. *)
let drain_tracking_reps ~jobs specs =
  let server = Server.create ~jobs ~quantum:512 ~recordings:shared_cache () in
  List.iter (fun s -> ignore (Server.submit server s : int)) specs;
  let reps () =
    List.map
      (fun b -> (b.Triage.b_signature, b.Triage.b_rep))
      (Triage.buckets (Server.triage server))
  in
  let replaced = ref [] and seen = ref [] in
  while Server.step server do
    let now = reps () in
    List.iter
      (fun (s, rep) ->
        match List.assoc_opt s !seen with
        | Some old when old != rep -> replaced := s :: !replaced
        | Some _ | None -> ())
      now;
    seen := now
  done;
  (server, List.sort_uniq compare !replaced)

let test_pooled_bisection_deterministic () =
  let by_key = List.sort (fun a b -> compare (Jobspec.key a) (Jobspec.key b)) in
  let ascending = by_key crash_specs in
  let drains =
    List.concat_map
      (fun jobs ->
        [ drain_tracking_reps ~jobs ascending;
          drain_tracking_reps ~jobs (List.rev ascending) ])
      [ 1; 3 ]
  in
  let triage_json (s, _) = J.to_string (Triage.to_json (Server.triage s)) in
  List.iter
    (fun d ->
      check Alcotest.string "triage bytes independent of jobs and order"
        (triage_json (List.hd drains))
        (triage_json d))
    drains;
  let buckets = Triage.buckets (Server.triage (fst (List.hd drains))) in
  Alcotest.(check bool) "crashes were bucketed" true (buckets <> []);
  List.iter
    (fun b ->
      Alcotest.(check bool)
        (b.Triage.b_signature ^ " has a reproducer")
        true (b.Triage.b_repro <> None))
    buckets;
  (* at jobs = 1 every pick finishes in its own round, so replacements
     show between steps *)
  let replaced =
    List.concat_map snd (List.filteri (fun i _ -> i < 2) drains)
    |> List.sort_uniq compare
  in
  Alcotest.(check bool) "a representative was replaced" true (replaced <> []);
  List.iter
    (fun signature ->
      let b =
        List.find (fun b -> b.Triage.b_signature = signature) buckets
      in
      let rep = b.Triage.b_rep in
      let spec =
        List.find (fun s -> Jobspec.key s = rep.Triage.c_spec_key) crash_specs
      in
      let recording =
        Manager.record ~store_seeds:true ~store_metrics:false
          (Manager.create ~boot_scale:0.02 ~prng_seed:spec.Jobspec.prng_seed ())
          W.Cpu_bound ~exits:300
      in
      let plan =
        Option.get
          (Campaign.plan
             ~config:
               { Campaign.mutations = spec.Jobspec.mutations;
                 prng_seed = spec.Jobspec.prng_seed }
             ~trace:recording.Manager.trace ~reason:spec.Jobspec.reason
             ~area:spec.Jobspec.area)
      in
      let direct =
        Bisect.minimize
          ~make_replayer:(fun () ->
            Orchestrator.dummy ~recording ~name:"test-triage")
          ~prefix:
            (Array.sub recording.Manager.trace.Iris_core.Trace.seeds 0
               plan.Campaign.plan_target.Seed.index)
          ~crasher:(Campaign.case plan rep.Triage.c_case)
      in
      check
        Alcotest.(option string)
        "replaced bucket's repro = direct bisection of its representative"
        (Option.map (fun r -> r.Bisect.b_digest) direct)
        (Option.map (fun r -> r.Triage.r_digest) b.Triage.b_repro))
    replaced;
  let v = Server.verify (fst (List.nth drains 2)) in
  Alcotest.(check bool) "verify ok" true (Server.verify_ok v);
  check Alcotest.int "every bucket re-minimized" (List.length buckets)
    v.Server.v_buckets_checked

(* Two jobs over one recording and one target seed that differ only in
   their mutation count (and tenant, so jobs = 3 runs them in one
   round).  The shorter job's first 60 mutations are the longer one's
   too; its key sorts first, so it keeps the shared crashes while the
   longer job's extra mutations bring buckets of their own.  Both
   jobs' crashes then fall into one search group, whose shared prefix
   states must not change a byte of the triage. *)
let test_shared_prefix_bisection () =
  let base = vmcs_spec ~tenant:"frank" ~reason:R.Rdtsc ~prng_seed:21 in
  let specs =
    [ base; { base with Jobspec.tenant = "erin"; mutations = 120 } ]
  in
  let recording =
    Manager.record ~store_seeds:true ~store_metrics:false
      (Manager.create ~boot_scale:0.02 ~prng_seed:21 ())
      W.Cpu_bound ~exits:300
  in
  let target (s : Jobspec.t) =
    let config =
      { Campaign.mutations = s.Jobspec.mutations;
        prng_seed = s.Jobspec.prng_seed }
    in
    Option.map
      (fun p -> p.Campaign.plan_target.Seed.index)
      (Campaign.plan ~config ~trace:recording.Manager.trace
         ~reason:s.Jobspec.reason ~area:s.Jobspec.area)
  in
  check
    Alcotest.(list (option int))
    "one target seed"
    [ target base; target base ]
    (List.map target specs);
  let drain jobs =
    let server = Server.create ~jobs ~quantum:512 ~recordings:shared_cache () in
    List.iter (fun s -> ignore (Server.submit server s : int)) specs;
    ignore (Server.drain server : Server.drain_summary);
    Server.triage server
  in
  let t1 = drain 1 and t3 = drain 3 in
  check Alcotest.string "triage bytes at jobs 1 and 3"
    (J.to_string (Triage.to_json t1))
    (J.to_string (Triage.to_json t3));
  check
    Alcotest.(list string)
    "both jobs own representatives"
    (List.sort_uniq compare (List.map Jobspec.key specs))
    (List.sort_uniq compare
       (List.map
          (fun b -> b.Triage.b_rep.Triage.c_spec_key)
          (Triage.buckets t3)));
  List.iter
    (fun b ->
      Alcotest.(check bool)
        (b.Triage.b_signature ^ " has a reproducer")
        true (b.Triage.b_repro <> None))
    (Triage.buckets t3)

(* --- Device provenance --- *)

let test_provenance_devices () =
  check Alcotest.string "pic" "PIC"
    (Provenance.device_name (Provenance.device_of_port 0x20));
  check Alcotest.string "pit" "PIT"
    (Provenance.device_name (Provenance.device_of_port 0x43));
  check Alcotest.string "rtc" "RTC"
    (Provenance.device_name (Provenance.device_of_port 0x71));
  check Alcotest.string "uart" "UART"
    (Provenance.device_name (Provenance.device_of_port 0x3F8));
  check Alcotest.string "pci" "PCI"
    (Provenance.device_name (Provenance.device_of_port 0xCFC));
  check Alcotest.string "other" "port"
    (Provenance.device_name (Provenance.device_of_port 0x1234));
  let mgr = Manager.create ~boot_scale:0.02 ~prng_seed:21 () in
  let recording = Manager.record mgr W.Io_bound ~exits:300 in
  let prov = Provenance.build recording.Manager.trace in
  let touched = Provenance.devices_touched prov in
  Alcotest.(check bool) "io-bound workload touches devices" true
    (touched <> []);
  List.iter
    (fun (d, n) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s has positive touches" (Provenance.device_name d))
        true (n > 0))
    touched;
  check
    Alcotest.(list (pair string int))
    "before:0 sees nothing" []
    (List.map
       (fun (d, n) -> (Provenance.device_name d, n))
       (Provenance.devices_touched ~before:0 prov));
  (* per-device touch lists ascend by index *)
  List.iter
    (fun (d, _) ->
      let touches = Provenance.device_touches prov d in
      let idxs = List.map (fun t -> t.Provenance.t_index) touches in
      Alcotest.(check bool)
        (Provenance.device_name d ^ " touches ascend")
        true
        (List.sort compare idxs = idxs))
    touched

(* --- runner --- *)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "iris_service"
    [ ( "jobqueue",
        [ Alcotest.test_case "drr fairness" `Quick test_drr_fairness;
          Alcotest.test_case "cancel and defer" `Quick test_queue_cancel_defer
        ] );
      ( "triage",
        Alcotest.test_case "normalize detail" `Quick test_normalize_detail
        :: Alcotest.test_case "representative order-independent" `Quick
             test_triage_rep_order_independent
        :: qcheck [ prop_signature_digit_blind ] );
      ( "corpus",
        qcheck
          [ prop_dedup_idempotent;
            prop_distill_preserves_coverage;
            prop_distill_idempotent;
            prop_save_load_roundtrip ]
        @ [ Alcotest.test_case "save is atomic" `Quick test_save_atomic ] );
      ( "wire",
        [ Alcotest.test_case "request roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "spec keys content-derived" `Quick
            test_jobspec_key_content_derived;
          Alcotest.test_case "status line shape" `Quick test_status_line_shape;
          Alcotest.test_case "corpus points malformed" `Quick
            test_corpus_points_malformed ]
        @ qcheck [ prop_decoders_total ] );
      ( "server",
        [ Alcotest.test_case "report schedule-independent" `Slow
            test_server_report_schedule_independent;
          Alcotest.test_case "replay-from-corpus byte-identity" `Slow
            test_server_replay_from_corpus;
          Alcotest.test_case "wire pipe session" `Slow test_wire_pipe_session;
          Alcotest.test_case "pooled bisection deterministic" `Slow
            test_pooled_bisection_deterministic;
          Alcotest.test_case "shared-prefix bisection" `Slow
            test_shared_prefix_bisection;
          Alcotest.test_case "socket survives a hang-up" `Slow
            test_socket_survives_hang_up;
          Alcotest.test_case "socket survives a silent client" `Slow
            test_socket_survives_silent_client;
          Alcotest.test_case "socket relay = pipe session" `Slow
            test_socket_relay_matches_pipe;
          Alcotest.test_case "loaded corpus cannot kill the daemon" `Slow
            test_loaded_corpus_cannot_kill;
          Alcotest.test_case "timeout is schedule-independent" `Slow
            test_server_timeout;
          Alcotest.test_case "every way a job ends" `Slow
            test_server_job_endings;
          Alcotest.test_case "counts cow rewinds" `Slow
            test_server_counts_cow_rewinds
        ] );
      ( "provenance",
        [ Alcotest.test_case "device touches" `Slow test_provenance_devices ]
      ) ]
