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

(* A client that sends a drain and hangs up before reading the answer
   costs only that answer: the daemon goes on serving the next
   clients. *)
let test_socket_survives_hang_up () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "iris-wire-%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  (* A daemon that died mid-test leaves its listening socket open, and
     a later call would wait forever in its backlog: SIGALRM's default
     action fails the test instead. *)
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
  let submit =
    J.to_string
      (J.Obj [ ("cmd", J.String "submit"); ("spec", Jobspec.to_json spec_a) ])
  in
  Alcotest.(check bool) "submit ok" true (Wire.response_ok (call ~tries:500 submit));
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_UNIX path);
  let drain = Bytes.of_string "{\"cmd\":\"drain\"}\n" in
  ignore (Unix.write sock drain 0 (Bytes.length drain) : int);
  Unix.close sock;
  Alcotest.(check bool) "status after the hang-up" true
    (Wire.response_ok (call {|{"cmd":"status"}|}));
  Alcotest.(check bool) "shutdown after the hang-up" true
    (Wire.response_ok (call {|{"cmd":"shutdown"}|}));
  ignore (Domain.join daemon : bool);
  ignore (Unix.alarm 0 : int)

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
            prop_save_load_roundtrip ] );
      ( "wire",
        [ Alcotest.test_case "request roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "spec keys content-derived" `Quick
            test_jobspec_key_content_derived;
          Alcotest.test_case "status line shape" `Quick test_status_line_shape
        ] );
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
            test_socket_survives_hang_up
        ] );
      ( "provenance",
        [ Alcotest.test_case "device touches" `Slow test_provenance_devices ]
      ) ]
