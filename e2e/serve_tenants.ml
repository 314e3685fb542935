(* serve-tenants: a closed loop against the campaign server.

   Three tenants at priorities 3/2/1 each keep two jobs outstanding
   and submit their next job as soon as one of theirs completes, as
   observed through [Server.step] and [Server.job_infos].  The server
   runs two worker domains with a 48-case quantum.  The job set is
   every {CPU-bound: RDTSC, CPUID; OS BOOT: I/O, CR} x {GPR, VMCS}
   kind at recording seeds 1..3, 24 jobs of 200 mutations, dealt so
   that each tenant sends one job of every kind; jobs sharing a
   recording share it through the server's recording cache, warmed in
   set-up.  This is the only workload with DRR scheduling, domain
   parallelism, corpus admission, triage and bisection.

   The traced repetition also runs a sequential replica of the drain
   — the same jobs through the layers the server calls, one after the
   other — whose corpus and triage must equal the real drain's.  The
   drain's wall time minus the replica's layer total is the server's
   own cost: scheduling, per-round domain spawns and hub merges. *)

module Manager = Iris_core.Manager
module Trace = Iris_core.Trace
module Seed = Iris_core.Seed
module Replayer = Iris_core.Replayer
module Campaign = Iris_fuzzer.Campaign
module Mutation = Iris_fuzzer.Mutation
module Cov = Iris_coverage.Cov
module Bisect = Iris_inspect.Bisect
module Provenance = Iris_inspect.Provenance
module Orchestrator = Iris_orchestrator.Orchestrator
module Server = Iris_service.Server
module Jobspec = Iris_service.Jobspec
module Corpus = Iris_service.Corpus
module Triage = Iris_service.Triage
module R = Iris_vtx.Exit_reason
module W = Iris_guest.Workload
module Prng = Iris_util.Prng

type params = { exits : int; mutations : int; recording_seeds : int }

let full = { exits = 1_200; mutations = 200; recording_seeds = 3 }
let small = { exits = 300; mutations = 8; recording_seeds = 1 }

let worker_domains = 2
let quantum = 48
let outstanding = 2
let tenants = [ ("t3", 3); ("t2", 2); ("t1", 1) ]

let combos =
  [ (W.Cpu_bound, R.Rdtsc); (W.Cpu_bound, R.Cpuid); (W.Os_boot, R.Io_instruction);
    (W.Os_boot, R.Cr_access) ]

let areas = [ Mutation.Area_gpr; Mutation.Area_vmcs ]

(* Tenant name -> its jobs in submission order.  Every tenant gets one
   job of each kind (combo x area), so the tenants' loads match; the
   seed decides which recording seed each tenant's job of a kind uses
   (all distinct, so each (kind, recording) pair runs once) and the
   order each tenant submits in. *)
let job_lists p prng =
  let kinds =
    List.concat_map (fun (w, reason) -> List.map (fun area -> (w, reason, area)) areas) combos
  in
  let rotations = List.map (fun _ -> Prng.int prng p.recording_seeds) kinds in
  List.mapi
    (fun ti (tenant, priority) ->
      let jobs =
        Array.of_list
          (List.map2
             (fun (workload, reason, area) r ->
               Jobspec.make ~tenant ~priority ~workload ~exits:p.exits ~reason ~area
                 ~mutations:p.mutations
                 ~prng_seed:(1 + ((ti + r) mod p.recording_seeds))
                 ())
             kinds rotations)
      in
      Prng.shuffle prng jobs;
      (tenant, Array.to_list jobs))
    tenants

let finished = function
  | Server.Queued | Server.Running -> false
  | Server.Completed | Server.No_seed | Server.Cancelled | Server.Timed_out
  | Server.Failed _ ->
      true

type drain = {
  d_wall_s : float;
  d_latencies : float array;  (* submit -> observed completion, per job *)
  d_waits : float array;      (* submit -> first round that ran it *)
  d_rounds : int;
  d_failed : int;
  d_order : Jobspec.t list;   (* submission order *)
  d_server : Server.t;
}

let closed_loop cache jobs =
  let server = Server.create ~jobs:worker_domains ~quantum ~recordings:cache () in
  let queues = List.map (fun (t, specs) -> (t, Queue.of_seq (List.to_seq specs))) jobs in
  let total = List.fold_left (fun a (_, l) -> a + List.length l) 0 jobs in
  let submitted = Array.make total 0.0 in
  let tenant_of = Array.make total "" in
  let started = Array.make total false in
  let done_ = Array.make total false in
  let latencies = Array.make total 0.0 and waits = Array.make total 0.0 in
  let order = ref [] in
  let submit_next tenant =
    let q = List.assoc tenant queues in
    if not (Queue.is_empty q) then begin
      let spec = Queue.pop q in
      order := spec :: !order;
      let id = Server.submit server spec in
      submitted.(id) <- Measure.now_s ();
      tenant_of.(id) <- tenant
    end
  in
  let t0 = Measure.now_s () in
  List.iter
    (fun (t, _) -> for _ = 1 to outstanding do submit_next t done)
    tenants;
  let rounds = ref 0 in
  let rec loop () =
    let round_start = Measure.now_s () in
    if Server.step server then begin
      incr rounds;
      let now = Measure.now_s () in
      List.iter
        (fun (ji : Server.job_info) ->
          let id = ji.Server.ji_id in
          if (not started.(id)) && ji.Server.ji_status <> Server.Queued then begin
            started.(id) <- true;
            waits.(id) <- round_start -. submitted.(id)
          end;
          if (not done_.(id)) && finished ji.Server.ji_status then begin
            done_.(id) <- true;
            latencies.(id) <- now -. submitted.(id);
            submit_next tenant_of.(id)
          end)
        (Server.job_infos server);
      loop ()
    end
  in
  loop ();
  let wall = Measure.now_s () -. t0 in
  let failed =
    List.length
      (List.filter
         (fun (ji : Server.job_info) -> ji.Server.ji_status <> Server.Completed)
         (Server.job_infos server))
  in
  { d_wall_s = wall;
    d_latencies = latencies;
    d_waits = waits;
    d_rounds = !rounds;
    d_failed = failed + (total - List.length !order);
    d_order = List.rev !order;
    d_server = server }

(* Each job is its own request class: the jobs sharing the server with
   it are the same in every repetition, so its latency repeats, whereas
   the pooled median would report whichever job the seed's dealing puts
   at mid-rank. *)
let latencies_by_job d =
  (* job ids are submission indices *)
  List.mapi (fun id s -> (Jobspec.key s, [| d.d_latencies.(id) |])) d.d_order

(* --- the sequential replica --- *)

(* A dummy at the recording's initial state, one per bisection attempt,
   built the way the server builds it. *)
let fresh_replayer (recording : Manager.recording) ~name =
  let cov = Cov.create () in
  let hooks = Iris_hv.Hooks.create () in
  let ctx = Iris_hv.Xen.construct ~dummy:true ~cov ~hooks ~name () in
  Manager.arm_dummy ctx ~revert_to:(Some recording.Manager.snapshot) ~keep_memory:false;
  Replayer.create ctx

type replica = {
  corpus_digest : string;
  triage_json : string;
  cases : int;
  admitted : int;
  bisect_calls : int;
  bisect_useful : int;
}

let sorted_points span =
  Cov.Pset.fold (fun p acc -> (p : Cov.point :> int) :: acc) span []
  |> List.rev |> Array.of_list

let replica recordings specs =
  let corpus = Corpus.create () and triage = Triage.create () in
  let provenance = Hashtbl.create 8 in
  let cases = ref 0 and admitted = ref 0 in
  let bisect_calls = ref 0 and bisect_useful = ref 0 in
  List.iteri
    (fun job (spec : Jobspec.t) ->
      Spans.request := job;
      let key = Jobspec.key spec in
      let rkey = (spec.Jobspec.workload, spec.Jobspec.prng_seed) in
      let recording : Manager.recording = Hashtbl.find recordings rkey in
      let trace = recording.Manager.trace in
      let config =
        { Campaign.mutations = spec.Jobspec.mutations; prng_seed = spec.Jobspec.prng_seed }
      in
      let plan =
        Spans.span Spans.campaign_plan (fun () ->
            Campaign.plan ~config ~trace ~reason:spec.Jobspec.reason
              ~area:spec.Jobspec.area)
        |> Option.get
      in
      let seed_index = plan.Campaign.plan_target.Seed.index in
      let hub = Iris_telemetry.Hub.create () in
      let boot () =
        let replayer, anchor, _ =
          Spans.span Spans.orchestrator_boot_universe (fun () ->
              Orchestrator.boot_universe ~hub ~recording ~seed_index
                ~name:(Printf.sprintf "svc-%s-dummy" key) ())
        in
        (replayer, anchor)
      in
      let universe = ref None in
      let raws =
        Array.init (Campaign.case_count plan) (fun i ->
            let replayer, anchor =
              match !universe with
              | Some u -> u
              | None ->
                  let u = boot () in
                  universe := Some u;
                  u
            in
            Spans.enter Spans.mutation_apply;
            let seed = Campaign.case plan i in
            Spans.leave ();
            Spans.enter Spans.campaign_execute_case;
            match Campaign.execute_case ~replayer ~anchor seed with
            | raw ->
                Spans.leave ();
                raw
            | exception exn ->
                Spans.leave ();
                universe := None;
                { Campaign.raw_failure = Campaign.Hypervisor_crash;
                  raw_detail = "worker context died: " ^ Printexc.to_string exn;
                  raw_span = Cov.Pset.empty;
                  raw_cycles = 0L })
      in
      cases := !cases + Array.length raws;
      ignore (Spans.span Spans.campaign_finalize (fun () -> Campaign.finalize ~plan ~raws));
      let meta =
        { Corpus.m_workload = spec.Jobspec.workload;
          m_exits = spec.Jobspec.exits;
          m_prng_seed = spec.Jobspec.prng_seed;
          m_boot_scale = spec.Jobspec.boot_scale;
          m_seed_index = seed_index }
      in
      let a, _ =
        Spans.span Spans.corpus_admit_plan (fun () ->
            Corpus.admit_plan corpus ~meta ~plan ~raws)
      in
      admitted := !admitted + a;
      let prov =
        match Hashtbl.find_opt provenance rkey with
        | Some pr -> pr
        | None ->
            let pr = Spans.span Spans.provenance_build (fun () -> Provenance.build trace) in
            Hashtbl.replace provenance rkey pr;
            pr
      in
      let devices =
        Spans.span Spans.provenance_devices (fun () ->
            List.map
              (fun (d, n) -> (Provenance.device_name d, n))
              (Provenance.devices_touched ~before:seed_index prov))
      in
      let prefix = Array.sub trace.Trace.seeds 0 seed_index in
      Array.iteri
        (fun i (raw : Campaign.raw) ->
          if raw.Campaign.raw_failure <> Campaign.No_failure then begin
            let crash =
              { Triage.c_spec_key = key;
                c_case = i;
                c_reason = plan.Campaign.plan_reason;
                c_failure = raw.Campaign.raw_failure;
                c_detail = raw.Campaign.raw_detail;
                c_span = sorted_points raw.Campaign.raw_span;
                c_devices = devices }
            in
            let minimize () =
              incr bisect_calls;
              let crasher = Campaign.case plan i in
              let make_replayer () =
                fresh_replayer recording ~name:(Printf.sprintf "svc-%s-triage" key)
              in
              match
                Spans.span Spans.bisect_minimize (fun () ->
                    Bisect.minimize ~make_replayer ~prefix ~crasher)
              with
              | None -> None
              | Some b ->
                  if b.Bisect.b_deterministic then incr bisect_useful;
                  Some
                    { Triage.r_digest = b.Bisect.b_digest;
                      r_seeds = Array.length b.Bisect.b_seeds;
                      r_deterministic = b.Bisect.b_deterministic;
                      r_attempts = b.Bisect.b_attempts }
            in
            ignore
              (Spans.span Spans.triage_note (fun () -> Triage.note triage crash ~minimize))
          end)
        raws)
    specs;
  { corpus_digest = Corpus.digest corpus;
    triage_json = Iris_telemetry.Json.to_string (Triage.to_json triage);
    cases = !cases;
    admitted = !admitted;
    bisect_calls = !bisect_calls;
    bisect_useful = !bisect_useful }

let setup p ~seed =
  let prng = Prng.of_int seed in
  let jobs = job_lists p prng in
  (* One spec per recording the jobs share. *)
  let per_recording = Hashtbl.create 8 in
  List.iter
    (fun (s : Jobspec.t) ->
      Hashtbl.replace per_recording (s.Jobspec.workload, s.Jobspec.prng_seed) s)
    (List.concat_map snd jobs);
  (* Warm the server's cache with a zero-mutation job per recording. *)
  let cache = Server.recordings () in
  let warm = Server.create ~recordings:cache () in
  Hashtbl.iter
    (fun _ s -> ignore (Server.submit warm { s with Jobspec.mutations = 0 }))
    per_recording;
  ignore (Server.drain warm);
  (* The replica records its own copies, exactly as the cache does. *)
  let replica_recordings =
    lazy
      (Hashtbl.to_seq per_recording
      |> Seq.map (fun (key, (s : Jobspec.t)) ->
             let m =
               Manager.create ~boot_scale:s.Jobspec.boot_scale
                 ~prng_seed:s.Jobspec.prng_seed ()
             in
             ( key,
               Manager.record ~store_seeds:true ~store_metrics:false m
                 s.Jobspec.workload ~exits:s.Jobspec.exits ))
      |> Hashtbl.of_seq)
  in
  let last = ref None in
  let as_rep d =
    { Harness.wall_s = d.d_wall_s;
      ops = Array.length d.d_latencies;
      failed = d.d_failed;
      latencies = latencies_by_job d;
      digest = Server.report_digest d.d_server }
  in
  let rep () =
    let d = closed_loop cache jobs in
    last := Some d.d_server;
    as_rep d
  in
  let traced () =
    let recordings = Lazy.force replica_recordings in
    let d = closed_loop cache jobs in
    let real = as_rep d in
    Gc.full_major ();
    let a0 = Spans.attributed_ns () in
    let r, wall_s = Measure.time (fun () -> replica recordings d.d_order) in
    let layer_s = float_of_int (Spans.attributed_ns () - a0) *. 1e-9 in
    Spans.active := false;
    Gc.full_major ();
    let r0, base_s = Measure.time (fun () -> replica recordings d.d_order) in
    Spans.active := true;
    let corpus = Corpus.digest (Server.corpus d.d_server) in
    let triage =
      Iris_telemetry.Json.to_string (Triage.to_json (Server.triage d.d_server))
    in
    let problems =
      (if r.corpus_digest <> corpus || r0.corpus_digest <> corpus then
         [ "replica corpus differs from the server's" ]
       else [])
      @
      if r.triage_json <> triage || r0.triage_json <> triage then
        [ "replica triage differs from the server's" ]
      else []
    in
    { Harness.t_wall_s = wall_s;
      t_base_s = base_s;
      t_ops = real.Harness.ops;
      t_failed = real.Harness.failed;
      t_digest = real.Harness.digest;
      t_counts =
        [ ("jobqueue.wait_p50_s", Measure.median d.d_waits);
          ("server.rounds", float_of_int d.d_rounds);
          ("server.drain_s", d.d_wall_s);
          ("server.overhead_s", d.d_wall_s -. layer_s);
          ("corpus.admit_ratio", float_of_int r.admitted /. float_of_int (max 1 r.cases));
          ( "bisect.useful_ratio",
            float_of_int r.bisect_useful /. float_of_int (max 1 r.bisect_calls) ) ];
      t_problems = problems }
  in
  let after_warm_up () =
    match !last with
    | None -> [ "no drained server to verify" ]
    | Some s ->
        let v = Server.verify s in
        if Server.verify_ok v then []
        else
          [ Printf.sprintf
              "Server.verify: %d/%d corpus mismatches, %d/%d bucket mismatches, %d \
               unreproduced"
              v.Server.v_corpus_mismatches v.Server.v_corpus_checked
              v.Server.v_bucket_mismatches v.Server.v_buckets_checked
              v.Server.v_buckets_unreproduced ]
  in
  { Harness.rep; traced; after_warm_up }

let workload =
  { Harness.name = "serve-tenants";
    setup = (fun ~seed ~smoke -> setup (if smoke then small else full) ~seed);
    pinned = "4a53dc39f22efda7" }
