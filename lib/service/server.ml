module J = Iris_telemetry.Json
module Hub = Iris_telemetry.Hub
module Registry = Iris_telemetry.Registry
module Export = Iris_telemetry.Export
module W = Iris_guest.Workload
module R = Iris_vtx.Exit_reason
module Seed = Iris_core.Seed
module Trace = Iris_core.Trace
module Manager = Iris_core.Manager
module Replayer = Iris_core.Replayer
module Cov = Iris_coverage.Cov
module Campaign = Iris_fuzzer.Campaign
module Bisect = Iris_inspect.Bisect
module Provenance = Iris_inspect.Provenance
module Orchestrator = Iris_orchestrator.Orchestrator
module Pool = Iris_orchestrator.Pool
module Fnv = Iris_util.Fnv64

type status =
  | Queued
  | Running
  | Completed
  | No_seed
  | Cancelled
  | Timed_out
  | Failed of string

let status_string = function
  | Queued -> "queued"
  | Running -> "running"
  | Completed -> "completed"
  | No_seed -> "no-seed"
  | Cancelled -> "cancelled"
  | Timed_out -> "timed-out"
  | Failed m -> "failed: " ^ m

type job_info = {
  ji_id : int;
  ji_key : string;
  ji_label : string;
  ji_tenant : string;
  ji_status : status;
  ji_done : int;
  ji_total : int;
  ji_respawns : int;
  ji_cycles : int64;
}

(* --- recording cache --- *)

type recordings = (string, Manager.recording) Hashtbl.t

let recordings () : recordings = Hashtbl.create 8

let recording_key ~workload ~exits ~prng_seed ~boot_scale =
  Printf.sprintf "%s|%d|%d|%.6f" (W.name workload) exits prng_seed boot_scale

let ensure_recording (cache : recordings) ~workload ~exits ~prng_seed
    ~boot_scale =
  let key = recording_key ~workload ~exits ~prng_seed ~boot_scale in
  match Hashtbl.find_opt cache key with
  | Some r -> r
  | None ->
      let mgr = Manager.create ~boot_scale ~prng_seed () in
      let r =
        Manager.record ~store_seeds:true ~store_metrics:false mgr workload
          ~exits
      in
      Hashtbl.replace cache key r;
      r

(* Minimize each [(crash, recording, plan)] request into a
   digest-verified reproducer, in two pool phases.  The search phase
   runs one task per (recording, target index) group, so one
   [Bisect.search] shares every replayed prefix state among the
   group's crashers; an exception in a group's search reads as
   unreproduced for every request of that group.  The verification
   phase runs one task per request — its two from-scratch replays are
   the larger share, and most rounds bring a single group — and a
   verification that raises reads as unreproduced for its request.
   Tasks share only the read-only recordings and plans, and each
   result is a function of its request alone, whatever [jobs] is.  A
   worker's dummies all build on the worker's one coverage store: a
   fresh store per dummy is ~0.6 MB of arrays, and that churn spread
   over the workers' malloc arenas makes the process's peak resident
   set vary from run to run. *)
let minimize_all ~jobs requests =
  let requests = Array.of_list requests in
  let n = Array.length requests in
  if n = 0 then [||]
  else
    let recording i =
      let _, (recording : Manager.recording), _ = requests.(i) in
      recording
    in
    let index i =
      let _, _, plan = requests.(i) in
      plan.Campaign.plan_target.Seed.index
    in
    let make_replayer ~cov i () =
      let (crash : Triage.crash), _, _ = requests.(i) in
      Orchestrator.dummy_on ~cov ~recording:(recording i)
        ~name:(Printf.sprintf "svc-%s-triage" crash.Triage.c_spec_key)
    in
    let prefix i =
      Array.sub (recording i).Manager.trace.Trace.seeds 0 (index i)
    in
    let crasher i =
      let (crash : Triage.crash), _, plan = requests.(i) in
      Campaign.case plan crash.Triage.c_case
    in
    (* A group is named by its first request; a recording is one cache
       entry, so physical equality tells recordings apart. *)
    let all = List.init n Fun.id in
    let leader =
      Array.init n (fun i ->
          List.find
            (fun k -> recording k == recording i && index k = index i)
            all)
    in
    let groups =
      List.filter_map
        (fun i ->
          if leader.(i) = i then
            Some (List.filter (fun k -> leader.(k) = i) all |> Array.of_list)
          else None)
        all
      |> Array.of_list
    in
    let covs = Array.init (min jobs n) (fun _ -> Cov.create ()) in
    let pooled ~total task ~on_crash =
      fst
        (Pool.run ~jobs:(min jobs total) ~total ~init:(fun w -> covs.(w)) ~task
           ~on_crash)
    in
    let found =
      pooled ~total:(Array.length groups)
        (fun cov g ->
          let members = groups.(g) in
          Bisect.search
            ~make_replayer:(make_replayer ~cov members.(0))
            ~prefix:(prefix members.(0))
            ~crashers:(Array.map crasher members))
        ~on_crash:(fun _exn g -> Array.map (fun _ -> None) groups.(g))
    in
    let searched = Array.make n None in
    Array.iteri
      (fun g members ->
        Array.iteri (fun k i -> searched.(i) <- found.(g).(k)) members)
      groups;
    pooled ~total:n
      (fun cov i ->
        Option.map
          (Bisect.verify ~make_replayer:(make_replayer ~cov i) ~prefix:(prefix i)
             ~crasher:(crasher i))
          searched.(i))
      ~on_crash:(fun _exn _i -> None)

let repro_of (b : Bisect.result) =
  { Triage.r_digest = b.Bisect.b_digest;
    r_seeds = Array.length b.Bisect.b_seeds;
    r_deterministic = b.Bisect.b_deterministic;
    r_attempts = b.Bisect.b_attempts }

(* --- jobs --- *)

type job = {
  j_id : int;
  j_spec : Jobspec.t;
  j_key : string;
  j_hub : Hub.t;
  mutable j_status : status;
  mutable j_recording : Manager.recording option;
  mutable j_plan : Campaign.plan option;
  mutable j_raws : Campaign.raw option array;
  mutable j_done : int;
  mutable j_universe : (Replayer.t * Campaign.anchor) option;
  mutable j_respawns : int;
  mutable j_cycles : int64;
  mutable j_cancel : bool;
  mutable j_result : Campaign.result option;
}

type t = {
  queue : Jobqueue.t;
  jobs : (int, job) Hashtbl.t;
  mutable order : int list;  (* submission order, reversed *)
  mutable next_id : int;
  pool_jobs : int;
  cache : recordings;
  provenance : (string, Provenance.t) Hashtbl.t;  (* recording key -> index *)
  corpus_store : Corpus.t;
  triage_store : Triage.t;
  mutable bisect_pending :
    (Triage.crash * Manager.recording * Campaign.plan) list;
      (* crashes noted this round that created or took over a bucket *)
  server_hub : Hub.t;
  status_sink : (string -> unit) option;
  mutable status_seq : int;
}

let create ?(jobs = 1) ?(quantum = 256) ?recordings:cache ?status_sink () =
  { queue = Jobqueue.create ~quantum ();
    jobs = Hashtbl.create 16;
    order = [];
    next_id = 0;
    pool_jobs = max 1 jobs;
    cache = (match cache with Some c -> c | None -> Hashtbl.create 8);
    provenance = Hashtbl.create 8;
    corpus_store = Corpus.create ();
    triage_store = Triage.create ();
    bisect_pending = [];
    server_hub = Hub.create ();
    status_sink;
    status_seq = 0 }

let counter t name = Registry.counter t.server_hub.Hub.registry name

let gauge t name = Registry.gauge t.server_hub.Hub.registry name

let submit t spec =
  let id = t.next_id in
  t.next_id <- id + 1;
  let job =
    { j_id = id;
      j_spec = spec;
      j_key = Jobspec.key spec;
      j_hub = Hub.create ();
      j_status = Queued;
      j_recording = None;
      j_plan = None;
      j_raws = [||];
      j_done = 0;
      j_universe = None;
      j_respawns = 0;
      j_cycles = 0L;
      j_cancel = false;
      j_result = None }
  in
  Hashtbl.replace t.jobs id job;
  t.order <- id :: t.order;
  Jobqueue.submit t.queue ~id ~tenant:spec.Jobspec.tenant
    ~weight:spec.Jobspec.priority;
  Registry.incr (counter t "service.jobs_submitted");
  id

let job t id = Hashtbl.find t.jobs id

let finished job =
  match job.j_status with
  | Queued | Running -> false
  | Completed | No_seed | Cancelled | Timed_out | Failed _ -> true

let cancel t id =
  match Hashtbl.find_opt t.jobs id with
  | None -> false
  | Some job when finished job -> false
  | Some job ->
      job.j_cancel <- true;
      if Jobqueue.cancel t.queue id then begin
        job.j_status <- Cancelled;
        Registry.incr (counter t "service.jobs_cancelled")
      end;
      (* if in flight, the round post-processing finishes it *)
      true

(* --- per-job preparation (main domain: touches the shared caches) --- *)

let spec_meta (spec : Jobspec.t) ~seed_index =
  { Corpus.m_workload = spec.Jobspec.workload;
    m_exits = spec.Jobspec.exits;
    m_prng_seed = spec.Jobspec.prng_seed;
    m_boot_scale = spec.Jobspec.boot_scale;
    m_seed_index = seed_index }

let job_recording t job =
  match job.j_recording with
  | Some r -> r
  | None ->
      let s = job.j_spec in
      let r =
        ensure_recording t.cache ~workload:s.Jobspec.workload
          ~exits:s.Jobspec.exits ~prng_seed:s.Jobspec.prng_seed
          ~boot_scale:s.Jobspec.boot_scale
      in
      job.j_recording <- Some r;
      r

let job_provenance t job recording =
  let s = job.j_spec in
  let key =
    recording_key ~workload:s.Jobspec.workload ~exits:s.Jobspec.exits
      ~prng_seed:s.Jobspec.prng_seed ~boot_scale:s.Jobspec.boot_scale
  in
  match Hashtbl.find_opt t.provenance key with
  | Some p -> p
  | None ->
      let p = Provenance.build recording.Manager.trace in
      Hashtbl.replace t.provenance key p;
      p

(* Returns [false] when the job finished during preparation (no seed
   with the requested reason, or the recording failed). *)
let prepare t job =
  try
    let recording = job_recording t job in
    match job.j_plan with
    | Some _ -> true
    | None -> (
        let s = job.j_spec in
        let config =
          { Campaign.mutations = s.Jobspec.mutations;
            prng_seed = s.Jobspec.prng_seed }
        in
        match
          Campaign.plan ~config ~trace:recording.Manager.trace
            ~reason:s.Jobspec.reason ~area:s.Jobspec.area
        with
        | None ->
            job.j_status <- No_seed;
            Registry.incr (counter t "service.jobs_no_seed");
            false
        | Some plan ->
            job.j_plan <- Some plan;
            job.j_raws <- Array.make (Campaign.case_count plan) None;
            true)
  with exn ->
    job.j_status <- Failed ("prepare: " ^ Printexc.to_string exn);
    Registry.incr (counter t "service.jobs_failed");
    false

(* --- quantum execution (runs on a pool worker) --- *)

(* What one quantum did, returned through the pool's result array. *)
type round = {
  consumed : int;
  panic : string option;  (* the universe died; respawn after backoff *)
  timeout : bool;
}

let idle = { consumed = 0; panic = None; timeout = false }

let timed_out job =
  match job.j_spec.Jobspec.timeout_cycles with
  | None -> false
  | Some budget -> job.j_cycles >= budget

(* Execute up to [budget] cases of [job], in case order.  Outcomes are
   pure functions of (S_R, seed), so the only effect of quantum
   boundaries is *where* this loop pauses — never what it computes.
   A case that panics records a crash outcome and drops the universe
   for respawn; a universe that fails to boot raises, and the pool's
   [on_crash] reports it. *)
let exec_quantum job budget =
  let plan = Option.get job.j_plan in
  let recording = Option.get job.j_recording in
  let total = Campaign.case_count plan in
  let replayer, anchor =
    match job.j_universe with
    | Some u -> u
    | None ->
        let replayer, anchor, _setup =
          Orchestrator.boot_universe ~hub:job.j_hub ~recording
            ~seed_index:plan.Campaign.plan_target.Seed.index
            ~name:(Printf.sprintf "svc-%s-dummy" job.j_key)
            ()
        in
        job.j_universe <- Some (replayer, anchor);
        (replayer, anchor)
  in
  let rec go consumed =
    if consumed >= budget || job.j_done >= total then { idle with consumed }
    else if timed_out job then { idle with consumed; timeout = true }
    else begin
      let i = job.j_done in
      job.j_done <- i + 1;
      match Campaign.execute_case ~replayer ~anchor (Campaign.case plan i) with
      | raw ->
          job.j_raws.(i) <- Some raw;
          job.j_cycles <- Int64.add job.j_cycles raw.Campaign.raw_cycles;
          go (consumed + 1)
      | exception exn ->
          let msg = Printexc.to_string exn in
          job.j_raws.(i) <- Some (Campaign.crash_raw msg);
          job.j_universe <- None;
          { consumed = consumed + 1; panic = Some msg; timeout = false }
    end
  in
  go 0

(* --- job completion (main domain) --- *)

let note_crashes t job plan recording =
  let seed_index = plan.Campaign.plan_target.Seed.index in
  let prov = job_provenance t job recording in
  let devices =
    List.map
      (fun (d, n) -> (Provenance.device_name d, n))
      (Provenance.devices_touched ~before:seed_index prov)
  in
  Array.iteri
    (fun i raw_opt ->
      match raw_opt with
      | Some (raw : Campaign.raw)
        when raw.Campaign.raw_failure <> Campaign.No_failure ->
          let span =
            Cov.Pset.fold
              (fun p acc -> (p : Cov.point :> int) :: acc)
              raw.Campaign.raw_span []
            |> List.rev |> Array.of_list
          in
          let crash =
            { Triage.c_spec_key = job.j_key;
              c_case = i;
              c_reason = plan.Campaign.plan_reason;
              c_failure = raw.Campaign.raw_failure;
              c_detail = raw.Campaign.raw_detail;
              c_span = span;
              c_devices = devices }
          in
          (* bisected after the round, by [bisect_round] *)
          let minimize () =
            t.bisect_pending <- (crash, recording, plan) :: t.bisect_pending;
            None
          in
          (match Triage.note t.triage_store crash ~minimize with
          | `New -> Registry.incr (counter t "service.triage_new_buckets")
          | `Counted | `Replaced -> ());
          Registry.incr (counter t "service.crashes")
      | Some _ | None -> ())
    job.j_raws

let finish_completed t job =
  let plan = Option.get job.j_plan in
  let recording = Option.get job.j_recording in
  let raws = Array.map Option.get job.j_raws in
  let result = Campaign.finalize ~plan ~raws in
  job.j_result <- Some result;
  job.j_status <- Completed;
  let seed_index = plan.Campaign.plan_target.Seed.index in
  let meta = spec_meta job.j_spec ~seed_index in
  let admitted, dups =
    Corpus.admit_plan t.corpus_store ~meta ~plan ~raws
  in
  Registry.add (counter t "service.corpus_admitted") admitted;
  Registry.add (counter t "service.corpus_duplicates") dups;
  note_crashes t job plan recording;
  Registry.add (counter t "service.vm_crashes") result.Campaign.vm_crashes;
  Registry.add (counter t "service.hv_crashes") result.Campaign.hv_crashes;
  Registry.incr (counter t "service.jobs_completed");
  Hub.merge_into ~into:t.server_hub job.j_hub;
  Registry.set (gauge t "service.corpus_entries")
    (Int64.of_int (Corpus.count t.corpus_store));
  Registry.set (gauge t "service.triage_buckets")
    (Int64.of_int (Triage.count t.triage_store))

(* --- the scheduling round --- *)

let backoff_rounds respawns = min 8 (1 lsl min respawns 3)

(* A job's panic budget: the next panic after this many respawns
   fails it. *)
let max_respawns = 5

let post_round t work rounds =
  Array.iter2
    (fun (job, _budget) { consumed; panic; timeout } ->
      let id = job.j_id in
      Registry.add (counter t "service.cases") consumed;
      let total =
        match job.j_plan with
        | Some p -> Campaign.case_count p
        | None -> max_int
      in
      (* Every way a job leaves the queue: completed (no [ended]), or
         ended early with a status and the counter that tallies it. *)
      let finish ?ended () =
        (match ended with
        | None -> finish_completed t job
        | Some (status, name) ->
            job.j_status <- status;
            Registry.incr (counter t name));
        job.j_universe <- None;
        Jobqueue.complete t.queue ~id ~consumed ~finished:true
      in
      if job.j_cancel then
        finish ~ended:(Cancelled, "service.jobs_cancelled") ()
      else if job.j_done >= total then finish ()
      else if timeout then
        finish ~ended:(Timed_out, "service.jobs_timed_out") ()
      else
        match panic with
        | Some msg when job.j_respawns >= max_respawns ->
            finish
              ~ended:
                ( Failed ("respawn budget exhausted: " ^ msg),
                  "service.jobs_failed" )
              ()
        | Some _ ->
            job.j_respawns <- job.j_respawns + 1;
            Registry.incr (counter t "service.respawns");
            Jobqueue.defer t.queue id
              ~rounds:(backoff_rounds job.j_respawns);
            Jobqueue.complete t.queue ~id ~consumed ~finished:false
        | None -> Jobqueue.complete t.queue ~id ~consumed ~finished:false)
    work rounds

let job_infos t =
  List.rev_map
    (fun id ->
      let j = job t id in
      { ji_id = j.j_id;
        ji_key = j.j_key;
        ji_label = Jobspec.label j.j_spec;
        ji_tenant = j.j_spec.Jobspec.tenant;
        ji_status = j.j_status;
        ji_done = j.j_done;
        ji_total =
          (match j.j_plan with
          | Some p -> Campaign.case_count p
          | None -> -1);
        ji_respawns = j.j_respawns;
        ji_cycles = j.j_cycles })
    t.order

let status_json t =
  let jobs =
    List.map
      (fun ji ->
        J.Obj
          [ ("id", J.Int ji.ji_id);
            ("key", J.String ji.ji_key);
            ("label", J.String ji.ji_label);
            ("tenant", J.String ji.ji_tenant);
            ("status", J.String (status_string ji.ji_status));
            ("done", J.Int ji.ji_done);
            ("total", J.Int ji.ji_total);
            ("respawns", J.Int ji.ji_respawns);
            ("cycles", J.Int (Int64.to_int ji.ji_cycles)) ])
      (job_infos t)
  in
  J.Obj
    [ ("round", J.Int (Jobqueue.round t.queue));
      ("pending", J.Int (List.length (Jobqueue.pending t.queue)));
      ("in_flight", J.Int (List.length (Jobqueue.in_flight t.queue)));
      ("corpus", J.Int (Corpus.count t.corpus_store));
      ("buckets", J.Int (Triage.count t.triage_store));
      ("jobs", J.List jobs) ]

let emit_status t =
  match t.status_sink with
  | None -> ()
  | Some sink ->
      let seq = t.status_seq in
      t.status_seq <- seq + 1;
      let extra =
        match status_json t with J.Obj fields -> fields | _ -> []
      in
      sink (Export.status_line ~extra ~seq (Hub.snapshot t.server_hub))

(* The round's bisection phase: minimize, one pool task per bucket,
   every bucket whose representative this round set.  A crash replaced
   later in the same round is no bucket's representative any more and
   is skipped; a serial run would have overwritten its repro too. *)
let bisect_round t =
  let pending = t.bisect_pending in
  t.bisect_pending <- [];
  let todo =
    List.filter_map
      (fun (b : Triage.bucket) ->
        List.find_opt (fun (c, _, _) -> c == b.Triage.b_rep) pending
        |> Option.map (fun request -> (b, request)))
      (Triage.buckets t.triage_store)
  in
  let results = minimize_all ~jobs:t.pool_jobs (List.map snd todo) in
  List.iteri
    (fun i (b, _) -> b.Triage.b_repro <- Option.map repro_of results.(i))
    todo

let step t =
  if Jobqueue.is_idle t.queue then false
  else begin
    let picks = Jobqueue.next t.queue ~max:t.pool_jobs in
    let runnable =
      List.filter
        (fun (id, _) ->
          let j = job t id in
          if j.j_cancel then true  (* post_round finishes it *)
          else if prepare t j then begin
            j.j_status <- Running;
            true
          end
          else begin
            Jobqueue.complete t.queue ~id ~consumed:0 ~finished:true;
            false
          end)
        picks
    in
    (* One pool task per picked job: disjoint universes and job
       records, so quanta run in parallel; the pool's join is the
       happens-before edge the main domain reads them across. *)
    let work =
      Array.of_list (List.map (fun (id, budget) -> (job t id, budget)) runnable)
    in
    let n = Array.length work in
    let rounds, _stats =
      Pool.run ~jobs:(min t.pool_jobs n) ~total:n ~init:ignore
        ~task:(fun () i ->
          let j, budget = work.(i) in
          if j.j_cancel then idle else exec_quantum j budget)
        ~on_crash:(fun exn i ->
          (* the universe failed to boot: nothing executed *)
          (fst work.(i)).j_universe <- None;
          { idle with panic = Some (Printexc.to_string exn) })
    in
    post_round t work rounds;
    bisect_round t;
    Registry.incr (counter t "service.rounds");
    emit_status t;
    true
  end

type drain_summary = {
  d_rounds : int;
  d_completed : int;
  d_failed : int;
  d_crashes : int;
  d_buckets : int;
  d_corpus : int;
  d_report_digest : string;
}

let corpus t = t.corpus_store

let triage t = t.triage_store

let hub t = t.server_hub

let distill t =
  let before, after = Corpus.distill t.corpus_store in
  Registry.set (gauge t "service.corpus_entries")
    (Int64.of_int (Corpus.count t.corpus_store));
  (before, after)

(* --- the merged report --- *)

let result_json (r : Campaign.result) =
  J.Obj
    [ ("reason", J.String (R.short_name r.Campaign.reason));
      ("area", J.String (Jobspec.area_string r.Campaign.area));
      ("seed_index", J.Int r.Campaign.seed_index);
      ("executed", J.Int r.Campaign.executed);
      ("baseline_lines", J.Int r.Campaign.baseline_lines);
      ("fuzz_lines", J.Int r.Campaign.fuzz_lines);
      ( "coverage_increase_pct",
        J.Float r.Campaign.coverage_increase_pct );
      ("vm_crashes", J.Int r.Campaign.vm_crashes);
      ("hv_crashes", J.Int r.Campaign.hv_crashes);
      ("crashing", J.Int (List.length r.Campaign.crashing)) ]

(* Group finished jobs by spec key: identical specs denote identical
   computations, so a group carries one result and a multiplicity.
   Keys are content-derived and the groups sort by key — submission
   order and job ids never reach the report. *)
let report t =
  let groups = Hashtbl.create 16 in
  List.iter
    (fun id ->
      let j = job t id in
      let prev =
        match Hashtbl.find_opt groups j.j_key with
        | Some l -> l
        | None -> []
      in
      Hashtbl.replace groups j.j_key (j :: prev))
    t.order;
  let keys =
    Hashtbl.fold (fun k _ acc -> k :: acc) groups [] |> List.sort compare
  in
  let job_objs =
    List.map
      (fun key ->
        let js = Hashtbl.find groups key in
        let statuses =
          List.map (fun j -> status_string j.j_status) js
          |> List.sort compare
        in
        let result =
          match List.find_opt (fun j -> j.j_result <> None) js with
          | Some j -> (
              match j.j_result with
              | Some r -> result_json r
              | None -> J.Null)
          | None -> J.Null
        in
        let sample = List.hd js in
        let partial =
          match sample.j_status with
          | Timed_out ->
              J.Obj
                [ ("executed", J.Int sample.j_done);
                  ("cycles", J.Int (Int64.to_int sample.j_cycles)) ]
          | _ -> J.Null
        in
        J.Obj
          [ ("key", J.String key);
            ("label", J.String (Jobspec.label sample.j_spec));
            ("tenant", J.String sample.j_spec.Jobspec.tenant);
            ("n", J.Int (List.length js));
            ("statuses", J.List (List.map (fun s -> J.String s) statuses));
            ("result", result);
            ("partial", partial) ])
      keys
  in
  J.Obj
    [ ("schema", J.String "iris-serve-report-v1");
      ("jobs", J.List job_objs);
      ( "corpus",
        J.Obj
          [ ("entries", J.Int (Corpus.count t.corpus_store));
            ("points", J.Int (Corpus.total_points t.corpus_store));
            ("digest", J.String (Corpus.digest t.corpus_store)) ] );
      ("triage", Triage.to_json t.triage_store) ]

let report_digest t =
  Fnv.to_hex (Fnv.string Fnv.init (J.to_string (report t)))

let drain t =
  let r0 = Jobqueue.round t.queue in
  while step t do
    ()
  done;
  let completed = ref 0 and failed = ref 0 in
  List.iter
    (fun id ->
      match (job t id).j_status with
      | Completed -> incr completed
      | Failed _ -> incr failed
      | _ -> ())
    t.order;
  { d_rounds = Jobqueue.round t.queue - r0;
    d_completed = !completed;
    d_failed = !failed;
    d_crashes = Triage.total t.triage_store;
    d_buckets = Triage.count t.triage_store;
    d_corpus = Corpus.count t.corpus_store;
    d_report_digest = report_digest t }

(* --- the determinism contract, re-replayed --- *)

type verify_summary = {
  v_corpus_checked : int;
  v_corpus_mismatches : int;
  v_buckets_checked : int;
  v_bucket_mismatches : int;
  v_buckets_unreproduced : int;
}

let verify_ok v =
  v.v_corpus_mismatches = 0
  && v.v_bucket_mismatches = 0
  && v.v_buckets_unreproduced = 0

let meta_key (m : Corpus.meta) =
  Printf.sprintf "%s|%d"
    (recording_key ~workload:m.Corpus.m_workload ~exits:m.Corpus.m_exits
       ~prng_seed:m.Corpus.m_prng_seed ~boot_scale:m.Corpus.m_boot_scale)
    m.Corpus.m_seed_index

let verify_corpus t =
  let groups = Hashtbl.create 8 in
  List.iter
    (fun (e : Corpus.entry) ->
      let k = meta_key e.Corpus.e_meta in
      let prev =
        match Hashtbl.find_opt groups k with Some l -> l | None -> []
      in
      Hashtbl.replace groups k (e :: prev))
    (Corpus.entries t.corpus_store);
  let checked = ref 0 and mismatches = ref 0 in
  Hashtbl.iter
    (fun _k entries ->
      match entries with
      | [] -> ()
      | e :: _ ->
          let m = e.Corpus.e_meta in
          let recording =
            ensure_recording t.cache ~workload:m.Corpus.m_workload
              ~exits:m.Corpus.m_exits ~prng_seed:m.Corpus.m_prng_seed
              ~boot_scale:m.Corpus.m_boot_scale
          in
          let replayer, anchor, _setup =
            Orchestrator.boot_universe ~recording
              ~seed_index:m.Corpus.m_seed_index ~name:"svc-verify-dummy" ()
          in
          List.iter
            (fun (e : Corpus.entry) ->
              let raw =
                Campaign.execute_case ~replayer ~anchor e.Corpus.e_seed
              in
              incr checked;
              if Campaign.raw_digest raw <> e.Corpus.e_digest then
                incr mismatches)
            (List.rev entries))
    groups;
  (!checked, !mismatches)

let verify_triage t =
  let by_key = Hashtbl.create 16 in
  List.iter
    (fun id ->
      let j = job t id in
      match (j.j_plan, j.j_recording) with
      | Some plan, Some recording ->
          if not (Hashtbl.mem by_key j.j_key) then
            Hashtbl.replace by_key j.j_key (plan, recording)
      | _ -> ())
    t.order;
  let mismatches = ref 0 and unreproduced = ref 0 in
  let checks =
    List.filter_map
      (fun (b : Triage.bucket) ->
        let rep = b.Triage.b_rep in
        match b.Triage.b_repro with
        | None ->
            incr unreproduced;
            None
        | Some repro -> (
            match Hashtbl.find_opt by_key rep.Triage.c_spec_key with
            | None ->
                incr mismatches;
                None
            | Some (plan, recording) -> Some (repro, (rep, recording, plan))))
      (Triage.buckets t.triage_store)
  in
  let results = minimize_all ~jobs:t.pool_jobs (List.map snd checks) in
  List.iteri
    (fun i (repro, _) ->
      match results.(i) with
      | Some check
        when check.Bisect.b_digest = repro.Triage.r_digest
             && check.Bisect.b_deterministic ->
          ()
      | Some _ | None -> incr mismatches)
    checks;
  (List.length checks, !mismatches, !unreproduced)

let verify t =
  let corpus_checked, corpus_mismatches = verify_corpus t in
  let buckets_checked, bucket_mismatches, unreproduced = verify_triage t in
  { v_corpus_checked = corpus_checked;
    v_corpus_mismatches = corpus_mismatches;
    v_buckets_checked = buckets_checked;
    v_bucket_mismatches = bucket_mismatches;
    v_buckets_unreproduced = unreproduced }
