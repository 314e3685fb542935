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

(* One entry per recording: its provenance index is built on first use,
   on the main domain (by [note_crashes]), and shared by every server
   that shares the cache. *)
type entry = {
  recording : Manager.recording;
  provenance : Provenance.t Lazy.t;
}

type recordings = (string, entry) Hashtbl.t

let recordings () : recordings = Hashtbl.create 8

let recording_key ~workload ~exits ~prng_seed ~boot_scale =
  Printf.sprintf "%s|%d|%d|%.6f" (W.name workload) exits prng_seed boot_scale

let ensure_recording (cache : recordings) ~workload ~exits ~prng_seed
    ~boot_scale =
  let key = recording_key ~workload ~exits ~prng_seed ~boot_scale in
  match Hashtbl.find_opt cache key with
  | Some e -> e
  | None ->
      let mgr = Manager.create ~boot_scale ~prng_seed () in
      let recording =
        Manager.record ~store_seeds:true ~store_metrics:false mgr workload
          ~exits
      in
      let e =
        { recording;
          provenance = lazy (Provenance.build recording.Manager.trace) }
      in
      Hashtbl.replace cache key e;
      e

(* A recording and a seed index in it: corpus entries, and crashes to
   minimize, that share one of these share a replayed prefix. *)
let meta_key (m : Corpus.meta) =
  Printf.sprintf "%s|%d"
    (recording_key ~workload:m.Corpus.m_workload ~exits:m.Corpus.m_exits
       ~prng_seed:m.Corpus.m_prng_seed ~boot_scale:m.Corpus.m_boot_scale)
    m.Corpus.m_seed_index

(* [group_by key xs] groups [xs] by [key]: groups in order of first
   appearance, members in list order. *)
let group_by key xs =
  let tbl = Hashtbl.create 16 and firsts = ref [] in
  List.iter
    (fun x ->
      let k = key x in
      match Hashtbl.find_opt tbl k with
      | Some members -> Hashtbl.replace tbl k (x :: members)
      | None ->
          Hashtbl.replace tbl k [ x ];
          firsts := k :: !firsts)
    xs;
  List.rev_map (fun k -> (k, List.rev (Hashtbl.find tbl k))) !firsts

(* --- jobs --- *)

(* What a job runs, fixed the first time it is picked. *)
type run = {
  entry : entry;
  plan : Campaign.plan;
  meta : Corpus.meta;                (* its recording and target seed *)
  raws : Campaign.raw option array;  (* filled in case order *)
}

type job = {
  j_id : int;
  j_spec : Jobspec.t;
  j_key : string;
  j_hub : Hub.t;
  mutable j_status : status;
  mutable j_run : run option;
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
  corpus_store : Corpus.t;
  triage_store : Triage.t;
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
    corpus_store = Corpus.create ();
    triage_store = Triage.create ();
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
      j_run = None;
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

(* --- how a job ends (main domain: touches the shared stores) --- *)

(* Count a completed job's crashing cases into triage.  A crash that
   creates a bucket or takes over its representative leaves the bucket
   in {!Triage.take_changed} for the round's bisection. *)
let note_crashes t ~key { entry; plan; _ } raws =
  let seed_index = plan.Campaign.plan_target.Seed.index in
  let devices =
    List.map
      (fun (d, n) -> (Provenance.device_name d, n))
      (Provenance.devices_touched ~before:seed_index
         (Lazy.force entry.provenance))
  in
  Array.iteri
    (fun i (raw : Campaign.raw) ->
      if raw.Campaign.raw_failure <> Campaign.No_failure then begin
        let crash =
          { Triage.c_spec_key = key;
            c_case = i;
            c_reason = plan.Campaign.plan_reason;
            c_failure = raw.Campaign.raw_failure;
            c_detail = raw.Campaign.raw_detail;
            c_span = Corpus.points_of_span raw.Campaign.raw_span;
            c_devices = devices }
        in
        (* minimized after the round, by [bisect_round] *)
        (match Triage.note t.triage_store crash ~minimize:(fun () -> None)
         with
        | `New -> Registry.incr (counter t "service.triage_new_buckets")
        | `Counted | `Replaced -> ());
        Registry.incr (counter t "service.crashes")
      end)
    raws

(* A completed job's result, corpus admissions and crashes. *)
let record_completion t job =
  let run = Option.get job.j_run in
  let raws = Array.map Option.get run.raws in
  let result = Campaign.finalize ~plan:run.plan ~raws in
  job.j_result <- Some result;
  let admitted, dups =
    Corpus.admit_plan t.corpus_store ~meta:run.meta ~plan:run.plan ~raws
  in
  Registry.add (counter t "service.corpus_admitted") admitted;
  Registry.add (counter t "service.corpus_duplicates") dups;
  note_crashes t ~key:job.j_key run raws;
  Registry.add (counter t "service.vm_crashes") result.Campaign.vm_crashes;
  Registry.add (counter t "service.hv_crashes") result.Campaign.hv_crashes;
  Hub.merge_into ~into:t.server_hub job.j_hub;
  Registry.set (gauge t "service.corpus_entries")
    (Int64.of_int (Corpus.count t.corpus_store));
  Registry.set (gauge t "service.triage_buckets")
    (Int64.of_int (Triage.count t.triage_store))

(* Every way a job ends: it takes its terminal status, the one
   [service.jobs_*] counter for that status moves, its universe is
   dropped and it leaves the queue, charged [consumed] cases.  A queued
   job that is cancelled has already left through [Jobqueue.cancel], so
   [Jobqueue.complete] finds nothing to do for it. *)
let finish t job ~consumed status =
  let tally =
    match status with
    | Completed ->
        record_completion t job;
        "service.jobs_completed"
    | No_seed -> "service.jobs_no_seed"
    | Cancelled -> "service.jobs_cancelled"
    | Timed_out -> "service.jobs_timed_out"
    | Failed _ -> "service.jobs_failed"
    | Queued | Running -> invalid_arg "Server.finish: not a terminal status"
  in
  job.j_status <- status;
  Registry.incr (counter t tally);
  job.j_universe <- None;
  Jobqueue.complete t.queue ~id:job.j_id ~consumed ~finished:true

let cancel t id =
  match Hashtbl.find_opt t.jobs id with
  | None -> false
  | Some job when finished job -> false
  | Some job ->
      job.j_cancel <- true;
      (* a job in flight ends at its quantum boundary, in [post_round] *)
      if Jobqueue.cancel t.queue id then finish t job ~consumed:0 Cancelled;
      true

(* --- per-job preparation (main domain: touches the shared caches) --- *)

(* Plan a job the first time it is picked.  Returns the status it ends
   with instead when it cannot run: no seed with the requested reason,
   or recording or planning raised. *)
let prepare t job =
  if Option.is_some job.j_run then None
  else
    let s = job.j_spec in
    match
      let entry =
        ensure_recording t.cache ~workload:s.Jobspec.workload
          ~exits:s.Jobspec.exits ~prng_seed:s.Jobspec.prng_seed
          ~boot_scale:s.Jobspec.boot_scale
      in
      let config =
        { Campaign.mutations = s.Jobspec.mutations;
          prng_seed = s.Jobspec.prng_seed }
      in
      ( entry,
        Campaign.plan ~config ~trace:entry.recording.Manager.trace
          ~reason:s.Jobspec.reason ~area:s.Jobspec.area )
    with
    | _, None -> Some No_seed
    | entry, Some plan ->
        job.j_run <-
          Some
            { entry;
              plan;
              meta =
                { Corpus.m_workload = s.Jobspec.workload;
                  m_exits = s.Jobspec.exits;
                  m_prng_seed = s.Jobspec.prng_seed;
                  m_boot_scale = s.Jobspec.boot_scale;
                  m_seed_index = plan.Campaign.plan_target.Seed.index };
              raws = Array.make (Campaign.case_count plan) None };
        None
    | exception exn -> Some (Failed ("prepare: " ^ Printexc.to_string exn))

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
  let { entry; plan; raws; _ } = Option.get job.j_run in
  let total = Campaign.case_count plan in
  let replayer, anchor =
    match job.j_universe with
    | Some u -> u
    | None ->
        let replayer, anchor, _setup =
          Orchestrator.boot_universe ~hub:job.j_hub ~recording:entry.recording
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
          raws.(i) <- Some raw;
          job.j_cycles <- Int64.add job.j_cycles raw.Campaign.raw_cycles;
          go (consumed + 1)
      | exception exn ->
          let msg = Printexc.to_string exn in
          raws.(i) <- Some (Campaign.crash_raw msg);
          job.j_universe <- None;
          { consumed = consumed + 1; panic = Some msg; timeout = false }
    end
  in
  go 0

(* --- crash minimization (pooled; main domain before and after) --- *)

(* The run a crash came from.  Every job of one spec key runs one plan
   on one cached recording, so the latest planned one stands for all. *)
let run_of t key =
  List.find_map
    (fun id ->
      let j = job t id in
      if j.j_key = key then j.j_run else None)
    t.order

(* Minimize each bucket's representative into a digest-verified
   reproducer, in two pool phases, and return every bucket whose run
   [run_of] resolves with its result.  The search phase runs one task
   per (recording, target index) group, so one [Bisect.search] shares
   every replayed prefix state among the group's crashers; an
   exception in a group's search reads as unreproduced for every
   request of that group.  The verification phase runs one task per
   request — its two from-scratch replays are the larger share, and
   most rounds bring a single group — and a verification that raises
   reads as unreproduced for its request.  Tasks share only the
   read-only recordings and plans, and each result is a function of
   its request alone, whatever [jobs] is.  A worker's dummies all
   build on the worker's one coverage store: a fresh store per dummy
   is ~0.6 MB of arrays, and that churn spread over the workers'
   malloc arenas makes the process's peak resident set vary from run
   to run. *)
let minimize_all t buckets =
  let requests =
    Array.of_list
      (List.filter_map
         (fun (b : Triage.bucket) ->
           Option.map
             (fun run -> (b, run))
             (run_of t b.Triage.b_rep.Triage.c_spec_key))
         buckets)
  in
  let n = Array.length requests in
  if n = 0 then []
  else
    let rep i = (fst requests.(i)).Triage.b_rep in
    let run i = snd requests.(i) in
    let index i = (run i).plan.Campaign.plan_target.Seed.index in
    let make_replayer ~cov i () =
      Orchestrator.dummy_on ~cov ~recording:(run i).entry.recording
        ~name:(Printf.sprintf "svc-%s-triage" (rep i).Triage.c_spec_key)
    in
    let prefix i =
      Array.sub (run i).entry.recording.Manager.trace.Trace.seeds 0 (index i)
    in
    let crasher i = Campaign.case (run i).plan (rep i).Triage.c_case in
    let groups =
      group_by (fun i -> meta_key (run i).meta) (List.init n Fun.id)
      |> List.map (fun (_, members) -> Array.of_list members)
      |> Array.of_list
    in
    let covs = Array.init (min t.pool_jobs n) (fun _ -> Cov.create ()) in
    let pooled ~total task ~on_crash =
      fst
        (Pool.run ~jobs:t.pool_jobs ~total ~init:(fun w -> covs.(w)) ~task
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
    let verified =
      pooled ~total:n
        (fun cov i ->
          Option.map
            (Bisect.verify ~make_replayer:(make_replayer ~cov i)
               ~prefix:(prefix i) ~crasher:(crasher i))
            searched.(i))
        ~on_crash:(fun _exn _i -> None)
    in
    List.init n (fun i -> (fst requests.(i), verified.(i)))

let repro_of (b : Bisect.result) =
  { Triage.r_digest = b.Bisect.b_digest;
    r_seeds = Array.length b.Bisect.b_seeds;
    r_deterministic = b.Bisect.b_deterministic;
    r_attempts = b.Bisect.b_attempts }

(* The round's bisection phase: minimize the representative of every
   bucket the round's crashes created or took over.  A representative
   replaced later in the same round is its bucket's no longer, so only
   the final one is minimized, as a serial run would have left it. *)
let bisect_round t =
  List.iter
    (fun ((b : Triage.bucket), result) ->
      b.Triage.b_repro <- Option.map repro_of result)
    (minimize_all t (Triage.take_changed t.triage_store))

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
      let finish = finish t job ~consumed in
      if job.j_cancel then finish Cancelled
      else if job.j_done >= Campaign.case_count (Option.get job.j_run).plan
      then finish Completed
      else if timeout then finish Timed_out
      else
        match panic with
        | Some msg when job.j_respawns >= max_respawns ->
            finish (Failed ("respawn budget exhausted: " ^ msg))
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
          (match j.j_run with
          | Some r -> Campaign.case_count r.plan
          | None -> -1);
        ji_respawns = j.j_respawns;
        ji_cycles = j.j_cycles })
    t.order

let status_fields t =
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
      sink
        (Export.status_line ~extra:(status_fields t) ~seq
           (Hub.snapshot t.server_hub))

let step t =
  if Jobqueue.is_idle t.queue then false
  else begin
    (* One pool task per picked job: disjoint universes and job
       records, so quanta run in parallel; the pool's join is the
       happens-before edge the main domain reads them across. *)
    let work =
      Jobqueue.next t.queue ~max:t.pool_jobs
      |> List.filter_map (fun (id, budget) ->
             let j = job t id in
             if j.j_cancel then Some (j, budget) (* post_round finishes it *)
             else
               match prepare t j with
               | None ->
                   j.j_status <- Running;
                   Some (j, budget)
               | Some status ->
                   finish t j ~consumed:0 status;
                   None)
      |> Array.of_list
    in
    let n = Array.length work in
    let rounds, _stats =
      Pool.run ~jobs:t.pool_jobs ~total:n ~init:ignore
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
  let groups =
    group_by (fun j -> j.j_key) (List.rev_map (job t) t.order)
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let job_objs =
    List.map
      (fun (key, js) ->
        let statuses =
          List.map (fun j -> status_string j.j_status) js
          |> List.sort compare
        in
        let result =
          match List.find_map (fun j -> j.j_result) js with
          | Some r -> result_json r
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
      groups
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
  let statuses = List.map (fun id -> (job t id).j_status) t.order in
  let count p = List.length (List.filter p statuses) in
  { d_rounds = Jobqueue.round t.queue - r0;
    d_completed = count (( = ) Completed);
    d_failed = count (function Failed _ -> true | _ -> false);
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

let verify_corpus t =
  List.fold_left
    (fun (checked, mismatches) (_, entries) ->
      let m = (List.hd entries).Corpus.e_meta in
      let { recording; _ } =
        ensure_recording t.cache ~workload:m.Corpus.m_workload
          ~exits:m.Corpus.m_exits ~prng_seed:m.Corpus.m_prng_seed
          ~boot_scale:m.Corpus.m_boot_scale
      in
      let n = List.length entries in
      (* A loaded entry may name a seed its recorded trace does not
         have: it cannot reproduce, so every entry of the group is a
         mismatch. *)
      let seeds = recording.Manager.trace.Trace.seeds in
      if m.Corpus.m_seed_index >= Array.length seeds then
        (checked + n, mismatches + n)
      else
        let replayer, anchor, _setup =
          Orchestrator.boot_universe ~recording
            ~seed_index:m.Corpus.m_seed_index ~name:"svc-verify-dummy" ()
        in
        let differs (e : Corpus.entry) =
          Campaign.raw_digest
            (Campaign.execute_case ~replayer ~anchor e.Corpus.e_seed)
          <> e.Corpus.e_digest
        in
        (checked + n, mismatches + List.length (List.filter differs entries)))
    (0, 0)
    (group_by
       (fun (e : Corpus.entry) -> meta_key e.Corpus.e_meta)
       (Corpus.entries t.corpus_store))

(* Re-minimize every bucket that has a reproducer; it must land on the
   stored digest, deterministically. *)
let verify_triage t =
  let buckets = Triage.buckets t.triage_store in
  let reproduced =
    List.filter (fun (b : Triage.bucket) -> Option.is_some b.Triage.b_repro)
      buckets
  in
  let matches ((b : Triage.bucket), check) =
    match (b.Triage.b_repro, check) with
    | Some repro, Some check ->
        check.Bisect.b_digest = repro.Triage.r_digest
        && check.Bisect.b_deterministic
    | _ -> false
  in
  let checked = List.length reproduced in
  let matched = List.filter matches (minimize_all t reproduced) in
  (checked, checked - List.length matched, List.length buckets - checked)

let verify t =
  let corpus_checked, corpus_mismatches = verify_corpus t in
  let buckets_checked, bucket_mismatches, unreproduced = verify_triage t in
  { v_corpus_checked = corpus_checked;
    v_corpus_mismatches = corpus_mismatches;
    v_buckets_checked = buckets_checked;
    v_bucket_mismatches = bucket_mismatches;
    v_buckets_unreproduced = unreproduced }
