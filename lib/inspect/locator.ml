module Replayer = Iris_core.Replayer
module Recorder = Iris_core.Recorder
module Analysis = Iris_core.Analysis
module Trace = Iris_core.Trace
module Metrics = Iris_core.Metrics
module Diff = Iris_coverage.Diff
module Cov = Iris_coverage.Cov
module R = Iris_vtx.Exit_reason
module T = Iris_telemetry

type diagnosis = {
  dg_index : int;
  dg_reason : R.t;
  dg_cov_missing : int;
  dg_cov_extra : int;
  dg_components : (Iris_coverage.Component.t * int) list;
  dg_write_deltas :
    (Iris_vmcs.Field.t * int64 option * int64 option) list;
  dg_crashed : string option;
}

type report = {
  first_divergent : diagnosis option;
  checkpoints : int;
  reverts : int;
  probes : int;
  seeds_instrumented : int;
  seeds_forward : int;
  linear_seeds : int;
  crashed_at : (int * string) option;
}

(* Positional VMWRITE-sequence deltas: the handler's guest-state
   writes in execution order, recorded vs replayed. *)
let write_deltas recorded replayed =
  let rec loop rs ps acc =
    match (rs, ps) with
    | [], [] -> List.rev acc
    | (f, v) :: rs', [] -> loop rs' [] ((f, Some v, None) :: acc)
    | [], (f, v) :: ps' -> loop [] ps' ((f, None, Some v) :: acc)
    | (rf, rv) :: rs', (pf, pv) :: ps' ->
        if rf = pf && rv = pv then loop rs' ps' acc
        else if rf = pf then loop rs' ps' ((rf, Some rv, Some pv) :: acc)
        else
          loop rs' ps' ((pf, None, Some pv) :: (rf, Some rv, None) :: acc)
  in
  loop recorded replayed []

let seed_reason (reference : Trace.t) i =
  if i < Array.length reference.Trace.seeds then
    reference.Trace.seeds.(i).Iris_core.Seed.reason
  else R.Preemption_timer

let diagnose ~reference ~index ~(recorded : Metrics.t)
    ~(replayed : Metrics.t) =
  let d =
    Diff.diff ~recorded:recorded.Metrics.coverage
      ~replayed:replayed.Metrics.coverage
  in
  { dg_index = index;
    dg_reason = seed_reason reference index;
    dg_cov_missing = Cov.Pset.cardinal d.Diff.missing;
    dg_cov_extra = Cov.Pset.cardinal d.Diff.extra;
    dg_components = Diff.by_component d;
    dg_write_deltas =
      write_deltas
        (Metrics.guest_state_writes recorded)
        (Metrics.guest_state_writes replayed);
    dg_crashed = None }

let locate ?(noise_threshold = Diff.noise_threshold) ?(thorough = false)
    session ~reference =
  let rep = Session.replayer session in
  let ctx = Replayer.ctx rep in
  let now () = Iris_vtx.Clock.now (Iris_hv.Ctx.clock ctx) in
  let probe_t = Iris_hv.Observe.probe ctx in
  let counter name =
    match probe_t with
    | None -> None
    | Some p ->
        Some
          (T.Registry.counter (T.Probe.hub p).T.Hub.registry name)
  in
  let bump c n = match c with None -> () | Some c -> T.Registry.add c n in
  let c_probes = counter "inspect.probes" in
  let c_reverts = counter "inspect.reverts" in
  let c_instr = counter "inspect.seeds_instrumented" in
  (match probe_t with
  | None -> ()
  | Some p ->
      T.Tracer.begin_span (T.Probe.hub p).T.Hub.tracer ~cat:"inspect"
        ~tid:(T.Probe.tid p) ~name:"locate" ~ts:(now ()));
  let k = Session.every session in
  let crash = Session.crashed_at session in
  let ref_len = Array.length reference.Trace.metrics in
  let hard_limit =
    match crash with Some (c, _) -> c | None -> Session.length session
  in
  let cmp = min hard_limit ref_len in
  let checkpoints = Session.checkpoints session in
  let reverts0 = Session.reverts session in
  let probes = ref 0 in
  let instrumented = ref 0 in
  (* Instrumented probe of segment [s]: rewind to its mark, replay
     its seeds under a metrics recorder, compare each against the
     reference with the shared predicate.  Returns the earliest
     divergence in the segment, fully diagnosed. *)
  let probe_segment s =
    let start = s * k in
    let stop = min ((s + 1) * k) cmp in
    Session.goto session start;
    let recorder =
      Recorder.start ~store_seeds:false ~store_metrics:true ctx
    in
    Session.goto session stop;
    let probe_trace =
      Recorder.stop recorder ~workload:"probe" ~prng_seed:0
    in
    let got = stop - start in
    instrumented := !instrumented + got;
    bump c_instr got;
    incr probes;
    bump c_probes 1;
    let found = ref None in
    for j = got - 1 downto 0 do
      let idx = start + j in
      match
        Analysis.seed_diverges ~noise_threshold ~index:idx
          ~reason:(seed_reason reference idx)
          ~recorded:reference.Trace.metrics.(idx)
          ~replayed:probe_trace.Trace.metrics.(j) ()
      with
      | Some _ ->
          found :=
            Some
              (diagnose ~reference ~index:idx
                 ~recorded:reference.Trace.metrics.(idx)
                 ~replayed:probe_trace.Trace.metrics.(j))
      | None -> ()
    done;
    !found
  in
  (* The detection pass dying where the reference survived is itself
     a divergence, and it seeds the scan: with a known divergence in
     hand, the backward sweep can stop at the first clean segment
     instead of probing all the way down. *)
  let crash_diag =
    match crash with
    | Some (c, msg) when c < ref_len ->
        Some
          { dg_index = c;
            dg_reason = seed_reason reference c;
            dg_cov_missing = 0;
            dg_cov_extra = 0;
            dg_components = [];
            dg_write_deltas = [];
            dg_crashed = Some msg }
    | Some _ | None -> None
  in
  let best = ref crash_diag in
  if cmp > 0 then begin
    let last_seg = (cmp - 1) / k in
    let s = ref last_seg in
    let stop_scan = ref false in
    while not !stop_scan && !s >= 0 do
      (match probe_segment !s with
      | Some d -> best := Some d
      | None ->
          (* Clean segment below a divergent one: on a single-fault
             trace the divergence above is the first.  [thorough]
             keeps going for the guaranteed global minimum. *)
          if !best <> None && not thorough then stop_scan := true);
      decr s
    done
  end;
  let first = !best in
  let reverts = Session.reverts session - reverts0 in
  bump c_reverts reverts;
  (match probe_t with
  | None -> ()
  | Some p ->
      T.Tracer.end_span (T.Probe.hub p).T.Hub.tracer ~name:"locate"
        ~args:
          [ ( "first_divergent",
              match first with
              | Some d -> string_of_int d.dg_index
              | None -> "none" );
            ("probes", string_of_int !probes) ]
        ~ts:(now ()));
  { first_divergent = first;
    checkpoints;
    reverts;
    probes = !probes;
    seeds_instrumented = !instrumented;
    seeds_forward = Session.seeds_forward session;
    linear_seeds =
      (match first with Some d -> d.dg_index + 1 | None -> cmp);
    crashed_at = crash }
