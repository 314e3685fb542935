module Manager = Iris_core.Manager
module Analysis = Iris_core.Analysis
module Campaign = Iris_fuzzer.Campaign
module Orch = Iris_orchestrator.Orchestrator
module Dc = Iris_differential.Diffcampaign
module Locator = Iris_inspect.Locator
module Server = Iris_service.Server

let ( let* ) = Result.bind

let same ~what = function
  | [] -> Ok ()
  | (base_label, base) :: rest -> (
      match List.find_opt (fun (_, v) -> v <> base) rest with
      | None -> Ok ()
      | Some (label, v) ->
          Error
            (Printf.sprintf "%s: %s (%s) differs from %s (%s)" what label v
               base_label base))

let jobs_label jobs = Printf.sprintf "jobs=%d" jobs

let last jobs = List.nth jobs (List.length jobs - 1)

let campaign ~recording ~config ~jobs =
  let reason = Scenario.campaign_reason and area = Scenario.campaign_area in
  let trace = recording.Manager.trace in
  match Campaign.plan ~config ~trace ~reason ~area with
  | None ->
      Error
        ("no " ^ Iris_vtx.Exit_reason.short_name reason ^ " seed in the trace")
  | Some plan ->
      (* The oracle: one dummy pinning S_R with a deep snapshot. *)
      let replayer = Orch.dummy ~recording ~name:"oracle-dummy" in
      let seed_index = plan.Campaign.plan_target.Iris_core.Seed.index in
      let anchor =
        Campaign.Anchor_full (Campaign.reach_sr ~replayer ~trace ~seed_index)
      in
      let sequential = Campaign.execute ~replayer ~anchor plan in
      (* the plan exists, so every sharded run does too *)
      let fuzz j =
        Option.get (Orch.fuzz ~jobs:j ~config ~recording ~reason ~area ())
      in
      let runs = List.map (fun j -> (j, fuzz j)) jobs in
      let labelled f =
        List.map (fun (j, o) -> (jobs_label j, Scenario.digest (f o))) runs
      in
      let* () =
        same ~what:"campaign report"
          (("sequential full restore", Scenario.digest sequential)
          :: labelled (fun o -> o.Orch.fuzz_result))
      in
      let* () =
        same ~what:"merged telemetry"
          (labelled (fun o ->
               Iris_telemetry.Hub.snapshot o.Orch.fuzz_report.Orch.r_hub))
      in
      Ok runs

let trace_digest record =
  let digest () = Iris_core.Trace.digest (record ()).Manager.trace in
  let first = digest () in
  let* () =
    same ~what:"trace digest" [ ("first", first); ("second", digest ()) ]
  in
  Ok first

type locate = { divergence : Analysis.divergence; report : Locator.report }

let locate ~manager ~recording ~reference ?planted ?(thorough = false) ~every
    seeds =
  let revert_to = recording.Manager.snapshot in
  let linear = Manager.replay_seeds manager ~revert_to seeds in
  let crashed =
    match linear.Manager.outcome with
    | Iris_core.Replayer.Vm_crashed msg -> Some (linear.Manager.submitted, msg)
    | Iris_core.Replayer.Replayed -> None
  in
  let divergence =
    Analysis.divergence ?crashed ~recorded:reference
      ~replayed:linear.Manager.replay_trace ()
  in
  let replayer = Manager.make_dummy manager ~revert_to () in
  let session = Iris_inspect.Session.start ~every ~replayer ~seeds () in
  let report = Locator.locate ~thorough session ~reference in
  Iris_inspect.Session.finish session;
  let truth = Option.map (fun d -> d.Analysis.d_index) divergence.dv_first
  and located = Option.map (fun d -> d.Locator.dg_index) report.first_divergent
  and show = Option.fold ~none:"none" ~some:(Printf.sprintf "#%d") in
  let* () =
    same ~what:"first divergent seed"
      (List.map
         (fun (label, i) -> (label, show i))
         ((if planted = None then [] else [ ("planted", planted) ])
         @ [ ("linear ground truth", truth); ("locator", located) ]))
  in
  Ok { divergence; report }

type diff = {
  unperturbed : Dc.report;
  planted : (Iris_svm.Machine.asymmetry * int list * Dc.report) list;
}

let diff ~recording ~plants =
  let trace = recording.Manager.trace in
  let sweep ?plant () =
    Dc.run ?plant ~replayer:(Orch.dummy ~recording ~name:"diff-dummy") ~trace ()
  in
  let unperturbed = sweep () in
  let* () =
    same ~what:"unperturbed findings"
      [ ("expected", "0");
        ("found", string_of_int (List.length unperturbed.Dc.findings)) ]
  in
  let planted =
    List.map
      (fun plant ->
        (plant, Dc.expected_planted ~plant trace, sweep ~plant ()))
      plants
  in
  let indices l = String.concat " " (List.map string_of_int l) in
  let* () =
    List.fold_left
      (fun verdict (plant, expected, r) ->
        let* () = verdict in
        same
          ~what:(Iris_svm.Machine.asymmetry_name plant ^ " plant findings")
          [ ("ground truth", indices expected);
            ("detected", indices (Dc.finding_indices r)) ])
      (Ok ()) planted
  in
  Ok { unperturbed; planted }

type drained = {
  label : string;
  server : Server.t;
  summary : Server.drain_summary;
  wall_s : float;
}

type serve = { drains : drained list; verify : Server.verify_summary }

let serve ~recordings ~quantum ~jobs specs =
  let drain label jobs specs =
    let t0 = Scenario.wall_now () in
    let server = Server.create ~jobs ~quantum ~recordings () in
    List.iter (fun s -> ignore (Server.submit server s : int)) specs;
    let summary = Server.drain server in
    { label; server; summary; wall_s = Scenario.wall_now () -. t0 }
  in
  let in_order = List.map (fun j -> drain (jobs_label j) j specs) jobs in
  let drains =
    in_order
    @ [ drain (jobs_label (last jobs) ^ " reversed") (last jobs)
          (List.rev specs) ]
  in
  let labelled f = List.map (fun d -> (d.label, f d)) drains in
  let* () =
    same ~what:"completed jobs"
      (("submitted", string_of_int (List.length specs))
      :: labelled (fun d -> string_of_int d.summary.Server.d_completed))
  in
  let* () =
    same ~what:"drained report"
      (labelled (fun d ->
           Scenario.digest
             (Iris_telemetry.Json.to_string (Server.report d.server))))
  in
  let verify = Server.verify (last in_order).server in
  if Server.verify_ok verify then Ok { drains; verify }
  else Error "replay-from-corpus verification failed"
