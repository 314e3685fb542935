(* Host-time end-to-end benchmark of the IRIS reproduction.

     main.exe run --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                  [--out FILE] [--spans FILE]
     main.exe compare [--bench BENCHMARK.json] --parent RUN.json...
                  --change RUN.json...
     main.exe smoke BENCHMARK.json

   [run] prints progress on stderr and, as the last line of stdout, one
   JSON object: correct, attempted, failed and the metrics (end-to-end
   ones untraced, per-layer ones with --trace 1).  All times are host
   wall-clock time from the monotonic clock; the model's virtual
   cycles appear only inside the digests that check correctness. *)

let workloads =
  [ Record_replay.workload; Campaigns.postboot; Campaigns.osboot;
    Serve_tenants.workload ]

let find name =
  match List.find_opt (fun w -> w.Harness.name = name) workloads with
  | Some w -> w
  | None ->
      Printf.eprintf "unknown workload %S (try: %s)\n" name
        (String.concat ", " (List.map (fun w -> w.Harness.name) workloads));
      exit 2

let usage () =
  prerr_endline
    "usage: main.exe run --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
     [--out FILE] [--spans FILE]\n\
    \       main.exe compare [--bench FILE] --parent RUN.json... --change RUN.json...\n\
    \       main.exe smoke BENCHMARK.json";
  exit 2

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  output_char oc '\n';
  close_out oc

let run args =
  let workload = ref None and seed = ref Harness.default_seed in
  let seconds = ref 10.0 and trace = ref false in
  let out = ref None and spans = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := Some v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := v = "1"; parse rest
    | "--out" :: v :: rest -> out := Some v; parse rest
    | "--spans" :: v :: rest -> spans := Some v; parse rest
    | _ -> usage ()
  in
  (try parse args with Failure _ -> usage ());
  let w = find (match !workload with Some w -> w | None -> usage ()) in
  let r =
    Harness.run w ~seed:!seed ~seconds:!seconds ~trace:!trace ~smoke:false
  in
  List.iter (fun p -> Printf.eprintf "problem: %s\n" p) r.Harness.r_problems;
  Printf.eprintf "%s seed %d: %d repetitions, digest %s\n%!" r.Harness.r_workload
    r.Harness.r_seed r.Harness.r_reps r.Harness.r_digest;
  Option.iter
    (fun path -> write_file path (Iris_telemetry.Json.to_string (Harness.full_json r)))
    !out;
  Option.iter Spans.write !spans;
  print_endline (Iris_telemetry.Json.to_string (Harness.summary_json r))

let compare_runs args =
  let bench = ref "BENCHMARK.json" and parent = ref [] and change = ref [] in
  let side = ref None in
  let rec parse = function
    | [] -> ()
    | "--bench" :: v :: rest -> bench := v; parse rest
    | "--parent" :: rest -> side := Some parent; parse rest
    | "--change" :: rest -> side := Some change; parse rest
    | f :: rest -> (
        match !side with
        | Some l -> l := f :: !l; parse rest
        | None -> usage ())
  in
  parse args;
  if !parent = [] || !change = [] then usage ();
  exit
    (Compare.main ~bench:!bench ~parent:(List.rev !parent)
       ~change:(List.rev !change))

(* Every workload at about 1/50 size, untraced then traced: the traced
   decomposition must reproduce the untraced digests, the layers must
   explain at least 90% of traced time, and the metric names emitted
   must be exactly the ones BENCHMARK.json declares. *)
let smoke bench =
  let module J = Iris_telemetry.Json in
  let spec =
    match J.of_string (In_channel.with_open_bin bench In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith (bench ^ ": " ^ e)
  in
  let declared key =
    let entries = J.to_list (Option.value ~default:J.Null (J.member key spec)) in
    List.sort compare
      (List.filter_map (fun m -> Option.bind (J.member "name" m) J.string_value) entries)
  in
  let names r = List.sort compare (List.map (fun m -> m.Harness.m_name) r.Harness.r_metrics) in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  List.iter
    (fun w ->
      let go trace = Harness.run w ~seed:Harness.default_seed ~seconds:0.0 ~trace ~smoke:true in
      let (u, t), secs = Measure.time (fun () -> let u = go false in (u, go true)) in
      let frac =
        (List.find (fun m -> m.Harness.m_name = "traced.attributed_frac") t.Harness.r_metrics)
          .Harness.m_value
      in
      Printf.printf "%-18s %5.2f s  digest %s  attributed %.3f\n%!" w.Harness.name secs
        u.Harness.r_digest frac;
      List.iter
        (fun r ->
          if not (Harness.correct r) then
            fail "%s: incorrect (%d failed): %s" w.Harness.name r.Harness.r_failed
              (String.concat "; " r.Harness.r_problems))
        [ u; t ];
      if u.Harness.r_digest <> t.Harness.r_digest then
        fail "%s: digests differ between the untraced and traced runs" w.Harness.name;
      if not (frac >= 0.9) then fail "%s: attributed_frac %.3f < 0.9" w.Harness.name frac;
      if names u <> declared "end_to_end" then
        fail "%s: end-to-end metrics differ from %s" w.Harness.name bench;
      if names t <> declared "per_layer" then
        fail "%s: per-layer metrics differ from %s" w.Harness.name bench)
    workloads;
  match !failures with
  | [] -> print_endline "smoke: ok"
  | fs ->
      List.iter prerr_endline (List.rev fs);
      exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args -> run args
  | "compare" :: args -> compare_runs args
  | [ "smoke"; bench ] -> smoke bench
  | _ -> usage ()
