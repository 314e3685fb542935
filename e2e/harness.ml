(* What every workload provides, and the run loop that turns its
   repetitions into the reported metrics.

   A run sets the workload up three times (the median is [setup_s]),
   runs one warm-up repetition with the workload's extra cross-checks,
   then repeats until [seconds] have been measured.  Untraced runs
   report the end-to-end metrics; traced runs alternate an untraced and
   a traced repetition of the same work and report per-layer self time
   and counts.  Every repetition of a run must produce the same result
   digest. *)

type rep = {
  wall_s : float;
  ops : int;                                 (* operations completed *)
  failed : int;                              (* operations that failed *)
  latencies : (string * float array) list;   (* request class -> seconds *)
  digest : string;
}

type traced = {
  t_wall_s : float;    (* wall time of the traced work *)
  t_base_s : float;    (* the same work untraced, timed alongside *)
  t_ops : int;
  t_failed : int;
  t_digest : string;
  t_counts : (string * float) list;
  t_problems : string list;
}

(* A traced repetition whose untraced baseline is an ordinary [rep] of
   the same work: both count as attempted, and their digests must
   agree. *)
let traced_after ~(base : rep) ~wall_s ~ops ~failed ~digest ~counts =
  { t_wall_s = wall_s;
    t_base_s = base.wall_s;
    t_ops = base.ops + ops;
    t_failed = base.failed + failed;
    t_digest = digest;
    t_counts = counts;
    t_problems =
      (if base.digest <> digest then
         [ Printf.sprintf "traced digest %s differs from untraced %s" digest
             base.digest ]
       else []) }

let sum_counts kvs =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (k, v) ->
      Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k)))
    kvs;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []

type instance = {
  rep : unit -> rep;
  traced : unit -> traced;
  after_warm_up : unit -> string list;
      (** cross-checks of the warm-up repetition's outputs *)
}

type workload = {
  name : string;
  setup : seed:int -> smoke:bool -> instance;
  pinned : string;
      (** expected digest for the default seed at full size *)
}

let default_seed = 2023

type metric = { m_name : string; m_unit : string; m_value : float }

type result = {
  r_workload : string;
  r_seed : int;
  r_traced : bool;
  r_attempted : int;
  r_failed : int;
  r_problems : string list;
  r_digest : string;
  r_reps : int;
  r_metrics : metric list;
  r_samples : (string * float array) list;
}

let correct r = r.r_problems = [] && r.r_failed = 0

(* End-to-end metrics: every workload reports all of them. *)
let end_to_end =
  [ ("setup_s", "s"); ("ops_per_s", "1/s"); ("latency_p50_ms", "ms");
    ("peak_rss_mb", "MB") ]

(* Per-layer counts a workload can report; absent ones read 0. *)
let layer_counts =
  [ ("manager.boot_exits", "count"); ("trace.bytes", "bytes");
    ("replayer.vm_crashed", "count"); ("replayer.hv_panics", "count");
    ("checkpoint.pages_restored", "count");
    ("checkpoint.vmcs_fields_restored", "count");
    ("checkpoint.ept_restored", "count"); ("cov.span_points", "count");
    ("campaign.accepted_ratio", "ratio"); ("corpus.admit_ratio", "ratio");
    ("bisect.useful_ratio", "ratio"); ("jobqueue.wait_p50_s", "s");
    ("server.rounds", "count"); ("server.drain_s", "s");
    ("server.overhead_s", "s") ]

let traced_summary =
  [ ("gc.minor_words_per_op", "words/op"); ("gc.major_collections", "count");
    ("gc.top_heap_mb", "MB"); ("traced.rep_s", "s");
    ("traced.unattributed_s", "s"); ("traced.attributed_frac", "ratio");
    ("traced.overhead_frac", "ratio") ]

let per_layer =
  List.concat_map
    (fun l -> [ (Spans.name l ^ "_s", "s"); (Spans.name l ^ "_calls", "count") ])
    (Spans.layers ())
  @ layer_counts @ traced_summary

let problem_digests ~what digests =
  match List.sort_uniq compare digests with
  | [] | [ _ ] -> []
  | ds ->
      [ Printf.sprintf "%s digests differ across repetitions: %s" what
          (String.concat " " ds) ]

(* Mean over request classes of each class's median latency: a class is
   one kind of request (a guest's replay, one campaign target's cases,
   one service job), so the figure does not jump between the classes'
   latencies as the pooled sample's middle rank would. *)
let class_median reps =
  let classes = Hashtbl.create 8 in
  List.iter
    (fun r ->
      List.iter
        (fun (c, xs) ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt classes c) in
          Hashtbl.replace classes c (xs :: prev))
        r.latencies)
    reps;
  let per_class =
    Hashtbl.fold
      (fun _ xss acc -> Measure.median (Array.concat xss) :: acc)
      classes []
  in
  match per_class with
  | [] -> nan
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let run (w : workload) ~seed ~seconds ~trace ~smoke =
  let setups =
    List.init 3 (fun _ ->
        Gc.full_major ();
        Measure.time (fun () -> w.setup ~seed ~smoke))
  in
  let inst = fst (List.nth setups 2) in
  let setup_s = Measure.median (Array.of_list (List.map snd setups)) in
  Gc.full_major ();
  let warm = inst.rep () in
  let problems = ref (inst.after_warm_up ()) in
  if seed = default_seed && (not smoke) && w.pinned <> warm.digest then
    problems :=
      Printf.sprintf "digest %s differs from the pinned %s" warm.digest w.pinned
      :: !problems;
  let attempted = ref warm.ops and failed = ref warm.failed in
  let t_start = Measure.now_s () in
  let measuring () = Measure.now_s () -. t_start < seconds in
  if not trace then begin
    let reps = ref [] in
    while measuring () || List.length !reps < 3 do
      Gc.full_major ();
      let r = inst.rep () in
      attempted := !attempted + r.ops;
      failed := !failed + r.failed;
      reps := r :: !reps
    done;
    let reps = List.rev !reps in
    problems :=
      problem_digests ~what:"result" (warm.digest :: List.map (fun r -> r.digest) reps)
      @ !problems;
    let rates =
      Array.of_list
        (List.map (fun r -> float_of_int r.ops /. r.wall_s) reps)
    in
    let metrics =
      [ ("setup_s", setup_s); ("ops_per_s", Measure.median rates);
        ("latency_p50_ms", 1e3 *. class_median reps);
        ("peak_rss_mb", Measure.peak_rss_mb ()) ]
    in
    { r_workload = w.name;
      r_seed = seed;
      r_traced = false;
      r_attempted = !attempted;
      r_failed = !failed;
      r_problems = List.rev !problems;
      r_digest = warm.digest;
      r_reps = List.length reps;
      r_metrics =
        List.map
          (fun (n, u) -> { m_name = n; m_unit = u; m_value = List.assoc n metrics })
          end_to_end;
      r_samples =
        [ ("ops_per_s", rates); ("setup_s", Array.of_list (List.map snd setups));
          ("rep_s", Array.of_list (List.map (fun r -> r.wall_s) reps)) ] }
  end
  else begin
    let traced = ref [] in
    Spans.reset_totals ();
    let gc0 = Gc.quick_stat () in
    while measuring () || !traced = [] do
      Gc.full_major ();
      let t = inst.traced () in
      attempted := !attempted + t.t_ops;
      failed := !failed + t.t_failed;
      problems := List.rev_append t.t_problems !problems;
      traced := t :: !traced
    done;
    let gc1 = Gc.quick_stat () in
    let ts = List.rev !traced in
    let n = float_of_int (List.length ts) in
    problems :=
      problem_digests ~what:"traced"
        (warm.digest :: List.map (fun t -> t.t_digest) ts)
      @ !problems;
    let ops = List.fold_left (fun a t -> a + t.t_ops) 0 ts in
    let walls = Array.of_list (List.map (fun t -> t.t_wall_s) ts) in
    let bases = Array.of_list (List.map (fun t -> t.t_base_s) ts) in
    let wall = Array.fold_left ( +. ) 0.0 walls in
    let attributed = float_of_int (Spans.attributed_ns ()) *. 1e-9 in
    let counts = sum_counts (List.concat_map (fun t -> t.t_counts) ts) in
    let layer_metrics =
      List.concat_map
        (fun l ->
          [ (Spans.name l ^ "_s", float_of_int Spans.self_ns.(l) *. 1e-9 /. n);
            (Spans.name l ^ "_calls", float_of_int Spans.calls.(l) /. n) ])
        (Spans.layers ())
    in
    let summary =
      [ ( "gc.minor_words_per_op",
          (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. float_of_int (max 1 ops) );
        ( "gc.major_collections",
          float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) /. n );
        ( "gc.top_heap_mb",
          float_of_int (gc1.Gc.top_heap_words * (Sys.word_size / 8))
          /. (1024.0 *. 1024.0) );
        ("traced.rep_s", wall /. n);
        ("traced.unattributed_s", (wall -. attributed) /. n);
        ("traced.attributed_frac", attributed /. wall);
        ( "traced.overhead_frac",
          (Measure.median walls /. Measure.median bases) -. 1.0 ) ]
    in
    let values =
      layer_metrics @ summary @ List.map (fun (k, v) -> (k, v /. n)) counts
    in
    { r_workload = w.name;
      r_seed = seed;
      r_traced = true;
      r_attempted = !attempted;
      r_failed = !failed;
      r_problems = List.rev !problems;
      r_digest = warm.digest;
      r_reps = List.length ts;
      r_metrics =
        List.map
          (fun (k, u) ->
            { m_name = k;
              m_unit = u;
              m_value = Option.value ~default:0.0 (List.assoc_opt k values) })
          per_layer;
      r_samples = [ ("traced_rep_s", walls); ("untraced_rep_s", bases) ] }
  end

module J = Iris_telemetry.Json

let metrics_json r =
  J.Obj
    (List.map
       (fun m ->
         (m.m_name, J.Obj [ ("value", J.Float m.m_value); ("unit", J.String m.m_unit) ]))
       r.r_metrics)

(* The one-line verdict the last line of standard output carries. *)
let summary_json r =
  J.Obj
    [ ("correct", J.Bool (correct r)); ("attempted", J.Int r.r_attempted);
      ("failed", J.Int r.r_failed); ("metrics", metrics_json r) ]

(* The full record [--out] saves and [compare] reads back. *)
let full_json r =
  let floats xs = J.List (Array.to_list (Array.map (fun x -> J.Float x) xs)) in
  J.Obj
    [ ("schema", J.String "iris-e2e-run-v1"); ("workload", J.String r.r_workload);
      ("seed", J.Int r.r_seed); ("trace", J.Bool r.r_traced);
      ("correct", J.Bool (correct r)); ("attempted", J.Int r.r_attempted);
      ("failed", J.Int r.r_failed);
      ("problems", J.List (List.map (fun p -> J.String p) r.r_problems));
      ("digest", J.String r.r_digest); ("reps", J.Int r.r_reps);
      ("metrics", metrics_json r);
      ("samples", J.Obj (List.map (fun (k, xs) -> (k, floats xs)) r.r_samples)) ]
