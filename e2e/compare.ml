(* Parent-vs-change verdicts over saved runs ([run --out FILE]).

   Per workload and end-to-end metric: each side's median and
   quartiles, the fraction of (parent i, change i) pairs the change
   wins (ties count for neither), and a verdict under the bound
   BENCHMARK.json fixes for the metric:
   - regressed: the change's median is worse than the parent's by more
     than the bound;
   - improved: the change wins at least nine tenths of the pairs and
     the medians differ, in its favour, by more than the parent's own
     quartile spread;
   - unresolved: the parent's spread is wider than the bound and not
     every change run beats every parent run;
   - unchanged: otherwise. *)

module J = Iris_telemetry.Json

type metric = { name : string; lower_better : bool; bound : float }

type run = { workload : string; failed : int; values : (string * float) list }

let read_json path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match J.of_string s with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

let field path key j =
  match J.member key j with
  | Some v -> v
  | None -> failwith (Printf.sprintf "%s: no %S" path key)

let bounds path =
  List.map
    (fun m ->
      let str k = Option.get (J.string_value (field path k m)) in
      { name = str "name";
        lower_better = str "better" = "lower";
        bound = Option.get (J.float_value (field path "bound" m)) })
    (J.to_list (field path "end_to_end" (read_json path)))

let load path =
  let j = read_json path in
  let metrics =
    match field path "metrics" j with J.Obj kvs -> kvs | _ -> []
  in
  { workload = Option.get (J.string_value (field path "workload" j));
    failed = Option.get (J.int_value (field path "failed" j));
    values =
      List.filter_map
        (fun (k, v) -> Option.map (fun x -> (k, x)) (Option.bind (J.member "value" v) J.float_value))
        metrics }

type verdict = Improved | Unchanged | Regressed | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

let judge m ps cs =
  let pm = Measure.median ps and cm = Measure.median cs in
  let pq1, pq3 = Measure.quartiles ps in
  let better a b = if m.lower_better then a < b else a > b in
  let pairs = min (Array.length ps) (Array.length cs) in
  let wins = ref 0 in
  for i = 0 to pairs - 1 do
    if better cs.(i) ps.(i) then incr wins
  done;
  let win_frac = float_of_int !wins /. float_of_int (max 1 pairs) in
  let worse_by = (if m.lower_better then cm -. pm else pm -. cm) /. Float.abs pm in
  let all_better =
    Array.for_all (fun c -> Array.for_all (fun p -> better c p) ps) cs
  in
  let v =
    if worse_by > m.bound then Regressed
    else if win_frac >= 0.9 && better cm pm && Float.abs (cm -. pm) > pq3 -. pq1
    then Improved
    else if (pq3 -. pq1) /. Float.abs pm > m.bound && not all_better then Unresolved
    else Unchanged
  in
  (v, win_frac)

(* Returns the process exit code: 1 on any regression or any workload
   whose change runs failed more operations than its parent runs. *)
let main ~bench ~parent ~change =
  let metrics = bounds bench in
  let parent = List.map load parent and change = List.map load change in
  let workloads =
    List.sort_uniq compare (List.map (fun r -> r.workload) (parent @ change))
  in
  let status = ref 0 in
  Printf.printf "%-18s %-15s %12s %12s %12s %12s %12s %12s %5s  %s\n" "workload"
    "metric" "parent_q1" "parent_med" "parent_q3" "change_q1" "change_med"
    "change_q3" "wins" "verdict";
  List.iter
    (fun w ->
      let side runs = List.filter (fun r -> r.workload = w) runs in
      let ps = side parent and cs = side change in
      let failed rs = List.fold_left (fun a r -> a + r.failed) 0 rs in
      if ps = [] || cs = [] then
        Printf.printf "%-18s (runs on one side only)\n" w
      else begin
        List.iter
          (fun m ->
            let values rs = Array.of_list (List.filter_map (fun r -> List.assoc_opt m.name r.values) rs) in
            let pv = values ps and cv = values cs in
            if Array.length pv > 0 && Array.length cv > 0 then begin
              let v, win_frac = judge m pv cv in
              let pq1, pq3 = Measure.quartiles pv and cq1, cq3 = Measure.quartiles cv in
              Printf.printf "%-18s %-15s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g %5.2f  %s\n"
                w m.name pq1 (Measure.median pv) pq3 cq1 (Measure.median cv) cq3
                win_frac (verdict_name v);
              if v = Regressed then status := 1
            end)
          metrics;
        if failed cs > failed ps then begin
          Printf.printf "%-18s failed operations rose: %d -> %d\n" w (failed ps) (failed cs);
          status := 1
        end
      end)
    workloads;
  !status
