(* Differential sweep over a recorded trace, in the Campaign mold:
   pure plan (contiguous trace segments) → per-segment execute (the
   only hypervisor-touching part) → pure index-ordered finalize.  The
   orchestrator shards [execute_segment] across the domain pool; the
   merged report is byte-identical for any job count because a seed's
   verdict is a function of (seed, S_i) and S_i is the deterministic
   result of replaying seeds 0..i-1 — independent of which worker
   runs the segment.

   Why segments and not independent cases: the seed carries every
   input its *handler* consumes, but the VM-entry checks that follow
   the handler consult guest state beyond the seed (operating mode vs
   RIP consistency, segment descriptors).  Submitting a post-boot
   seed from the pre-boot S_0 fails those checks — the paper's §VI-B
   "invalid guest state" phenomenon — and SVM's VMRUN checks are
   deliberately weaker, so anchoring everything at S_0 manufactures
   crash-on-one false positives on mode-changing workloads.  Walking
   each segment from its true predecessor state keeps the VT-x side
   exactly on the recorded path, where sequential replay is already
   proven clean. *)

module Seed = Iris_core.Seed
module Trace = Iris_core.Trace
module Replayer = Iris_core.Replayer
module Ctx = Iris_hv.Ctx
module Domain = Iris_hv.Domain
module Gmem = Iris_memory.Gmem
module Machine = Iris_svm.Machine
module Campaign = Iris_fuzzer.Campaign

type finding = {
  f_index : int;
  f_reason : string;
  f_kind : string;   (* "semantic" | "crash-on-one" *)
  f_detail : string;
}

type report = {
  total : int;
  comparable : int;
  lossy : int;
  agreements : int;
  findings : finding list;  (* index order *)
  lossy_reasons : (string * int) list;  (* reason -> count, sorted *)
  plant : string option;
}

let case_count (trace : Trace.t) = Array.length trace.Trace.seeds

let case (trace : Trace.t) i = trace.Trace.seeds.(i)

let mem_pages_of ctx =
  Int64.div (Gmem.size_bytes ctx.Ctx.dom.Domain.mem) 4096L

(* Contiguous [a, b) shards, one per job slot; empty trace degrades
   to a single empty segment so the pool still has one task. *)
let segments ~jobs ~total =
  let jobs = max 1 (min jobs (max 1 total)) in
  Array.init jobs (fun w -> (w * total / jobs, (w + 1) * total / jobs))

(* Run one [a, b) segment: revert the worker's domain to S_0, replay
   the prefix 0..a-1 to reach S_a, then walk the segment — every seed
   (lossy ones included) is submitted on the VT-x side to advance the
   trace, and comparable ones are additionally observed and mirrored
   on a fresh SVM machine sized to the same guest RAM. *)
let execute_segment ?plant ~replayer ~anchor ~(trace : Trace.t) (a, b) =
  Campaign.restore ~replayer anchor;
  let left = Backend.vtx ~replayer in
  let right =
    Backend.svm ?plant ~mem_pages:(mem_pages_of (Replayer.ctx replayer)) ()
  in
  for i = 0 to a - 1 do
    ignore (Replayer.submit replayer trace.Trace.seeds.(i) : Replayer.outcome)
  done;
  Array.init (b - a) (fun k ->
      let seed = trace.Trace.seeds.(a + k) in
      let reason = Iris_vtx.Exit_reason.name seed.Seed.reason in
      match Normalize.classify seed with
      | Normalize.Untranslatable why ->
          ignore (Replayer.submit replayer seed : Replayer.outcome);
          { Oracle.v_index = seed.Seed.index;
            v_reason = reason;
            v_class = Oracle.Lossy why }
      | Normalize.Comparable (tr, probe) ->
          let va = Backend.run_case left seed tr probe in
          let vb = Backend.run_case right seed tr probe in
          { Oracle.v_index = seed.Seed.index;
            v_reason = reason;
            v_class = Oracle.classify_pair va vb })

let detail_of = function
  | Oracle.Lossy why -> why
  | Oracle.Agree -> ""
  | Oracle.Semantic d -> d
  | Oracle.Crash_on_one { left_crash; right_crash } ->
      let side name = function
        | Some m -> Printf.sprintf "%s crashed (%s)" name m
        | None -> Printf.sprintf "%s ran" name
      in
      side "left" left_crash ^ "; " ^ side "right" right_crash

let finalize ?plant ~(verdicts : Oracle.verdict array) () =
  let total = Array.length verdicts in
  let comparable = ref 0 and lossy = ref 0 and agreements = ref 0 in
  let findings = ref [] in
  let lossy_tbl = Hashtbl.create 16 in
  Array.iter
    (fun (v : Oracle.verdict) ->
      match v.Oracle.v_class with
      | Oracle.Lossy why ->
          incr lossy;
          Hashtbl.replace lossy_tbl why
            (1 + Option.value ~default:0 (Hashtbl.find_opt lossy_tbl why))
      | Oracle.Agree ->
          incr comparable;
          incr agreements
      | (Oracle.Semantic _ | Oracle.Crash_on_one _) as c ->
          incr comparable;
          findings :=
            {
              f_index = v.Oracle.v_index;
              f_reason = v.Oracle.v_reason;
              f_kind = Oracle.class_kind c;
              f_detail = detail_of c;
            }
            :: !findings)
    verdicts;
  {
    total;
    comparable = !comparable;
    lossy = !lossy;
    agreements = !agreements;
    findings =
      List.sort (fun a b -> compare a.f_index b.f_index) !findings;
    lossy_reasons =
      List.sort compare
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) lossy_tbl []);
    plant = Option.map Machine.asymmetry_name plant;
  }

let finding_indices report = List.map (fun f -> f.f_index) report.findings

let expected_planted ~plant (trace : Trace.t) =
  Oracle.expected_planted ~plant trace.Trace.seeds

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>%d seeds: %d comparable (%d agree, %d findings), %d lossy%s@,"
    r.total r.comparable r.agreements
    (List.length r.findings)
    r.lossy
    (match r.plant with
    | None -> ""
    | Some p -> Printf.sprintf " [planted: %s]" p);
  List.iter
    (fun f ->
      Format.fprintf ppf "  #%d %s %s: %s@," f.f_index f.f_reason f.f_kind
        f.f_detail)
    r.findings;
  Format.fprintf ppf "@]"
