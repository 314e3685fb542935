(* Differential sweep over a recorded trace: one walk in trace order
   → pure index-ordered finalize.

   Why a walk and not independent cases: the seed carries every input
   its *handler* consumes, but the VM-entry checks that follow the
   handler consult guest state beyond the seed (operating mode vs RIP
   consistency, segment descriptors).  Submitting a post-boot seed
   from the pre-boot S_0 fails those checks — the paper's §VI-B
   "invalid guest state" phenomenon — and SVM's VMRUN checks are
   deliberately weaker, so anchoring everything at S_0 manufactures
   crash-on-one false positives on mode-changing workloads.  Walking
   the trace from S_0 keeps the VT-x side exactly on the recorded
   path, where sequential replay is already proven clean, so a seed's
   verdict is a function of (seed, S_i).  For the same reason the walk
   cannot be sharded: every shard would first replay its whole
   prefix. *)

module Seed = Iris_core.Seed
module Trace = Iris_core.Trace
module Replayer = Iris_core.Replayer
module Ctx = Iris_hv.Ctx
module Domain = Iris_hv.Domain
module Gmem = Iris_memory.Gmem
module Machine = Iris_svm.Machine

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

(* Walk the trace on the VT-x replayer: comparable seeds run on both
   backends (the SVM machine sized to the same guest RAM), lossy ones
   are still submitted on the VT-x side so the walk stays on the
   recorded path.  A VT-x context dying beyond the replayer's triage
   voids the whole walk: every seed becomes a crash-on-one verdict. *)
let run ?plant ~replayer ~(trace : Trace.t) () =
  let verdicts =
    try
      let mem = (Replayer.ctx replayer).Ctx.dom.Domain.mem in
      let left = Backend.vtx ~replayer in
      let right =
        Backend.svm ?plant ~mem_pages:(Int64.div (Gmem.size_bytes mem) 4096L) ()
      in
      Array.map
        (fun seed ->
          let v = Oracle.run_case ~left ~right seed in
          (match v.Oracle.v_class with
          | Oracle.Lossy _ ->
              ignore (Replayer.submit replayer seed : Replayer.outcome)
          | _ -> ());
          v)
        trace.Trace.seeds
    with exn ->
      let died = "worker context died: " ^ Printexc.to_string exn in
      Array.map
        (fun (seed : Seed.t) ->
          { Oracle.v_index = seed.Seed.index;
            v_reason = Iris_vtx.Exit_reason.name seed.Seed.reason;
            v_class =
              Oracle.Crash_on_one
                { left_crash = Some died; right_crash = None } })
        trace.Trace.seeds
  in
  finalize ?plant ~verdicts ()

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
