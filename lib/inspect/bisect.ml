module Replayer = Iris_core.Replayer
module Recorder = Iris_core.Recorder
module Seed = Iris_core.Seed
module Trace = Iris_core.Trace
module Checkpoint = Iris_hv.Checkpoint

type result = {
  b_suffix_start : int;
  b_seeds : Seed.t array;
  b_crash_msg : string;
  b_attempts : int;
  b_seeds_replayed : int;
  b_digest : string;
  b_deterministic : bool;
}

type search = {
  s_start : int;
  s_crash_msg : string;
  s_attempts : int;
  s_seeds_replayed : int;
}

type attempt =
  | Repro of string  (** clean prefix, crasher killed the VM *)
  | Clean  (** everything replayed — the crasher lost its teeth *)
  | Early_crash of int * string  (** prefix died before the crasher *)

(* What replaying [prefix[j..]] on a fresh dummy leaves for the
   crashers that start at [j]. *)
type start =
  | Settled of attempt
      (** the prefix itself ended the attempt, whatever the crasher *)
  | Pinned of Replayer.t * Checkpoint.t * Checkpoint.mark
      (** the state just before the crasher, under a COW mark *)

(* Replay [prefix[j..]] on a fresh dummy; also returns the seeds it
   replayed, counting the one that died.  A hypervisor panic counts as
   a crash class of its own — a mutant that kills the hypervisor
   rather than the VM still reproduces — so a panic inside the prefix
   settles every crasher at [j] as that repro. *)
let fill ~make_replayer ~prefix j =
  let rep = make_replayer () in
  let n = Array.length prefix in
  let rec loop i =
    if i >= n then begin
      let cps = Checkpoint.start (Replayer.ctx rep).Iris_hv.Ctx.dom in
      (Pinned (rep, cps, Checkpoint.push cps), n - j)
    end
    else
      match Replayer.submit rep prefix.(i) with
      | Replayer.Replayed -> loop (i + 1)
      | Replayer.Vm_crashed msg -> (Settled (Early_crash (i, msg)), i - j + 1)
      | exception Iris_hv.Ctx.Hypervisor_panic msg ->
          (Settled (Repro ("hv: " ^ msg)), i - j + 1)
  in
  loop j

(* Submit the crasher on a pinned state, then rewind to the mark
   whatever happened, exactly as [Campaign.execute_case] does. *)
let submit_crasher rep cps mark crasher =
  let out =
    match Replayer.submit rep crasher with
    | Replayer.Vm_crashed msg -> Repro msg
    | Replayer.Replayed -> Clean
    | exception Iris_hv.Ctx.Hypervisor_panic msg -> Repro ("hv: " ^ msg)
  in
  ignore (Checkpoint.rewind cps mark : Iris_hv.Domain.revert_stats);
  out

(* One crasher's binary search: [prefix[lo..]] is known to reproduce
   [msg], and no start above [hi] is left to try. *)
type probe = {
  crasher : Seed.t;
  mutable msg : string option;  (** [None]: no repro to shrink *)
  mutable lo : int;
  mutable hi : int;
  mutable attempts : int;
  mutable seeds : int;
}

let active p = p.msg <> None && p.lo < p.hi

let search ~make_replayer ~prefix ~crashers =
  let n = Array.length prefix in
  let starts = Hashtbl.create 16 in
  (* The first crasher to need start [j] pays for its replay. *)
  let attempt p j =
    p.attempts <- p.attempts + 1;
    let start =
      match Hashtbl.find_opt starts j with
      | Some s -> s
      | None ->
          let s, seeds = fill ~make_replayer ~prefix j in
          p.seeds <- p.seeds + seeds;
          Hashtbl.replace starts j s;
          s
    in
    match start with
    | Settled out -> out
    | Pinned (rep, cps, mark) ->
        p.seeds <- p.seeds + 1;
        submit_crasher rep cps mark p.crasher
  in
  let probes =
    Array.map
      (fun crasher ->
        { crasher; msg = None; lo = 0; hi = n; attempts = 0; seeds = 0 })
      crashers
  in
  (* The whole prefix first: no repro there, nothing to shrink. *)
  Array.iter
    (fun p ->
      match attempt p 0 with
      | Repro msg -> p.msg <- Some msg
      | Clean | Early_crash _ -> ())
    probes;
  (* Largest droppable prefix: binary search assuming the usual
     monotone structure (more context can only help the repro); the
     verification replays catch the exotic cases where it is not.  The
     searches advance in lockstep so crashers share the starts they
     have in common, and a search only ever tries starts inside
     [(lo, hi]], so a start outside every live interval is dropped:
     nothing is replayed twice, and the live dummies never outnumber
     the live searches. *)
  let rec rounds () =
    Hashtbl.filter_map_inplace
      (fun j s ->
        if Array.exists (fun p -> active p && p.lo < j && j <= p.hi) probes
        then Some s
        else None)
      starts;
    if Array.exists active probes then begin
      Array.iter
        (fun p ->
          if active p then begin
            let mid = (p.lo + p.hi + 1) / 2 in
            match attempt p mid with
            | Repro msg when Some msg = p.msg -> p.lo <- mid
            | Repro _ | Clean | Early_crash _ -> p.hi <- mid - 1
          end)
        probes;
      rounds ()
    end
  in
  rounds ();
  Array.map
    (fun p ->
      Option.map
        (fun msg ->
          { s_start = p.lo;
            s_crash_msg = msg;
            s_attempts = p.attempts;
            s_seeds_replayed = p.seeds })
        p.msg)
    probes

let digest_of_verification ~make_replayer ~seeds =
  let rep = make_replayer () in
  let recorder =
    Recorder.start ~store_seeds:true ~store_metrics:false
      (Replayer.ctx rep)
  in
  (try Array.iter (fun s -> ignore (Replayer.submit rep s)) seeds
   with Iris_hv.Ctx.Hypervisor_panic _ -> ());
  let trace = Recorder.stop recorder ~workload:"bisect-verify" ~prng_seed:0 in
  (* Incremental digest: fingerprints the same fields [encode] writes
     without materialising the serialised trace. *)
  Trace.digest trace

let verify ~make_replayer ~prefix ~crasher s =
  let n = Array.length prefix in
  let b_seeds =
    Array.append (Array.sub prefix s.s_start (n - s.s_start)) [| crasher |]
  in
  let d1 = digest_of_verification ~make_replayer ~seeds:b_seeds in
  let d2 = digest_of_verification ~make_replayer ~seeds:b_seeds in
  { b_suffix_start = s.s_start;
    b_seeds;
    b_crash_msg = s.s_crash_msg;
    b_attempts = s.s_attempts;
    b_seeds_replayed = s.s_seeds_replayed;
    b_digest = d1;
    b_deterministic = d1 = d2 }

let minimize ~make_replayer ~prefix ~crasher =
  match search ~make_replayer ~prefix ~crashers:[| crasher |] with
  | [| Some s |] -> Some (verify ~make_replayer ~prefix ~crasher s)
  | _ -> None

let to_trace ?(workload = "bisect-repro") r =
  { Trace.workload;
    prng_seed = 0;
    seeds = r.b_seeds;
    metrics = [||];
    wall_cycles = 0L }
