(* record-replay: the paper's pipeline on its own.  Each repetition
   records 5000 exits of OS BOOT and of CPU-bound, round-trips each
   trace through the codec, and replays the decoded trace 10 times.
   Only valid seeds are submitted: no mutation, no rewind, no service.
   This is the one workload dominated by the recorder, the boot and
   the trace codec. *)

module Manager = Iris_core.Manager
module Trace = Iris_core.Trace
module Replayer = Iris_core.Replayer
module Recorder = Iris_core.Recorder
module W = Iris_guest.Workload
module Fnv = Iris_util.Fnv64

type params = { exits : int; boot_scale : float; replays : int }

let full = { exits = 5_000; boot_scale = 0.3; replays = 10 }
let small = { exits = 100; boot_scale = 0.01; replays = 2 }

let guests = [ W.Os_boot; W.Cpu_bound ]

(* One guest's pipeline output, as digests taken between timed calls. *)
type leg = {
  recorded : string;
  decoded : string option;          (* [None]: the trace did not decode *)
  replayed : string option array;   (* [None]: the replay stopped short *)
}

let leg_digest h leg =
  Array.fold_left
    (fun h r -> Fnv.string h (Option.value ~default:"short" r))
    (Fnv.string h leg.recorded) leg.replayed

(* Seeds that did not make it: a recording that differs from the
   reference, a failed round-trip or a short replay loses every seed
   of that trace. *)
let leg_failures p ~reference leg =
  let lost ok = if ok then 0 else p.exits in
  Array.fold_left
    (fun acc r -> acc + lost (r <> None))
    (lost (leg.recorded = reference) + lost (leg.decoded = Some leg.recorded))
    leg.replayed

let decode recording bytes =
  match Trace.decode bytes with
  | Ok t -> Some { recording with Manager.trace = t }
  | Error _ -> None

let call ~traced l f = if traced then Spans.span l f else f ()

(* Record, encode, decode: the same calls in both legs, spanned in the
   traced one. *)
let record_leg p m w ~traced =
  let recording =
    call ~traced Spans.manager_record (fun () -> Manager.record m w ~exits:p.exits)
  in
  let bytes =
    call ~traced Spans.trace_encode (fun () -> Trace.encode recording.Manager.trace)
  in
  (recording, bytes, call ~traced Spans.trace_decode (fun () -> decode recording bytes))

(* The untraced leg: the library's own record and replay entry points. *)
let leg_untraced p m w ~wall ~lat =
  let recording, _, decoded =
    Measure.add wall (fun () -> record_leg p m w ~traced:false)
  in
  let replayed =
    Array.init p.replays (fun i ->
        match decoded with
        | None -> None
        | Some r ->
            let run, s =
              Measure.time (fun () ->
                  try Some (Manager.replay m r)
                  with Iris_hv.Ctx.Hypervisor_panic _ -> None)
            in
            wall := !wall +. s;
            lat.(i) <- s;
            (match run with
            | Some run
              when run.Manager.outcome = Replayer.Replayed
                   && run.Manager.submitted = Trace.length r.Manager.trace ->
                Some (Trace.digest run.Manager.replay_trace)
            | Some _ | None -> None))
  in
  { recorded = Trace.digest recording.Manager.trace;
    decoded = Option.map (fun r -> Trace.digest r.Manager.trace) decoded;
    replayed }

(* [Manager.replay] taken apart so the dummy construction and each seed
   submission get their own span; the recorder runs in replay + record
   mode exactly as the manager runs it. *)
let replay_traced m (r : Manager.recording) ~vm_crashed ~hv_panics =
  Spans.enter Spans.manager_replay;
  let replayer =
    Spans.span Spans.manager_make_dummy (fun () ->
        Manager.make_dummy m ~revert_to:r.Manager.snapshot ())
  in
  let recorder =
    Recorder.start ~store_seeds:true ~store_metrics:true (Replayer.ctx replayer)
  in
  let seeds = r.Manager.trace.Trace.seeds in
  let rec go i =
    if i >= Array.length seeds then true
    else begin
      Spans.enter Spans.replayer_submit;
      match Replayer.submit replayer seeds.(i) with
      | Replayer.Replayed ->
          Spans.leave ();
          go (i + 1)
      | Replayer.Vm_crashed _ ->
          Spans.leave ();
          incr vm_crashed;
          false
      | exception Iris_hv.Ctx.Hypervisor_panic _ ->
          Spans.leave ();
          incr hv_panics;
          false
    end
  in
  let complete = go 0 in
  let trace =
    Recorder.stop recorder ~workload:"replay" ~prng_seed:(Manager.prng_seed m)
  in
  Spans.leave ();
  if complete then Some trace else None

let leg_traced p m w ~wall ~counts =
  let recording, bytes, decoded =
    Measure.add wall (fun () -> record_leg p m w ~traced:true)
  in
  let vm_crashed = ref 0 and hv_panics = ref 0 in
  let replayed =
    Array.init p.replays (fun _ ->
        match decoded with
        | None -> None
        | Some r ->
            Measure.add wall (fun () -> replay_traced m r ~vm_crashed ~hv_panics)
            |> Option.map Trace.digest)
  in
  counts :=
    [ ("manager.boot_exits", float_of_int recording.Manager.boot_exits);
      ("trace.bytes", float_of_int (Bytes.length bytes));
      ("replayer.vm_crashed", float_of_int !vm_crashed);
      ("replayer.hv_panics", float_of_int !hv_panics) ]
    @ !counts;
  { recorded = Trace.digest recording.Manager.trace;
    decoded = Option.map (fun r -> Trace.digest r.Manager.trace) decoded;
    replayed }

let setup ~seed ~smoke =
  let p = if smoke then small else full in
  let prng = Iris_util.Prng.of_int seed in
  let managers =
    List.map
      (fun w ->
        let prng_seed = 1 + Iris_util.Prng.int prng 1_000_000 in
        (w, Manager.create ~boot_scale:p.boot_scale ~prng_seed ()))
      guests
  in
  (* The reference recordings every repetition must reproduce. *)
  let reference =
    List.map
      (fun (w, m) -> (w, Trace.digest (Manager.record m w ~exits:p.exits).Manager.trace))
      managers
  in
  let ops = List.length guests * p.exits * (1 + p.replays) in
  let judge legs =
    ( Fnv.to_hex (List.fold_left (fun h (_, l) -> leg_digest h l) Fnv.init legs),
      List.fold_left
        (fun acc (w, l) -> acc + leg_failures p ~reference:(List.assoc w reference) l)
        0 legs )
  in
  let rep () =
    let wall = ref 0.0 in
    let lats = List.map (fun (w, _) -> (w, Array.make p.replays 0.0)) managers in
    let legs =
      List.map (fun (w, m) -> (w, leg_untraced p m w ~wall ~lat:(List.assoc w lats))) managers
    in
    let digest, failed = judge legs in
    { Harness.wall_s = !wall;
      ops;
      failed;
      latencies = List.map (fun (w, a) -> ("replay " ^ W.name w, a)) lats;
      digest }
  in
  let traced () =
    let base = rep () in
    Gc.full_major ();
    let wall = ref 0.0 and counts = ref [] in
    let legs = List.map (fun (w, m) -> (w, leg_traced p m w ~wall ~counts)) managers in
    let digest, failed = judge legs in
    Harness.traced_after ~base ~wall_s:!wall ~ops ~failed ~digest
      ~counts:(Harness.sum_counts !counts)
  in
  { Harness.rep; traced; after_warm_up = (fun () -> []) }

let workload =
  { Harness.name = "record-replay";
    setup;
    pinned = "08146afa5939ec3c" }
