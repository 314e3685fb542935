(* Tests for the time-travel trace inspector: session travel and its
   checkpoint marks, field provenance, the divergence locator, and
   crash bisection. *)

module Manager = Iris_core.Manager
module Trace = Iris_core.Trace
module Replayer = Iris_core.Replayer
module Analysis = Iris_core.Analysis
module Seed = Iris_core.Seed
module F = Iris_vmcs.Field
module R = Iris_vtx.Exit_reason
module W = Iris_guest.Workload
module Prov = Iris_inspect.Provenance
module Session = Iris_inspect.Session
module Locator = Iris_inspect.Locator
module Bisect = Iris_inspect.Bisect
module Synthetic = Iris_inspect.Synthetic
module Gate = Iris_scenario.Gate
module Campaign = Iris_fuzzer.Campaign
module Mutation = Iris_fuzzer.Mutation

let check = Alcotest.check

let exits = 320

(* One recording + baseline replay shared by every test in the file:
   replay determinism means the baseline replay trace is the perfect
   reference — the only divergence is whatever a test plants. *)
let cache =
  lazy
    (let m = Manager.create ~boot_scale:0.05 ~prng_seed:7 () in
     let recording = Manager.record m W.Cpu_bound ~exits in
     let baseline = Manager.replay m recording in
     (match baseline.Manager.outcome with
     | Replayer.Replayed -> ()
     | Replayer.Vm_crashed msg -> failwith ("baseline replay crashed: " ^ msg));
     (m, recording, baseline))

let fresh_replayer () =
  let m, recording, _ = Lazy.force cache in
  Manager.make_dummy m ~revert_to:recording.Manager.snapshot ()

let perturb ~kind ~at =
  let _, recording, _ = Lazy.force cache in
  match Synthetic.perturb ~kind ~at recording.Manager.trace.Trace.seeds with
  | Some r -> r
  | None -> Alcotest.fail "no guest-RIP-reading seed to perturb"

(* Gate.locate against the unperturbed baseline replay. *)
let locate ?planted ?thorough seeds =
  let m, recording, baseline = Lazy.force cache in
  match
    Gate.locate ~manager:m ~recording ~reference:baseline.Manager.replay_trace
      ?planted ?thorough ~every:32 seeds
  with
  | Ok facts -> facts
  | Error msg -> Alcotest.fail msg

(* --- replayer --- *)

let test_crashed_submit_all_revertable () =
  (* A crashed [submit_all] must leave the dummy in a state the next
     full revert (arming a fresh run) accepts. *)
  let _, recording, _ = Lazy.force cache in
  let at, seeds = perturb ~kind:Synthetic.Crash_rip ~at:100 in
  let rep = fresh_replayer () in
  let i, outcome = Replayer.submit_all rep seeds in
  (match outcome with
  | Replayer.Vm_crashed _ -> ()
  | Replayer.Replayed -> Alcotest.fail "perturbed replay must crash");
  check Alcotest.int "crashed at the planted seed" at i;
  Iris_hv.Domain.revert
    (Replayer.ctx rep).Iris_hv.Ctx.dom recording.Manager.snapshot;
  check Alcotest.bool "revert cleared the crash" false
    (Iris_hv.Domain.crashed (Replayer.ctx rep).Iris_hv.Ctx.dom)

let test_crash_releases_marks () =
  (* The mark-leak contract: a detection pass that crashes keeps the
     marks it pushed before the crash, [finish] releases every one of
     them, and the next full revert of the domain then works — stale
     journals would make it raise. *)
  let _, recording, _ = Lazy.force cache in
  let at, seeds = perturb ~kind:Synthetic.Crash_rip ~at:100 in
  let session =
    Session.start ~every:16 ~replayer:(fresh_replayer ()) ~seeds ()
  in
  (match Session.crashed_at session with
  | Some (i, _) -> check Alcotest.int "crashed at the planted seed" at i
  | None -> Alcotest.fail "perturbed replay must crash");
  check Alcotest.bool "marks pushed before the crash" true
    (Session.checkpoints session > 0);
  Session.finish session;
  check Alcotest.int "no outstanding marks after finish" 0
    (Session.checkpoints session);
  let dom = (Replayer.ctx (Session.replayer session)).Iris_hv.Ctx.dom in
  Iris_hv.Domain.revert dom recording.Manager.snapshot;
  check Alcotest.bool "revert cleared the crash" false
    (Iris_hv.Domain.crashed dom)

(* --- provenance --- *)

let test_provenance_queries () =
  let _, recording, _ = Lazy.force cache in
  let trace = recording.Manager.trace in
  let prov = Prov.build trace in
  let touches = Prov.field_touches prov F.guest_rip in
  check Alcotest.bool "RIP touched" true (touches <> []);
  let ascending =
    let rec ok = function
      | a :: (b :: _ as rest) ->
          a.Prov.t_index <= b.Prov.t_index && ok rest
      | _ -> true
    in
    ok touches
  in
  check Alcotest.bool "touches ascending" true ascending;
  (match Prov.first_touch prov F.guest_rip with
  | Some t ->
      check Alcotest.int "first touch is the earliest" t.Prov.t_index
        (List.hd touches).Prov.t_index
  | None -> Alcotest.fail "no first touch");
  (* last_touch_before agrees with a brute-force scan. *)
  let before = 100 in
  let expected =
    List.fold_left
      (fun acc t -> if t.Prov.t_index < before then Some t else acc)
      None touches
  in
  let got = Prov.last_touch_before prov F.guest_rip before in
  check
    (Alcotest.option Alcotest.int)
    "last touch before 100"
    (Option.map (fun t -> t.Prov.t_index) expected)
    (Option.map (fun t -> t.Prov.t_index) got);
  (* Write-only restriction: RIP advancement writes it every exit. *)
  (match Prov.first_touch ~access:Prov.Write prov F.guest_rip with
  | Some t -> check Alcotest.bool "write access" true (t.Prov.t_access = Prov.Write)
  | None -> Alcotest.fail "RIP is written by advance_rip")

(* --- session time travel --- *)

let prefix n =
  let _, recording, _ = Lazy.force cache in
  Array.sub recording.Manager.trace.Trace.seeds 0 n

let test_session_marks () =
  Alcotest.check_raises "zero period rejected"
    (Invalid_argument "Session.start: every must be positive") (fun () ->
      ignore (Session.start ~every:0 ~replayer:(fresh_replayer ())
                ~seeds:(prefix 20) ()));
  let session =
    Session.start ~every:8 ~replayer:(fresh_replayer ()) ~seeds:(prefix 20) ()
  in
  check Alcotest.int "marks before seeds 0/8/16" 3 (Session.checkpoints session);
  let forward0 = Session.seeds_forward session in
  Session.goto session 12;
  check Alcotest.int "position" 12 (Session.position session);
  check Alcotest.int "rewound to the newest mark at or below 12" 4
    (Session.seeds_forward session - forward0);
  check Alcotest.int "later marks discarded" 2 (Session.checkpoints session);
  Session.goto session 8;
  check Alcotest.int "exact mark: no forward replay" 4
    (Session.seeds_forward session - forward0);
  Session.goto session 20;
  check Alcotest.int "forward replay re-marks seed 16" 3
    (Session.checkpoints session);
  Session.finish session;
  check Alcotest.int "finish releases all marks" 0
    (Session.checkpoints session)

let test_session_goto_after_finish () =
  let session =
    Session.start ~every:16 ~replayer:(fresh_replayer ())
      ~seeds:(prefix 100) ()
  in
  Session.goto session 40;
  Session.finish session;
  (try
     Session.goto session 90;
     Alcotest.fail "goto after finish must raise"
   with Invalid_argument _ -> ());
  check Alcotest.int "no mark re-opened" 0 (Session.checkpoints session)

(* Machine state at a boundary: the VMCS guest-state area plus the
   GPR file. *)
let fingerprint rep =
  let ctx = Replayer.ctx rep in
  let gprs = ref [] in
  Iris_x86.Gpr.iter (fun _ v -> gprs := v :: !gprs) (Iris_hv.Ctx.regs ctx);
  List.map (Iris_hv.Access.vmread_raw ctx) (F.in_area F.Guest) @ !gprs

let travel_seeds = 200

(* Fingerprints of one linear replay at every boundary 0..n. *)
let linear_fingerprints =
  lazy
    (let seeds = prefix travel_seeds in
     let rep = fresh_replayer () in
     Array.init (travel_seeds + 1) (fun i ->
         let fp = fingerprint rep in
         (if i < travel_seeds then
            match Replayer.submit rep seeds.(i) with
            | Replayer.Replayed -> ()
            | Replayer.Vm_crashed msg -> failwith ("linear replay: " ^ msg));
         fp))

type step = Goto of int | Reverse_continue

let show_step = function
  | Goto i -> Printf.sprintf "goto %d" i
  | Reverse_continue -> "reverse-continue RIP"

let travel_gen =
  QCheck.Gen.(
    pair (int_range 1 24)
      (list_size (int_range 1 12)
         (frequency
            [ (5, map (fun i -> Goto i) (int_range 0 travel_seeds));
              (1, return Reverse_continue) ])))

let travel_arb =
  QCheck.make travel_gen ~print:(fun (every, steps) ->
      Printf.sprintf "every %d: %s" every
        (String.concat "; " (List.map show_step steps)))

let prop_travel (every, steps) =
  let expected = Lazy.force linear_fingerprints in
  let _, recording, _ = Lazy.force cache in
  let prov = Prov.build recording.Manager.trace in
  let rep = fresh_replayer () in
  let session =
    Session.start ~every ~replayer:rep ~seeds:(prefix travel_seeds) ()
  in
  let bound = (travel_seeds + every - 1) / every in
  let check_here () =
    let p = Session.position session in
    if fingerprint rep <> expected.(p) then
      QCheck.Test.fail_reportf "state at position %d differs from linear replay"
        p;
    if Session.checkpoints session > bound then
      QCheck.Test.fail_reportf "%d marks exceed ceil(%d/%d)"
        (Session.checkpoints session) travel_seeds every
  in
  check_here ();
  List.iter
    (fun step ->
      (match step with
      | Goto i -> Session.goto session i
      | Reverse_continue ->
          ignore (Session.reverse_continue_to session prov F.guest_rip));
      check_here ())
    steps;
  Session.finish session;
  Session.checkpoints session = 0

let test_session_travel_property =
  QCheck.Test.make ~count:100 ~name:"travel = linear replay, every boundary"
    travel_arb prop_travel

let test_session_travel () =
  let _, recording, _ = Lazy.force cache in
  let trace = recording.Manager.trace in
  let seeds = trace.Trace.seeds in
  let rep = fresh_replayer () in
  let session = Session.start ~every:32 ~replayer:rep ~seeds () in
  check Alcotest.int "detection pass ran to the end" exits
    (Session.position session);
  check Alcotest.bool "no crash" true (Session.crashed_at session = None);
  Session.goto session 100;
  check Alcotest.int "backward goto" 100 (Session.position session);
  (* At the boundary before seed 100 the VMCS RIP is whatever seed
     99's handler wrote last — which replay fidelity pins to the
     recorded write. *)
  let last_rip_write m =
    List.fold_left
      (fun acc (f, v) -> if f = F.guest_rip then Some v else acc)
      None
      (Iris_core.Metrics.guest_state_writes m)
  in
  (match last_rip_write trace.Trace.metrics.(99) with
  | Some recorded_rip ->
      check Alcotest.int64 "time-travelled RIP matches the recording"
        recorded_rip
        (Session.vmread session F.guest_rip)
  | None -> ());
  let rip_at_100 = Session.vmread session F.guest_rip in
  Session.goto session 37;
  check Alcotest.int "second rewind" 37 (Session.position session);
  (* Travelling away and back reproduces the exact machine state. *)
  Session.goto session 100;
  check Alcotest.int64 "revisited position is bit-identical" rip_at_100
    (Session.vmread session F.guest_rip);
  Session.goto session 37;
  Session.goto session 39;
  check Alcotest.int "forward replay" 39 (Session.position session);
  (* reverse-continue: every CPU-bound exit advances RIP, so the last
     touch before 39 is exit 38. *)
  let prov = Prov.build trace in
  (match Session.reverse_continue_to session prov F.guest_rip with
  | Some t ->
      check Alcotest.int "reverse-continue target" 38 t.Prov.t_index;
      check Alcotest.int "moved to the touching exit" 38
        (Session.position session)
  | None -> Alcotest.fail "RIP must have a touch before 39");
  check Alcotest.bool "rewinds counted" true (Session.reverts session >= 2);
  check Alcotest.bool "forward work counted" true
    (Session.seeds_forward session > exits);
  (try
     Session.goto session (exits + 1);
     Alcotest.fail "goto beyond the trace must raise"
   with Invalid_argument _ -> ());
  Session.finish session;
  check Alcotest.int "finish releases the marks" 0
    (Session.checkpoints session)

(* --- locator --- *)

let test_locator_identical_traces () =
  let _, recording, _ = Lazy.force cache in
  let { Gate.report; _ } = locate recording.Manager.trace.Trace.seeds in
  check Alcotest.bool "no divergence" true
    (report.Locator.first_divergent = None);
  check Alcotest.bool "no crash" true (report.Locator.crashed_at = None)

let test_locator_finds_planted_crash () =
  let at, seeds = perturb ~kind:Synthetic.Crash_rip ~at:200 in
  (* The gate: planted index = linear ground truth = locator. *)
  let { Gate.report; _ } = locate ~planted:at seeds in
  (match report.Locator.first_divergent with
  | Some d ->
      check Alcotest.bool "crash attributed" true (d.Locator.dg_crashed <> None)
  | None -> ());
  (* The whole point: far fewer instrumented seeds than the linear
     sweep. *)
  check Alcotest.bool "cheaper than linear" true
    (report.Locator.seeds_instrumented * 2 < report.Locator.linear_seeds);
  check Alcotest.bool "rewinds happened" true (report.Locator.reverts >= 1)

let test_locator_finds_transient_divergence () =
  (* Wrong_value: a one-seed VMWRITE mismatch that the next seed's
     injection heals — no crash, no coverage delta, located purely
     through the metrics probes. *)
  let at, seeds = perturb ~kind:Synthetic.Wrong_value ~at:150 in
  let { Gate.divergence; report; _ } = locate ~planted:at seeds in
  (match divergence.Analysis.dv_first with
  | Some d ->
      check Alcotest.bool "write mismatch, not coverage" true
        d.Analysis.d_write_mismatch
  | None -> ());
  (match report.Locator.first_divergent with
  | Some d ->
      check Alcotest.bool "field delta reported" true
        (d.Locator.dg_write_deltas <> [])
  | None -> ());
  (* Thorough scan reaches the same answer. *)
  ignore (locate ~planted:at ~thorough:true seeds : Gate.locate)

(* --- bisection --- *)

let test_bisect_minimizes_and_is_deterministic () =
  let at, seeds = perturb ~kind:Synthetic.Crash_rip ~at:120 in
  let prefix = Array.sub seeds 0 at in
  let crasher = seeds.(at) in
  match Bisect.minimize ~make_replayer:fresh_replayer ~prefix ~crasher with
  | None -> Alcotest.fail "planted crash must reproduce"
  | Some b ->
      (* A non-canonical RIP kills the VM with no context at all, so
         the whole prefix is droppable. *)
      check Alcotest.int "context-free crash drops the whole prefix" at
        b.Bisect.b_suffix_start;
      check Alcotest.int "one-seed reproducer" 1
        (Array.length b.Bisect.b_seeds);
      check Alcotest.bool "crash message kept" true (b.Bisect.b_crash_msg <> "");
      check Alcotest.bool "bounded attempts" true
        (b.Bisect.b_attempts <= 2 + 8 (* log2 120 *) + 2);
      check Alcotest.bool "digests stable across two replays" true
        b.Bisect.b_deterministic;
      (* FNV-1a 64-bit: 16 hex chars. *)
      check Alcotest.int "hex digest" 16 (String.length b.Bisect.b_digest);
      (* The reproducer round-trips through the trace format. *)
      let t = Bisect.to_trace b in
      (match Trace.decode (Trace.encode t) with
      | Ok t' ->
          check Alcotest.int "reproducer trace roundtrip" 1 (Trace.length t')
      | Error e -> Alcotest.fail e)

let test_bisect_rejects_flaky () =
  (* A crasher that does not crash: minimize must return None rather
     than fabricate a reproducer. *)
  let _, recording, _ = Lazy.force cache in
  let seeds = recording.Manager.trace.Trace.seeds in
  let prefix = Array.sub seeds 0 10 in
  check Alcotest.bool "clean seed is not a repro" true
    (Bisect.minimize ~make_replayer:fresh_replayer ~prefix ~crasher:seeds.(10)
    = None)

(* A small RDTSC/VMCS campaign that crashes: its plan, its result and
   the prefix up to its target. *)
let rdtsc_campaign =
  lazy
    (let m, recording, _ = Lazy.force cache in
     let trace = recording.Manager.trace in
     let config = { Campaign.mutations = 40; prng_seed = 77 } in
     let reason = R.Rdtsc and area = Mutation.Area_vmcs in
     match
       ( Campaign.plan ~config ~trace ~reason ~area,
         Campaign.run ~config ~manager:m ~recording ~reason ~area () )
     with
     | Some plan, Some r ->
         check Alcotest.bool "the campaign crashes" true
           (r.Campaign.crashing <> []);
         (plan, r, Array.sub trace.Trace.seeds 0 r.Campaign.seed_index)
     | _ -> Alcotest.fail "rdtsc seeds exist")

(* Bisection's first attempt — the whole prefix up to the campaign's
   target, then the mutant — is the campaign case itself: for every
   crashing verdict of a campaign it reproduces, with the verdict's
   crash message ("hv: "-prefixed for a hypervisor crash). *)
let test_bisect_first_attempt_is_campaign_case () =
  let plan, r, prefix = Lazy.force rdtsc_campaign in
  List.iteri
    (fun k (v : Campaign.verdict) ->
      let expected =
        match v.Campaign.failure with
        | Campaign.Hypervisor_crash -> "hv: " ^ v.Campaign.detail
        | Campaign.Vm_crash | Campaign.No_failure -> v.Campaign.detail
      in
      match
        Bisect.minimize ~make_replayer:fresh_replayer ~prefix
          ~crasher:(Campaign.crashing_seed plan v)
      with
      | None -> Alcotest.failf "verdict %d (%s) does not reproduce" k expected
      | Some b ->
          check Alcotest.string
            (Printf.sprintf "verdict %d crash message" k)
            expected b.Bisect.b_crash_msg)
    r.Campaign.crashing

(* The starts a one-crasher search tries, from its outcome alone: a
   try at [mid] succeeds exactly when [mid <= start]. *)
let search_path n = function
  | None -> [ 0 ]
  | Some start ->
      let rec go lo hi acc =
        if lo >= hi then acc
        else
          let mid = (lo + hi + 1) / 2 in
          if mid <= start then go mid hi (mid :: acc)
          else go lo (mid - 1) (mid :: acc)
      in
      go 0 n [ 0 ]

(* One search over every crasher of the campaign shares the replayed
   prefix states, and answers each crasher exactly as a search over it
   alone would: every field but the seed count, which charges a shared
   start to the first crasher that needed it. *)
let test_bisect_grouped_search_is_per_crasher () =
  let plan, r, prefix = Lazy.force rdtsc_campaign in
  let built = ref 0 in
  let make_replayer () =
    incr built;
    fresh_replayer ()
  in
  let crashers =
    Array.of_list (List.map (Campaign.crashing_seed plan) r.Campaign.crashing)
  in
  let singles =
    Array.map
      (fun crasher -> Bisect.minimize ~make_replayer ~prefix ~crasher)
      crashers
  in
  let singles_built = !built in
  built := 0;
  let searched = Bisect.search ~make_replayer ~prefix ~crashers in
  let search_built = !built in
  let grouped =
    Array.mapi
      (fun i s ->
        Option.map
          (Bisect.verify ~make_replayer ~prefix ~crasher:crashers.(i))
          s)
      searched
  in
  let visible (b : Bisect.result) = { b with Bisect.b_seeds_replayed = 0 } in
  Array.iteri
    (fun i single ->
      check Alcotest.bool
        (Printf.sprintf "crasher %d: grouped = alone" i)
        true
        (Option.map visible single = Option.map visible grouped.(i)))
    singles;
  check Alcotest.bool "some crasher reproduces" true
    (Array.exists Option.is_some grouped);
  let n = Array.length prefix in
  let visited =
    Array.to_list singles
    |> List.concat_map (fun b ->
           search_path n (Option.map (fun b -> b.Bisect.b_suffix_start) b))
    |> List.sort_uniq compare
  in
  check Alcotest.bool
    (Printf.sprintf "%d search dummies <= %d distinct starts" search_built
       (List.length visited))
    true
    (search_built <= List.length visited);
  check Alcotest.bool
    (Printf.sprintf "%d grouped dummies < %d for one crasher at a time"
       !built singles_built)
    true (!built < singles_built)

let () =
  Alcotest.run "iris-inspect"
    [ ( "replayer",
        [ Alcotest.test_case "crash then full revert" `Slow
            test_crashed_submit_all_revertable ] );
      ( "replayer-checkpoints",
        [ Alcotest.test_case "crash releases marks" `Slow
            test_crash_releases_marks ] );
      ( "provenance",
        [ Alcotest.test_case "queries" `Slow test_provenance_queries ] );
      ( "session",
        [ Alcotest.test_case "time travel" `Slow test_session_travel;
          Alcotest.test_case "checkpoint marks" `Slow test_session_marks;
          Alcotest.test_case "goto after finish raises" `Slow
            test_session_goto_after_finish;
          QCheck_alcotest.to_alcotest test_session_travel_property
        ] );
      ( "locator",
        [ Alcotest.test_case "identical traces" `Slow
            test_locator_identical_traces;
          Alcotest.test_case "planted crash" `Slow
            test_locator_finds_planted_crash;
          Alcotest.test_case "transient divergence" `Slow
            test_locator_finds_transient_divergence ] );
      ( "bisect",
        [ Alcotest.test_case "minimize + determinism" `Slow
            test_bisect_minimizes_and_is_deterministic;
          Alcotest.test_case "flaky rejected" `Slow test_bisect_rejects_flaky;
          Alcotest.test_case "first attempt is the campaign case" `Slow
            test_bisect_first_attempt_is_campaign_case;
          Alcotest.test_case "grouped search = one crasher at a time" `Slow
            test_bisect_grouped_search_is_per_crasher ] )
    ]
