(* Tests for the telemetry subsystem: registry semantics, tracer ring
   behavior, exporter well-formedness (Chrome trace files must parse
   back), and end-to-end determinism of instrumented replay runs. *)

module T = Iris_telemetry
module Manager = Iris_core.Manager
module W = Iris_guest.Workload

let check = Alcotest.check

(* --- registry --- *)

let test_counter_semantics () =
  let reg = T.Registry.create () in
  let c = T.Registry.counter reg "a" in
  T.Registry.incr c;
  T.Registry.add c 4;
  T.Registry.add64 c 5L;
  check Alcotest.int64 "counter accumulates" 10L (T.Registry.counter_value c);
  (* registration is idempotent: same name, same instrument *)
  let c' = T.Registry.counter reg "a" in
  T.Registry.incr c';
  check Alcotest.int64 "interned by name" 11L (T.Registry.counter_value c)

let test_gauge_semantics () =
  let reg = T.Registry.create () in
  let g = T.Registry.gauge reg "g" in
  T.Registry.set g 42L;
  T.Registry.set g 7L;
  check Alcotest.int64 "gauge keeps last" 7L (T.Registry.gauge_value g)

let test_histogram_semantics () =
  let reg = T.Registry.create () in
  let h = T.Registry.histogram reg "h" in
  List.iter (fun v -> T.Registry.observe h v) [ 1L; 2L; 4L; 8L; 1000L ];
  check Alcotest.int64 "count" 5L (T.Registry.hist_count h);
  check Alcotest.int64 "sum" 1015L (T.Registry.hist_sum h);
  let p50 = T.Registry.hist_quantile h 0.5 in
  let p99 = T.Registry.hist_quantile h 0.99 in
  check Alcotest.bool "quantiles ordered" true (p50 <= p99);
  check Alcotest.bool "p99 below max" true (p99 <= 1000.0);
  check Alcotest.bool "p50 plausible" true (p50 >= 1.0 && p50 <= 8.0);
  (* negative samples clamp instead of crashing *)
  T.Registry.observe h (-5L);
  check Alcotest.int64 "clamped count" 6L (T.Registry.hist_count h)

let test_vec_labels () =
  let reg = T.Registry.create () in
  let v = T.Registry.counter_vec reg "v" ~labels:[| "A"; "B" |] in
  T.Registry.vec_incr v 0;
  T.Registry.vec_incr v 1;
  T.Registry.vec_incr v 1;
  T.Registry.vec_incr v 99 (* out of range: dropped, not an exception *);
  let snap = T.Registry.snapshot reg in
  let get name =
    match List.assoc_opt name snap with
    | Some (T.Registry.S_counter n) -> n
    | _ -> Alcotest.fail (name ^ " missing from snapshot")
  in
  check Alcotest.int64 "v{A}" 1L (get "v{A}");
  check Alcotest.int64 "v{B}" 2L (get "v{B}")

let test_snapshot_render () =
  let reg = T.Registry.create () in
  let c = T.Registry.counter reg "c" in
  let h = T.Registry.histogram reg "h" in
  T.Registry.add c 10;
  T.Registry.observe h 100L;
  T.Registry.add c 5;
  T.Registry.observe h 200L;
  let snap = T.Registry.snapshot reg in
  (match List.assoc_opt "c" snap with
  | Some (T.Registry.S_counter n) -> check Alcotest.int64 "counter" 15L n
  | _ -> Alcotest.fail "c missing from snapshot");
  (match List.assoc_opt "h" snap with
  | Some (T.Registry.S_histogram { count; sum; _ }) ->
      check Alcotest.int64 "hist count" 2L count;
      check Alcotest.int64 "hist sum" 300L sum
  | _ -> Alcotest.fail "h missing from snapshot");
  let lines =
    String.split_on_char '\n' (T.Registry.render snap)
    |> List.filter (fun l -> l <> "")
  in
  check Alcotest.int "one line per metric" 2 (List.length lines);
  check Alcotest.bool "counter line shows its value" true
    (String.ends_with ~suffix:" 15" (List.hd lines))

(* Registries built from (kind, name, label, value) entries.  A name's
   kind is fixed by its prefix and a vec's labels by its name, so
   registries that share a name share its type, as the per-worker hubs
   of one campaign do. *)
let vec_labels = [| "A"; "B"; "C" |]

let registry_of entries =
  let module R = T.Registry in
  let r = R.create () in
  List.iter
    (fun (kind, name, label, v) ->
      let n = [| "c"; "g"; "h"; "v"; "hv" |].(kind) ^ string_of_int name in
      match kind with
      | 0 -> R.add (R.counter r n) v
      | 1 -> R.set (R.gauge r n) (Int64.of_int v)
      | 2 -> R.observe (R.histogram r n) (Int64.of_int v)
      | 3 -> R.vec_add (R.counter_vec r n ~labels:vec_labels) label v
      | _ ->
          R.hist_observe
            (R.histogram_vec r n ~labels:vec_labels)
            label (Int64.of_int v))
    entries;
  r

let merge_orders =
  let open QCheck.Gen in
  let entry =
    quad (int_range 0 4) (int_range 0 2) (int_range 0 2)
      (frequency [ (3, int_range (-1000) 1000); (1, int_range 0 (1 lsl 40)) ])
  in
  list_size (int_range 1 5) (list_size (int_range 0 12) entry) >>= fun regs ->
  let idx = List.init (List.length regs) Fun.id in
  map2 (fun a b -> (regs, a, b)) (shuffle_l idx) (shuffle_l idx)

(* The orchestrator's jobs-independence rests on this: merging per-worker
   registries in any order gives the same snapshot, counters summing
   and gauges taking the max of their inputs. *)
let prop_merge_order_independent =
  QCheck.Test.make ~name:"merge_into is order-independent" ~count:300
    (QCheck.make
       ~print:
         QCheck.Print.(
           triple (list (list (quad int int int int))) (list int) (list int))
       merge_orders)
    (fun (specs, order_a, order_b) ->
      let module R = T.Registry in
      let regs = Array.of_list (List.map registry_of specs) in
      let merged order =
        let into = R.create () in
        List.iter (fun i -> R.merge_into ~into regs.(i)) order;
        R.snapshot into
      in
      let a = merged order_a and b = merged order_b in
      let inputs = Array.to_list (Array.map R.snapshot regs) in
      let values name =
        List.filter_map (fun snap -> List.assoc_opt name snap) inputs
      in
      R.to_jsonl a = R.to_jsonl b
      && List.for_all
           (fun (name, sample) ->
             match sample with
             | R.S_counter v ->
                 v
                 = List.fold_left
                     (fun acc -> function
                       | R.S_counter x -> Int64.add acc x | _ -> acc)
                     0L (values name)
             | R.S_gauge v ->
                 v
                 = List.fold_left
                     (fun acc -> function
                       | R.S_gauge x -> Int64.max acc x | _ -> acc)
                     Int64.min_int (values name)
             | R.S_histogram _ -> true)
           a)

(* --- tracer --- *)

let test_ring_wraparound () =
  let tr = T.Tracer.create ~capacity:4 () in
  for i = 0 to 9 do
    T.Tracer.begin_span tr ~name:(Printf.sprintf "s%d" i)
      ~ts:(Int64.of_int (i * 10));
    T.Tracer.end_span tr ~ts:(Int64.of_int ((i * 10) + 5))
  done;
  check Alcotest.int "retained" 4 (T.Tracer.recorded tr);
  check Alcotest.int "evicted" 6 (T.Tracer.dropped tr);
  let names = List.map (fun s -> s.T.Tracer.name) (T.Tracer.spans tr) in
  Alcotest.(check (list string)) "newest spans win, oldest first"
    [ "s6"; "s7"; "s8"; "s9" ] names

let test_unbalanced_end_dropped () =
  let tr = T.Tracer.create () in
  T.Tracer.end_span tr ~ts:5L;
  check Alcotest.int "nothing recorded" 0 (T.Tracer.recorded tr);
  check Alcotest.int "depth still zero" 0 (T.Tracer.depth tr)

let test_nesting_depth () =
  let tr = T.Tracer.create () in
  T.Tracer.begin_span tr ~cat:"phase" ~name:"outer" ~ts:0L;
  T.Tracer.begin_span tr ~cat:"exit" ~name:"inner" ~ts:10L;
  check Alcotest.int "two open" 2 (T.Tracer.depth tr);
  T.Tracer.end_span tr ~ts:20L;
  T.Tracer.end_span tr ~ts:30L;
  let spans = T.Tracer.spans tr in
  check Alcotest.int "two closed" 2 (List.length spans);
  let inner = List.nth spans 0 and outer = List.nth spans 1 in
  check Alcotest.string "inner closes first" "inner" inner.T.Tracer.name;
  check Alcotest.int "inner depth" 1 inner.T.Tracer.depth;
  check Alcotest.int "outer depth" 0 outer.T.Tracer.depth;
  check Alcotest.int64 "inner duration" 10L inner.T.Tracer.dur

(* --- JSON --- *)

let test_json_roundtrip () =
  let module J = T.Json in
  let j =
    J.Obj
      [ ("s", J.String "a\"b\\c\n");
        ("n", J.Int (-42));
        ("f", J.Float 1.5);
        ("b", J.Bool true);
        ("z", J.Null);
        ("l", J.List [ J.Int 1; J.Obj [ ("k", J.String "v") ] ]) ]
  in
  match J.of_string (J.to_string j) with
  | Error e -> Alcotest.fail ("reparse failed: " ^ e)
  | Ok j' -> check Alcotest.bool "roundtrip equal" true (j = j')

(* Parsing wire lines and corpus files is a trust boundary: nesting
   past the cap is an error, not a deeper recursion. *)
let test_json_depth_cap () =
  let module J = T.Json in
  let nested n = String.make n '[' ^ String.make n ']' in
  check Alcotest.bool "nesting at the cap parses" true
    (Result.is_ok (J.of_string (nested J.max_depth)));
  check Alcotest.bool "one past the cap is an error" true
    (Result.is_error (J.of_string (nested (J.max_depth + 1))));
  check Alcotest.bool "objects count too" true
    (Result.is_error
       (J.of_string
          (String.concat "" (List.init (J.max_depth + 1) (fun _ -> {|{"k":|}))
          ^ "1" ^ String.make (J.max_depth + 1) '}')))

(* --- Chrome trace export --- *)

let test_chrome_trace_wellformed () =
  let module J = T.Json in
  let tr = T.Tracer.create () in
  T.Tracer.begin_span tr ~cat:"phase" ~name:"outer" ~ts:0L;
  T.Tracer.begin_span tr ~cat:"exit" ~tid:2 ~name:"inner" ~ts:3600L;
  T.Tracer.end_span tr ~ts:7200L;
  T.Tracer.instant tr ~name:"crash" ~ts:9000L;
  T.Tracer.end_span tr ~ts:10800L;
  let s = T.Export.chrome_trace_string tr in
  match J.of_string s with
  | Error e -> Alcotest.fail ("trace does not parse: " ^ e)
  | Ok j ->
      let events =
        match J.member "traceEvents" j with
        | Some l -> J.to_list l
        | None -> Alcotest.fail "no traceEvents array"
      in
      check Alcotest.bool "has events" true (List.length events >= 4);
      List.iter
        (fun e ->
          check Alcotest.bool "every event has ph" true
            (J.member "ph" e <> None);
          check Alcotest.bool "every event has name or args" true
            (J.member "name" e <> None || J.member "args" e <> None))
        events;
      let phs =
        List.filter_map
          (fun e -> Option.bind (J.member "ph" e) J.string_value)
          events
      in
      check Alcotest.bool "complete events present" true (List.mem "X" phs);
      check Alcotest.bool "instant events present" true (List.mem "i" phs);
      check Alcotest.bool "metadata present" true (List.mem "M" phs)

(* --- probe --- *)

let labels = [| "ZERO"; "ONE"; "TWO" |]

let test_probe_metrics () =
  let hub = T.Hub.create () in
  let p = T.Probe.create ~labels hub in
  T.Probe.exit_begin p ~now:100L;
  T.Probe.on_vmread p;
  T.Probe.on_vmread p;
  T.Probe.on_vmwrite p;
  T.Probe.exit_end p ~now:350L ~reason:1;
  let snap = T.Hub.snapshot hub in
  let counter name =
    match List.assoc_opt name snap with
    | Some (T.Registry.S_counter n) -> n
    | _ -> Alcotest.fail (name ^ " missing")
  in
  check Alcotest.int64 "exit counted" 1L (counter "hv.exits{ONE}");
  check Alcotest.int64 "cycles attributed" 250L
    (counter "hv.exit_cycles{ONE}");
  check Alcotest.int64 "vmreads" 2L (counter "hv.vmreads");
  check Alcotest.int64 "vmwrites" 1L (counter "hv.vmwrites");
  let spans = T.Tracer.spans hub.T.Hub.tracer in
  check Alcotest.int "one span" 1 (List.length spans);
  check Alcotest.string "span renamed to reason" "ONE"
    (List.hd spans).T.Tracer.name

let test_probe_unwind_on_panic () =
  let hub = T.Hub.create () in
  let p = T.Probe.create ~labels hub in
  T.Probe.exit_begin p ~now:0L;
  T.Probe.handler_begin p ~now:10L;
  (* the handler raised: neither handler_end nor exit_end ran *)
  T.Probe.exit_begin p ~now:100L;
  T.Probe.exit_end p ~now:150L ~reason:0;
  check Alcotest.int "stack fully unwound" 0 (T.Tracer.depth hub.T.Hub.tracer);
  let names =
    List.map (fun s -> s.T.Tracer.name) (T.Tracer.spans hub.T.Hub.tracer)
  in
  Alcotest.(check (list string)) "aborted spans closed, new exit recorded"
    [ "aborted"; "aborted"; "ZERO" ] names;
  (* the aborted exit contributed no metrics *)
  match List.assoc_opt "hv.exits{ZERO}" (T.Hub.snapshot hub) with
  | Some (T.Registry.S_counter n) -> check Alcotest.int64 "one exit" 1L n
  | _ -> Alcotest.fail "hv.exits{ZERO} missing"

(* --- end-to-end determinism --- *)

let instrumented_run () =
  let mgr = Manager.create ~boot_scale:0.05 ~prng_seed:7 () in
  let hub = T.Hub.create () in
  Manager.set_hub mgr (Some hub);
  let recording = Manager.record mgr W.Cpu_bound ~exits:300 in
  let _run = Manager.replay mgr recording in
  hub

let test_replay_trace_deterministic () =
  let a = instrumented_run () in
  let b = instrumented_run () in
  check Alcotest.bool "some spans recorded" true
    (T.Tracer.recorded a.T.Hub.tracer > 0);
  (* compare digests: a failure must not dump megabytes of JSON *)
  let md5 s = Digest.to_hex (Digest.string s) in
  check Alcotest.string "chrome traces byte-identical"
    (md5 (T.Hub.chrome_trace_string a))
    (md5 (T.Hub.chrome_trace_string b));
  check Alcotest.string "metrics byte-identical"
    (md5 (T.Export.metrics_jsonl (T.Hub.snapshot a)))
    (md5 (T.Export.metrics_jsonl (T.Hub.snapshot b)))

let test_instrumented_run_trace_parses () =
  let module J = T.Json in
  let hub = instrumented_run () in
  match J.of_string (T.Hub.chrome_trace_string hub) with
  | Error e -> Alcotest.fail ("run trace does not parse: " ^ e)
  | Ok j ->
      let events =
        match J.member "traceEvents" j with
        | Some l -> J.to_list l
        | None -> Alcotest.fail "no traceEvents"
      in
      check Alcotest.bool "thousands of events" true
        (List.length events > 100);
      (* phase spans from the record/replay pipeline are present *)
      let names =
        List.filter_map
          (fun e -> Option.bind (J.member "name" e) J.string_value)
          events
      in
      check Alcotest.bool "record phase present" true
        (List.mem "record" names);
      check Alcotest.bool "replay phase present" true
        (List.mem "replay" names)

(* Fig. 10-style regression: the recorder's charged callbacks make each
   exit slightly more expensive, and only slightly. *)
let test_recording_overhead_pinned () =
  let median_handler_us callback_cycles =
    let cov = Iris_coverage.Cov.create () in
    let hooks = Iris_hv.Hooks.create () in
    hooks.Iris_hv.Hooks.callback_cycles <- callback_cycles;
    let ctx = Iris_hv.Xen.construct ~cov ~hooks ~name:"overhead" () in
    (match
       Iris_hv.Xen.run ctx
         ~fetch:(Iris_guest.Os_boot.program ~scale:0.05 ~seed:7 ())
     with
    | { Iris_hv.Xen.stop = Iris_hv.Xen.Completed; _ } -> ()
    | _ -> Alcotest.fail "boot failed");
    let recorder = Iris_core.Recorder.start ctx in
    ignore
      (Iris_hv.Xen.run ctx
         ~fetch:(W.post_bios_program W.Cpu_bound ~seed:7)
         ~max_exits:800);
    let trace =
      Iris_core.Recorder.stop recorder ~workload:"overhead" ~prng_seed:7
    in
    Iris_util.Stats.median (Iris_core.Analysis.handler_times_us trace)
  in
  let on = median_handler_us Iris_hv.Hooks.default_callback_cycles in
  let off = median_handler_us 0 in
  let delta_pct = 100.0 *. (on -. off) /. off in
  check Alcotest.bool "recording costs something" true (delta_pct > 0.0);
  check Alcotest.bool
    (Printf.sprintf "overhead stays Fig. 10-small (+%.2f%% < 5%%)" delta_pct)
    true (delta_pct < 5.0)

let () =
  Alcotest.run "iris_telemetry"
    [ ( "registry",
        [ Alcotest.test_case "counter semantics" `Quick
            test_counter_semantics;
          Alcotest.test_case "gauge semantics" `Quick test_gauge_semantics;
          Alcotest.test_case "histogram semantics" `Quick
            test_histogram_semantics;
          Alcotest.test_case "vec labels" `Quick test_vec_labels;
          Alcotest.test_case "snapshot render" `Quick test_snapshot_render;
          QCheck_alcotest.to_alcotest prop_merge_order_independent ] );
      ( "tracer",
        [ Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "unbalanced end dropped" `Quick
            test_unbalanced_end_dropped;
          Alcotest.test_case "nesting depth" `Quick test_nesting_depth ] );
      ( "export",
        [ Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "json depth cap" `Quick test_json_depth_cap;
          Alcotest.test_case "chrome trace well-formed" `Quick
            test_chrome_trace_wellformed ] );
      ( "probe",
        [ Alcotest.test_case "metrics" `Quick test_probe_metrics;
          Alcotest.test_case "unwind on panic" `Quick
            test_probe_unwind_on_panic ] );
      ( "end-to-end",
        [ Alcotest.test_case "replay trace deterministic" `Slow
            test_replay_trace_deterministic;
          Alcotest.test_case "run trace parses" `Slow
            test_instrumented_run_trace_parses;
          Alcotest.test_case "recording overhead pinned" `Slow
            test_recording_overhead_pinned ] ) ]
