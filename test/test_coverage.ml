(* Tests for the gcov-like coverage machinery: the store, spans, the
   record/replay diff analysis, and the AFL-style bitmap. *)

module Comp = Iris_coverage.Component
module Cov = Iris_coverage.Cov
module Diff = Iris_coverage.Diff
module Bitmap = Iris_coverage.Bitmap

let check = Alcotest.check

(* --- Component --- *)

let test_component_indices () =
  List.iter
    (fun c ->
      check Alcotest.bool (Comp.name c) true
        (Comp.of_index (Comp.index c) = Some c))
    Comp.all;
  check Alcotest.int "count" (List.length Comp.all) Comp.count

let test_component_paper_files () =
  (* Fig. 7's clusters must exist by name. *)
  let names = List.map Comp.name Comp.all in
  List.iter
    (fun n -> check Alcotest.bool n true (List.mem n names))
    [ "vlapic.c"; "irq.c"; "vpt.c"; "emulate.c"; "intr.c"; "vmx.c" ]

let test_iris_component_not_instrumented () =
  (* "code coverage is cleaned up by removing hits due to the
     execution of our record and replay components". *)
  check Alcotest.bool "iris.c filtered" false (Comp.instrumented Comp.Iris_c);
  check Alcotest.bool "vmx.c instrumented" true (Comp.instrumented Comp.Vmx_c)

(* --- Cov --- *)

let test_cov_hit_and_count () =
  let c = Cov.create () in
  check Alcotest.int "empty" 0 (Cov.unique_lines c);
  Cov.hit c Comp.Vmx_c 10;
  let n1 = Cov.unique_lines c in
  check Alcotest.bool "block of lines registered" true (n1 >= 1 && n1 <= 8);
  (* Re-hitting the same probe adds nothing new. *)
  Cov.hit c Comp.Vmx_c 10;
  check Alcotest.int "idempotent uniques" n1 (Cov.unique_lines c);
  (* A different probe adds distinct lines. *)
  Cov.hit c Comp.Vmx_c 50;
  check Alcotest.bool "new probe adds" true (Cov.unique_lines c > n1)

let test_cov_disabled () =
  let c = Cov.create () in
  Cov.disable c;
  Cov.hit c Comp.Vmx_c 10;
  check Alcotest.int "nothing while disabled" 0 (Cov.unique_lines c);
  Cov.enable c;
  Cov.hit c Comp.Vmx_c 10;
  check Alcotest.bool "counts after enable" true (Cov.unique_lines c > 0)

let test_cov_iris_filtered () =
  let c = Cov.create () in
  Cov.hit c Comp.Iris_c 10;
  check Alcotest.int "iris.c hits dropped" 0 (Cov.unique_lines c)

let test_cov_spans () =
  let c = Cov.create () in
  Cov.hit c Comp.Vmx_c 1;
  let (), span = Cov.with_span c (fun () -> Cov.hit c Comp.Vmx_c 2) in
  check Alcotest.bool "span contains probe-2 lines" true
    (Cov.Pset.cardinal span > 0);
  (* Spans include already-covered points hit again. *)
  let (), span2 = Cov.with_span c (fun () -> Cov.hit c Comp.Vmx_c 2) in
  check Alcotest.bool "re-hit included" true (Cov.Pset.equal span span2);
  (* Points hit outside the span are not in it. *)
  let all = Cov.covered c in
  check Alcotest.bool "span smaller than total" true
    (Cov.Pset.cardinal span < Cov.Pset.cardinal all)

let test_cov_span_begin_end () =
  let c = Cov.create () in
  Cov.span_begin c;
  Cov.hit c Comp.Irq_c 3;
  let s = Cov.span_end c in
  check Alcotest.bool "callback-style span" true (Cov.Pset.cardinal s > 0);
  check Alcotest.bool "ended span empty" true
    (Cov.Pset.is_empty (Cov.span_end c))

let test_cov_lines_of_component () =
  let c = Cov.create () in
  Cov.hit c Comp.Vmx_c 1;
  Cov.hit c Comp.Irq_c 1;
  check Alcotest.bool "vmx lines present" true
    (List.length (Cov.lines_of c Comp.Vmx_c) > 0);
  check Alcotest.bool "vpt lines absent" true
    (Cov.lines_of c Comp.Vpt_c = [])

let test_cov_by_component () =
  let c = Cov.create () in
  Cov.hit c Comp.Vmx_c 1;
  Cov.hit c Comp.Vmx_c 9;
  Cov.hit c Comp.Irq_c 1;
  let groups = Cov.by_component (Cov.covered c) in
  check Alcotest.bool "vmx first (more lines)" true
    (fst (List.hd groups) = Comp.Vmx_c)

(* --- Diff --- *)

let span_of probes =
  let c = Cov.create () in
  Cov.span_begin c;
  List.iter (fun (comp, line) -> Cov.hit c comp line) probes;
  Cov.span_end c

let test_diff_exact_match () =
  let a = span_of [ (Comp.Vmx_c, 1); (Comp.Irq_c, 2) ] in
  let d = Diff.diff ~recorded:a ~replayed:a in
  check Alcotest.int "no difference" 0 (Diff.total_lines d);
  check Alcotest.bool "not noise" false (Diff.is_noise d)

let test_diff_noise_classification () =
  let recorded = span_of [ (Comp.Vmx_c, 1); (Comp.Vlapic_c, 3) ] in
  let replayed = span_of [ (Comp.Vmx_c, 1) ] in
  let d = Diff.diff ~recorded ~replayed in
  check Alcotest.bool "small diff is noise" true (Diff.is_noise d);
  check Alcotest.bool "missing on record side" true
    (Cov.Pset.cardinal d.Diff.missing > 0);
  check Alcotest.bool "vlapic named" true
    (List.mem_assoc Comp.Vlapic_c (Diff.by_component d))

let test_diff_divergent_classification () =
  let recorded = span_of [ (Comp.Vmx_c, 1) ] in
  let replayed =
    span_of
      ((Comp.Vmx_c, 1)
      :: List.init 12 (fun i -> (Comp.Emulate_c, 100 + (i * 7))))
  in
  let d = Diff.diff ~recorded ~replayed in
  check Alcotest.bool "large diff beyond threshold" true
    (Diff.total_lines d > Diff.noise_threshold)

let test_diff_summary_buckets () =
  let base = span_of [ (Comp.Vmx_c, 1) ] in
  let noisy = span_of [ (Comp.Vmx_c, 1); (Comp.Vpt_c, 5) ] in
  let divergent =
    span_of
      ((Comp.Vmx_c, 1)
      :: List.init 12 (fun i -> (Comp.Emulate_c, 200 + (i * 3))))
  in
  let diffs =
    [ Diff.diff ~recorded:base ~replayed:base;
      Diff.diff ~recorded:noisy ~replayed:base;
      Diff.diff ~recorded:divergent ~replayed:base ]
  in
  let s = Diff.summarise diffs in
  check Alcotest.int "one exact" 1 s.Diff.exact;
  check Alcotest.int "one noise" 1 s.Diff.noise;
  check Alcotest.int "one divergent" 1 s.Diff.divergent;
  check Alcotest.bool "vpt in noise cluster" true
    (List.mem_assoc Comp.Vpt_c s.Diff.noise_components);
  check Alcotest.bool "emulate in divergent cluster" true
    (List.mem_assoc Comp.Emulate_c s.Diff.divergent_components)

let test_diff_fitting_pct () =
  let a = span_of [ (Comp.Vmx_c, 1); (Comp.Vmx_c, 2) ] in
  check (Alcotest.float 1e-9) "identical = 100%" 100.0
    (Diff.fitting_pct ~recorded_cumulative:a ~replayed_cumulative:a);
  check (Alcotest.float 1e-9) "empty replay = 0%" 0.0
    (Diff.fitting_pct ~recorded_cumulative:a
       ~replayed_cumulative:Cov.Pset.empty);
  check (Alcotest.float 1e-9) "empty record = 100%" 100.0
    (Diff.fitting_pct ~recorded_cumulative:Cov.Pset.empty
       ~replayed_cumulative:a)

(* --- Bitmap --- *)

let test_bitmap_basics () =
  let b = Bitmap.create ~size:4096 () in
  check Alcotest.int "empty" 0 (Bitmap.set_bytes b);
  let span = span_of [ (Comp.Vmx_c, 1); (Comp.Irq_c, 2) ] in
  Bitmap.record_set b span;
  check Alcotest.bool "bytes set" true (Bitmap.set_bytes b > 0)

let test_bitmap_novelty () =
  let virgin = Bitmap.create ~size:4096 () in
  let m1 = Bitmap.create ~size:4096 () in
  Bitmap.record_set m1 (span_of [ (Comp.Vmx_c, 1) ]);
  let fresh1 = Bitmap.merge_new ~virgin m1 in
  check Alcotest.bool "first merge is novel" true (fresh1 > 0);
  let m2 = Bitmap.create ~size:4096 () in
  Bitmap.record_set m2 (span_of [ (Comp.Vmx_c, 1) ]);
  check Alcotest.int "same coverage not novel" 0
    (Bitmap.merge_new ~virgin m2);
  let m3 = Bitmap.create ~size:4096 () in
  Bitmap.record_set m3 (span_of [ (Comp.Ept_c, 9) ]);
  check Alcotest.bool "new coverage novel again" true
    (Bitmap.merge_new ~virgin m3 > 0)

let test_bitmap_reset () =
  let b = Bitmap.create ~size:4096 () in
  let s = span_of [ (Comp.Vmx_c, 1) ] in
  Bitmap.record_set b s;
  Bitmap.reset b;
  check Alcotest.int "reset clears" 0 (Bitmap.set_bytes b);
  (* A reset map is as good as a fresh one: everything is novel again. *)
  Bitmap.record_set b s;
  let virgin = Bitmap.create ~size:4096 () in
  check Alcotest.int "refilled slots novel" (Bitmap.set_bytes b)
    (Bitmap.merge_new ~virgin b)

(* Reference model: a dense map with the same slot hash, where every
   operation scans all [size] slots.  A 64-slot map makes hash
   collisions common. *)
module Dense_bitmap = struct
  let size = 64

  let slot p = (p * 0x9E3779B1) lsr 11 land (size - 1)

  let create () = Array.make size 0

  let record m (p : Cov.point) =
    let i = slot (p :> int) in
    if m.(i) < 255 then m.(i) <- m.(i) + 1

  let set_bytes m = Array.fold_left (fun n v -> if v <> 0 then n + 1 else n) 0 m

  let merge_new ~virgin m =
    let fresh = ref 0 in
    Array.iteri
      (fun i v ->
        if v <> 0 then begin
          if virgin.(i) = 0 then incr fresh;
          virgin.(i) <- min 255 (virgin.(i) + v)
        end)
      m;
    !fresh

  let reset m = Array.fill m 0 size 0
end

type bitmap_op =
  | B_record of int * Cov.point list * int  (* map, points, repetitions *)
  | B_reset of int
  | B_merge_new of int * int  (* virgin, from *)

let bitmap_maps = 3

let arb_bitmap_ops =
  let map_index = QCheck.Gen.int_bound (bitmap_maps - 1) in
  let point =
    QCheck.Gen.map2 Cov.point (QCheck.Gen.oneofl Comp.all)
      (QCheck.Gen.int_range 0 500)
  in
  let op =
    QCheck.Gen.(
      frequency
        [ ( 6,
            map3
              (fun m ps reps -> B_record (m, ps, reps))
              map_index
              (list_size (int_range 0 12) point)
              (* runs past 255 hits saturate a slot *)
              (frequency [ (5, return 1); (1, int_range 256 300) ]) );
          (2, map (fun m -> B_reset m) map_index);
          (3, map2 (fun a b -> B_merge_new (a, b)) map_index map_index) ])
  in
  let print = function
    | B_record (m, ps, reps) ->
        Printf.sprintf "record(%d,%d points x%d)" m (List.length ps) reps
    | B_reset m -> Printf.sprintf "reset(%d)" m
    | B_merge_new (a, b) -> Printf.sprintf "merge_new(%d<-%d)" a b
  in
  QCheck.make
    ~print:(fun ops -> String.concat ";" (List.map print ops))
    QCheck.Gen.(list_size (int_range 0 60) op)

let prop_bitmap_dense_model =
  QCheck.Test.make ~name:"bitmap = dense full-scan model on random ops"
    ~count:300 arb_bitmap_ops (fun ops ->
      let real =
        Array.init bitmap_maps (fun _ -> Bitmap.create ~size:Dense_bitmap.size ())
      in
      let model = Array.init bitmap_maps (fun _ -> Dense_bitmap.create ()) in
      let densities_agree () =
        Array.for_all2
          (fun r m -> Bitmap.set_bytes r = Dense_bitmap.set_bytes m)
          real model
      in
      List.for_all
        (fun op ->
          let novelty_agrees =
            match op with
            | B_record (k, ps, reps) ->
                let pset = Cov.Pset.of_list ps in
                for _ = 1 to reps do
                  Bitmap.record_set real.(k) pset;
                  Cov.Pset.iter (Dense_bitmap.record model.(k)) pset
                done;
                true
            | B_reset k ->
                Bitmap.reset real.(k);
                Dense_bitmap.reset model.(k);
                true
            | B_merge_new (a, b) ->
                Bitmap.merge_new ~virgin:real.(a) real.(b)
                = Dense_bitmap.merge_new ~virgin:model.(a) model.(b)
          in
          novelty_agrees && densities_agree ())
        ops)

let test_cov_merge_counts () =
  let mk probes =
    let c = Cov.create () in
    List.iter (fun (comp, line) -> Cov.hit c comp line) probes;
    c
  in
  let a = mk [ (Comp.Vmx_c, 1); (Comp.Irq_c, 2) ] in
  let b = mk [ (Comp.Vmx_c, 1); (Comp.Ept_c, 5) ] in
  let seq = mk [ (Comp.Vmx_c, 1); (Comp.Irq_c, 2); (Comp.Vmx_c, 1); (Comp.Ept_c, 5) ] in
  Cov.merge ~into:a b;
  check Alcotest.bool "union of points" true
    (Cov.Pset.equal (Cov.covered a) (Cov.covered seq));
  check Alcotest.int "hit counts add" (Cov.hits seq (Cov.point Comp.Vmx_c (1 * 16)))
    (Cov.hits a (Cov.point Comp.Vmx_c (1 * 16)))

(* --- Ipt (processor-trace backend) --- *)

module Ipt = Iris_coverage.Ipt

let test_ipt_decode_matches_gcov () =
  let ipt = Ipt.create () in
  let c = Cov.create () in
  let probes = [ (Comp.Vmx_c, 3); (Comp.Irq_c, 17); (Comp.Vmx_c, 3) ] in
  List.iter
    (fun (comp, line) ->
      Cov.hit c comp line;
      Ipt.emit ipt comp line)
    probes;
  check Alcotest.int "packets buffered" 3 (Ipt.packets ipt);
  check Alcotest.bool "decode equals gcov coverage" true
    (Cov.Pset.equal (Ipt.decode ipt) (Cov.covered c))

let test_ipt_filtering_and_enable () =
  let ipt = Ipt.create () in
  Ipt.emit ipt Comp.Iris_c 1;
  check Alcotest.int "iris.c filtered like PT IP ranges" 0 (Ipt.packets ipt);
  Ipt.disable ipt;
  Ipt.emit ipt Comp.Vmx_c 1;
  check Alcotest.int "disabled emits nothing" 0 (Ipt.packets ipt);
  Ipt.enable ipt;
  Ipt.emit ipt Comp.Vmx_c 1;
  check Alcotest.int "enabled emits" 1 (Ipt.packets ipt)

let test_ipt_overflow_drops_oldest () =
  let ipt = Ipt.create ~buffer_packets:4 () in
  for line = 1 to 6 do
    Ipt.emit ipt Comp.Vmx_c line
  done;
  check Alcotest.bool "overflowed" true (Ipt.overflowed ipt);
  check Alcotest.int "capacity retained" 4 (Ipt.packets ipt);
  (* Only the newest 4 probes (lines 3..6) survive. *)
  let decoded = Ipt.decode ipt in
  check Alcotest.bool "oldest dropped" false
    (Cov.Pset.subset (Cov.block_points Comp.Vmx_c 1) decoded);
  check Alcotest.bool "newest kept" true
    (Cov.Pset.subset (Cov.block_points Comp.Vmx_c 6) decoded)

let test_ipt_clear () =
  let ipt = Ipt.create () in
  Ipt.emit ipt Comp.Vmx_c 1;
  Ipt.clear ipt;
  check Alcotest.int "cleared" 0 (Ipt.packets ipt);
  check Alcotest.bool "overflow reset" false (Ipt.overflowed ipt)

let test_block_points_matches_hit () =
  let c = Cov.create () in
  Cov.hit c Comp.Ept_c 42;
  check Alcotest.bool "block_points = hit expansion" true
    (Cov.Pset.equal (Cov.block_points Comp.Ept_c 42) (Cov.covered c))

(* --- oracle equivalence ---

   A reference collector with the semantics of the store the dense
   arrays replaced: a (point -> count) Hashtbl plus a Pset for the
   in-flight span.  Random operation interleavings must be observably
   identical between it and [Cov] — same uniques, same covered set,
   same per-point counts, same span results, same export ordering. *)

module Oracle = struct
  module Pset = Cov.Pset

  type t = {
    counts : (Cov.point, int) Hashtbl.t;
    mutable on : bool;
    mutable span : Pset.t option;
  }

  let create () = { counts = Hashtbl.create 64; on = true; span = None }

  let enable t = t.on <- true

  let disable t = t.on <- false

  (* Same gcov block model as the dense store. *)
  let block_len line = 1 + (line * 2654435761) land 5

  let hit t comp line =
    if t.on && Comp.instrumented comp then begin
      let len = block_len line in
      let base = line * 16 in
      for i = base to base + len - 1 do
        let p = Cov.point comp i in
        let prev =
          match Hashtbl.find_opt t.counts p with Some n -> n | None -> 0
        in
        Hashtbl.replace t.counts p (prev + 1);
        match t.span with
        | Some s -> t.span <- Some (Pset.add p s)
        | None -> ()
      done
    end

  let hits t p =
    match Hashtbl.find_opt t.counts p with Some n -> n | None -> 0

  let covered t =
    Hashtbl.fold
      (fun p c acc -> if c > 0 then Pset.add p acc else acc)
      t.counts Pset.empty

  let unique_lines t =
    Hashtbl.fold (fun _ c acc -> if c > 0 then acc + 1 else acc) t.counts 0

  let lines_of t comp =
    Hashtbl.fold
      (fun p c acc ->
        if c > 0 && Cov.point_component p = comp then Cov.point_line p :: acc
        else acc)
      t.counts []
    |> List.sort compare

  let span_begin t = t.span <- Some Pset.empty

  let span_end t =
    match t.span with
    | Some s ->
        t.span <- None;
        s
    | None -> Pset.empty

  let reset t =
    Hashtbl.reset t.counts;
    t.span <- None

  let merge ~into t =
    Hashtbl.iter
      (fun p c ->
        let prev =
          match Hashtbl.find_opt into.counts p with Some n -> n | None -> 0
        in
        Hashtbl.replace into.counts p (prev + c))
      t.counts
end

type cov_op =
  | Op_hit of Comp.t * int
  | Op_span_begin
  | Op_span_end
  | Op_reset
  | Op_enable
  | Op_disable

let op_gen =
  QCheck.Gen.(
    frequency
      [ (8,
         map2
           (fun c l -> Op_hit (c, l))
           (oneofl Comp.all) (int_range 0 500));
        (2, return Op_span_begin);
        (2, return Op_span_end);
        (1, return Op_reset);
        (1, return Op_enable);
        (1, return Op_disable) ])

let ops_gen = QCheck.Gen.(list_size (int_range 0 80) op_gen)

let arb_ops =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Op_hit (c, l) -> Printf.sprintf "hit(%s,%d)" (Comp.name c) l
             | Op_span_begin -> "span_begin"
             | Op_span_end -> "span_end"
             | Op_reset -> "reset"
             | Op_enable -> "enable"
             | Op_disable -> "disable")
           ops))
    ops_gen

(* Every observable the recorder/orchestrator reads from a collector. *)
let observables_agree c o =
  Cov.unique_lines c = Oracle.unique_lines o
  && Cov.Pset.equal (Cov.covered c) (Oracle.covered o)
  && Cov.Pset.for_all (fun p -> Cov.hits c p = Oracle.hits o p)
       (Oracle.covered o)
  && List.for_all
       (fun comp -> Cov.lines_of c comp = Oracle.lines_of o comp)
       Comp.all

let prop_oracle_interleavings =
  QCheck.Test.make ~name:"dense store = Hashtbl oracle on random ops"
    ~count:300 arb_ops (fun ops ->
      let c = Cov.create () and o = Oracle.create () in
      let spans_agree = ref true in
      List.iter
        (function
          | Op_hit (comp, l) ->
              Cov.hit c comp l;
              Oracle.hit o comp l
          | Op_span_begin ->
              Cov.span_begin c;
              Oracle.span_begin o
          | Op_span_end ->
              let sc = Cov.span_end c and so = Oracle.span_end o in
              if not (Cov.Pset.equal sc so) then spans_agree := false
          | Op_reset ->
              Cov.reset c;
              Oracle.reset o
          | Op_enable ->
              Cov.enable c;
              Oracle.enable o
          | Op_disable ->
              Cov.disable c;
              Oracle.disable o)
        ops;
      !spans_agree && observables_agree c o)

let probes_to_both probes =
  let c = Cov.create () and o = Oracle.create () in
  List.iter
    (fun (comp, l) ->
      Cov.hit c comp l;
      Oracle.hit o comp l)
    probes;
  (c, o)

let prop_oracle_merge_commutes =
  QCheck.Test.make
    ~name:"merge = oracle merge, in either order" ~count:200
    (QCheck.pair
       (QCheck.make
          QCheck.Gen.(
            list_size (int_range 0 20)
              (pair (oneofl Comp.all) (int_range 0 500))))
       (QCheck.make
          QCheck.Gen.(
            list_size (int_range 0 20)
              (pair (oneofl Comp.all) (int_range 0 500)))))
    (fun (pa, pb) ->
      let a1, oa1 = probes_to_both pa and b1, ob1 = probes_to_both pb in
      let a2, _ = probes_to_both pa and b2, _ = probes_to_both pb in
      Cov.merge ~into:a1 b1;
      Oracle.merge ~into:oa1 ob1;
      Cov.merge ~into:b2 a2;
      (* a <- b equals the oracle merge... *)
      observables_agree a1 oa1
      (* ...and commutes with b <- a. *)
      && Cov.Pset.equal (Cov.covered a1) (Cov.covered b2)
      && Cov.unique_lines a1 = Cov.unique_lines b2
      && Cov.Pset.for_all
           (fun p -> Cov.hits a1 p = Cov.hits b2 p)
           (Cov.covered a1))

let prop_lines_of_sorted =
  QCheck.Test.make ~name:"lines_of exports in ascending order" ~count:200
    arb_ops (fun ops ->
      let c = Cov.create () in
      List.iter
        (function Op_hit (comp, l) -> Cov.hit c comp l | _ -> ())
        ops;
      List.for_all
        (fun comp ->
          let lines = Cov.lines_of c comp in
          List.sort compare lines = lines)
        Comp.all)

(* --- properties --- *)

let comp_gen =
  QCheck.Gen.oneofl (List.filter Comp.instrumented Comp.all)

let probes_gen =
  QCheck.Gen.(list_size (int_range 0 20) (pair comp_gen (int_range 0 500)))

let arb_probes = QCheck.make probes_gen

let prop_span_subset_of_covered =
  QCheck.Test.make ~name:"span is a subset of total coverage" ~count:200
    arb_probes
    (fun probes ->
      let c = Cov.create () in
      Cov.span_begin c;
      List.iter (fun (comp, l) -> Cov.hit c comp l) probes;
      let s = Cov.span_end c in
      Cov.Pset.subset s (Cov.covered c))

let prop_diff_symmetric_total =
  QCheck.Test.make ~name:"diff total symmetric in its arguments" ~count:200
    (QCheck.pair arb_probes arb_probes)
    (fun (pa, pb) ->
      let a = span_of pa and b = span_of pb in
      Diff.total_lines (Diff.diff ~recorded:a ~replayed:b)
      = Diff.total_lines (Diff.diff ~recorded:b ~replayed:a))

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "iris_coverage"
    [ ( "component",
        [ Alcotest.test_case "indices" `Quick test_component_indices;
          Alcotest.test_case "paper files" `Quick test_component_paper_files;
          Alcotest.test_case "iris not instrumented" `Quick
            test_iris_component_not_instrumented ] );
      ( "cov",
        [ Alcotest.test_case "hit/count" `Quick test_cov_hit_and_count;
          Alcotest.test_case "disabled" `Quick test_cov_disabled;
          Alcotest.test_case "iris filtered" `Quick test_cov_iris_filtered;
          Alcotest.test_case "spans" `Quick test_cov_spans;
          Alcotest.test_case "span begin/end" `Quick test_cov_span_begin_end;
          Alcotest.test_case "lines_of" `Quick test_cov_lines_of_component;
          Alcotest.test_case "by_component" `Quick test_cov_by_component ] );
      ( "diff",
        [ Alcotest.test_case "exact" `Quick test_diff_exact_match;
          Alcotest.test_case "noise" `Quick test_diff_noise_classification;
          Alcotest.test_case "divergent" `Quick
            test_diff_divergent_classification;
          Alcotest.test_case "summary buckets" `Quick
            test_diff_summary_buckets;
          Alcotest.test_case "fitting pct" `Quick test_diff_fitting_pct ] );
      ( "bitmap",
        [ Alcotest.test_case "basics" `Quick test_bitmap_basics;
          Alcotest.test_case "novelty" `Quick test_bitmap_novelty;
          Alcotest.test_case "reset" `Quick test_bitmap_reset;
          Alcotest.test_case "cov merge" `Quick test_cov_merge_counts ]
        @ qcheck [ prop_bitmap_dense_model ] );
      ( "ipt",
        [ Alcotest.test_case "decode matches gcov" `Quick
            test_ipt_decode_matches_gcov;
          Alcotest.test_case "filtering/enable" `Quick
            test_ipt_filtering_and_enable;
          Alcotest.test_case "overflow" `Quick test_ipt_overflow_drops_oldest;
          Alcotest.test_case "clear" `Quick test_ipt_clear;
          Alcotest.test_case "block points" `Quick
            test_block_points_matches_hit ] );
      ( "properties",
        qcheck [ prop_span_subset_of_covered; prop_diff_symmetric_total ] );
      ( "oracle",
        qcheck
          [ prop_oracle_interleavings; prop_oracle_merge_commutes;
            prop_lines_of_sorted ] ) ]
