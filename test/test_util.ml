(* Unit and property tests for Iris_util: PRNG, bit manipulation,
   binary codecs, statistics, text plotting, the undo journal. *)

module Prng = Iris_util.Prng
module Bits = Iris_util.Bits
module Codec = Iris_util.Codec
module Stats = Iris_util.Stats
module Journal = Iris_util.Journal

let check = Alcotest.check

(* --- Prng --- *)

let test_prng_deterministic () =
  let a = Prng.of_int 42 and b = Prng.of_int 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.next64 a) (Prng.next64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.of_int 42 and b = Prng.of_int 43 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Prng.next64 a <> Prng.next64 b then differs := true
  done;
  check Alcotest.bool "different seeds differ" true !differs

let test_prng_copy_independent () =
  let a = Prng.of_int 7 in
  ignore (Prng.next64 a);
  let b = Prng.copy a in
  check Alcotest.int64 "copy continues identically" (Prng.next64 a)
    (Prng.next64 b);
  ignore (Prng.next64 a);
  (* advancing one does not advance the other *)
  let va = Prng.next64 a and vb = Prng.next64 b in
  check Alcotest.bool "streams diverge after unequal draws" true (va <> vb)

let test_prng_split_independent () =
  let a = Prng.of_int 7 in
  let b = Prng.split a in
  let xs = List.init 20 (fun _ -> Prng.next64 a) in
  let ys = List.init 20 (fun _ -> Prng.next64 b) in
  check Alcotest.bool "split streams differ" true (xs <> ys)

let test_prng_int_bounds () =
  let p = Prng.of_int 1 in
  for _ = 1 to 1000 do
    let v = Prng.int p 17 in
    check Alcotest.bool "int in bounds" true (v >= 0 && v < 17)
  done

let test_prng_int_in_bounds () =
  let p = Prng.of_int 2 in
  for _ = 1 to 1000 do
    let v = Prng.int_in p (-5) 5 in
    check Alcotest.bool "int_in bounds" true (v >= -5 && v <= 5)
  done

let test_prng_chance_extremes () =
  let p = Prng.of_int 3 in
  check Alcotest.bool "p=0 never" false (Prng.chance p 0.0);
  check Alcotest.bool "p=1 always" true (Prng.chance p 1.0)

let test_prng_choose_weighted () =
  let p = Prng.of_int 4 in
  (* A zero-weight element must never be drawn. *)
  for _ = 1 to 200 do
    let v = Prng.choose_weighted p [| ("a", 1.0); ("b", 0.0) |] in
    check Alcotest.string "never draws zero weight" "a" v
  done

let test_prng_bits_width () =
  let p = Prng.of_int 5 in
  for _ = 1 to 100 do
    let v = Prng.bits p 12 in
    check Alcotest.bool "bits fits width" true (v >= 0L && v < 4096L)
  done;
  check Alcotest.int64 "bits 0 is 0" 0L (Prng.bits p 0)

let test_prng_shuffle_permutation () =
  let p = Prng.of_int 6 in
  let arr = Array.init 20 (fun i -> i) in
  Prng.shuffle p arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "shuffle is a permutation"
    (Array.init 20 (fun i -> i)) sorted

(* --- Bits --- *)

let test_bits_basic () =
  check Alcotest.int64 "bit 0" 1L (Bits.bit 0);
  check Alcotest.int64 "bit 63" Int64.min_int (Bits.bit 63);
  check Alcotest.bool "test set" true (Bits.test 0x10L 4);
  check Alcotest.bool "test clear" false (Bits.test 0x10L 3);
  check Alcotest.int64 "set" 0x11L (Bits.set 0x10L 0);
  check Alcotest.int64 "clear" 0x10L (Bits.clear 0x11L 0);
  check Alcotest.int64 "flip on" 0x11L (Bits.flip 0x10L 0);
  check Alcotest.int64 "flip off" 0x10L (Bits.flip 0x11L 0)

let test_bits_assign () =
  check Alcotest.int64 "assign true" 0x8L (Bits.assign 0L 3 true);
  check Alcotest.int64 "assign false" 0L (Bits.assign 0x8L 3 false)

let test_bits_mask () =
  check Alcotest.int64 "mask 0" 0L (Bits.mask 0);
  check Alcotest.int64 "mask 16" 0xFFFFL (Bits.mask 16);
  check Alcotest.int64 "mask 64" (-1L) (Bits.mask 64)

let test_bits_extract_deposit () =
  let v = 0xABCD1234L in
  check Alcotest.int64 "extract" 0xCDL (Bits.extract v ~lo:16 ~width:8);
  let v' = Bits.deposit v ~lo:16 ~width:8 0xFFL in
  check Alcotest.int64 "deposit" 0xABFF1234L v';
  check Alcotest.int64 "deposit truncates" 0xABCD1234L
    (Bits.deposit v ~lo:16 ~width:8 0xCD00CDL)

let test_bits_popcount () =
  check Alcotest.int "popcount 0" 0 (Bits.popcount 0L);
  check Alcotest.int "popcount -1" 64 (Bits.popcount (-1L));
  check Alcotest.int "popcount 0xF0" 4 (Bits.popcount 0xF0L)

let test_bits_truncate_width () =
  check Alcotest.int64 "w2" 0x1234L (Bits.truncate_width 2 0xAB1234L);
  check Alcotest.int64 "w4" 0xAB1234L (Bits.truncate_width 4 0xAB1234L);
  check Alcotest.int64 "w8" (-1L) (Bits.truncate_width 8 (-1L))

(* --- Codec --- *)

let test_codec_roundtrip_scalars () =
  let w = Codec.writer () in
  Codec.w_u8 w 0xAB;
  Codec.w_u16 w 0x1234;
  Codec.w_u32 w 0xDEADBEEF;
  Codec.w_i64 w (-42L);
  Codec.w_string w "hello";
  let r = Codec.reader (Codec.contents w) in
  check Alcotest.int "u8" 0xAB (Codec.r_u8 r);
  check Alcotest.int "u16" 0x1234 (Codec.r_u16 r);
  check Alcotest.int "u32" 0xDEADBEEF (Codec.r_u32 r);
  check Alcotest.int64 "i64" (-42L) (Codec.r_i64 r);
  check Alcotest.string "string" "hello" (Codec.r_string r);
  check Alcotest.bool "at end" true (Codec.at_end r)

let test_codec_truncated () =
  let r = Codec.reader (Bytes.of_string "ab") in
  check Alcotest.int "first ok" (Char.code 'a') (Codec.r_u8 r);
  Alcotest.check_raises "underrun raises" Codec.Truncated (fun () ->
      ignore (Codec.r_u32 r))

let test_codec_little_endian () =
  let w = Codec.writer () in
  Codec.w_u16 w 0x0102;
  let b = Codec.contents w in
  check Alcotest.int "low byte first" 0x02 (Char.code (Bytes.get b 0));
  check Alcotest.int "high byte second" 0x01 (Char.code (Bytes.get b 1))

let test_codec_reader_sub () =
  let buf = Bytes.of_string "abcdef" in
  let r = Codec.reader_sub buf ~pos:2 ~len:2 in
  check Alcotest.int "sub start" (Char.code 'c') (Codec.r_u8 r);
  check Alcotest.int "remaining" 1 (Codec.remaining r);
  Alcotest.check_raises "sub bound" Codec.Truncated (fun () ->
      ignore (Codec.r_u16 r))

(* --- Stats --- *)

let test_stats_mean_variance () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  check (Alcotest.float 1e-9) "mean" 5.0 (Stats.mean xs);
  check (Alcotest.float 1e-9) "variance" (32.0 /. 7.0) (Stats.variance xs)

let test_stats_median_percentile () =
  let xs = [| 1.0; 3.0; 2.0 |] in
  check (Alcotest.float 1e-9) "median" 2.0 (Stats.median xs);
  check (Alcotest.float 1e-9) "p0 is min" 1.0 (Stats.percentile xs 0.0);
  check (Alcotest.float 1e-9) "p100 is max" 3.0 (Stats.percentile xs 100.0);
  check (Alcotest.float 1e-9) "p50 interpolates" 2.0
    (Stats.percentile [| 1.0; 2.0; 3.0; 4.0 |] 50.0 -. 0.5)

let test_stats_boxplot () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0; 100.0 |] in
  let b = Stats.boxplot xs in
  check Alcotest.bool "outlier detected" true (List.mem 100.0 b.Stats.outliers);
  check Alcotest.bool "whisker below fence" true (b.Stats.whisker_high < 100.0)

let test_stats_sign_test () =
  (* Identical samples: no evidence. *)
  let a = [| 1.0; 2.0; 3.0 |] in
  check (Alcotest.float 1e-9) "ties give p=1" 1.0 (Stats.sign_test_p a a);
  (* 12 consistent wins: strong evidence. *)
  let big = Array.init 12 (fun i -> float_of_int i +. 10.0) in
  let small = Array.init 12 (fun i -> float_of_int i) in
  check Alcotest.bool "consistent difference significant" true
    (Stats.sign_test_p big small < 0.05)

let test_stats_quantiles () =
  check Alcotest.bool "empty gives None" true (Stats.quantiles [||] = None);
  (* 1..100: every percentile is directly readable. *)
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  match Stats.quantiles xs with
  | None -> Alcotest.fail "non-empty sample"
  | Some q ->
      check Alcotest.int "n" 100 q.Stats.q_n;
      check (Alcotest.float 1e-9) "p50" (Stats.percentile xs 50.0)
        q.Stats.q_p50;
      check (Alcotest.float 1e-9) "p95" (Stats.percentile xs 95.0)
        q.Stats.q_p95;
      check (Alcotest.float 1e-9) "p99" (Stats.percentile xs 99.0)
        q.Stats.q_p99;
      check (Alcotest.float 1e-9) "max" 100.0 q.Stats.q_max;
      check Alcotest.bool "ordered" true
        (q.Stats.q_p50 <= q.Stats.q_p95 && q.Stats.q_p95 <= q.Stats.q_p99
        && q.Stats.q_p99 <= q.Stats.q_max)

let test_stats_pct_change () =
  check (Alcotest.float 1e-9) "increase" 50.0 (Stats.pct_change 2.0 3.0);
  check (Alcotest.float 1e-9) "decrease" (-50.0) (Stats.pct_change 2.0 1.0)

(* --- Textplot (rendering smoke: output is non-empty and contains
   labels) --- *)

let test_textplot_renders () =
  let bar = Iris_util.Textplot.bar_chart ~title:"t" [ ("alpha", 3.0) ] in
  check Alcotest.bool "bar has label" true
    (String.length bar > 0
    && String.exists (fun c -> c = '#') bar);
  let tbl =
    Iris_util.Textplot.table ~title:"T" ~header:[ "a"; "b" ]
      [ [ "1"; "2" ] ]
  in
  check Alcotest.bool "table renders rows" true (String.length tbl > 0);
  let s =
    Iris_util.Textplot.series ~title:"s" ~x_label:"x" ~y_label:"y"
      [ ("curve", [ (0.0, 0.0); (1.0, 1.0) ]) ]
  in
  check Alcotest.bool "series renders" true (String.length s > 0)

(* --- properties --- *)

let prop_prng_int_bounds =
  QCheck.Test.make ~name:"prng int always within bound" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let p = Prng.of_int seed in
      let v = Prng.int p bound in
      v >= 0 && v < bound)

let prop_bits_flip_involution =
  QCheck.Test.make ~name:"flip twice is identity" ~count:500
    QCheck.(pair int64 (int_range 0 63))
    (fun (v, b) -> Bits.flip (Bits.flip v b) b = v)

let prop_bits_extract_deposit =
  QCheck.Test.make ~name:"extract after deposit returns field" ~count:500
    QCheck.(triple int64 (int_range 0 56) int64)
    (fun (v, lo, f) ->
      let width = min 8 (64 - lo) in
      let v' = Bits.deposit v ~lo ~width f in
      Bits.extract v' ~lo ~width = Int64.logand f (Bits.mask width))

let prop_codec_i64_roundtrip =
  QCheck.Test.make ~name:"i64 write/read roundtrip" ~count:500 QCheck.int64
    (fun v ->
      let w = Codec.writer () in
      Codec.w_i64 w v;
      Codec.r_i64 (Codec.reader (Codec.contents w)) = v)

let prop_stats_percentile_bounds =
  QCheck.Test.make ~name:"percentile within min..max" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 50) (float_bound_exclusive 1000.0))
        (float_bound_inclusive 100.0))
    (fun (xs, p) ->
      let arr = Array.of_list xs in
      let v = Stats.percentile arr p in
      let mn = Array.fold_left Float.min infinity arr in
      let mx = Array.fold_left Float.max neg_infinity arr in
      v >= mn -. 1e-9 && v <= mx +. 1e-9)

(* --- Journal: against a naive model ---

   The model is a stack of full copies of the store, one per live
   handle, with the value saved at its push.  Random writes, pushes,
   rewinds to any live handle, commits and invalidations must keep
   the store equal to the copy a rewind lands on; every handle the
   model has dropped must be rejected by both [rewind] and [commit],
   leaving the store as it was. *)

let journal_matches_model ~name j ~write ~contents prng =
  let stack = ref [] (* (handle, contents at push, tag), innermost first *)
  and stale = ref []
  and ok = ref true in
  let expect b = if not b then ok := false in
  let raises msg f =
    match f () with
    | _ -> false
    | exception Invalid_argument m -> m = msg
  in
  let handles l = List.map (fun (h, _, _) -> h) l in
  for step = 1 to 200 do
    (match Prng.int prng 12 with
    | 0 | 1 when List.length !stack < 5 ->
        stack := (Journal.push j step, contents (), step) :: !stack
    | 2 | 3 when !stack <> [] ->
        let i = Prng.int prng (List.length !stack) in
        let h, at_push, tag = List.nth !stack i in
        ignore (Journal.rewind j h : int);
        stale := handles (List.filteri (fun k _ -> k < i) !stack) @ !stale;
        stack := List.filteri (fun k _ -> k >= i) !stack;
        expect (contents () = at_push);
        expect (Journal.saved j = tag && Journal.dirty j = 0)
    | 4 when !stack <> [] ->
        (match !stack with
        | _ :: (outer, _, _) :: _ ->
            expect
              (raises (name ^ ".commit: not the innermost checkpoint")
                 (fun () -> Journal.commit j outer))
        | _ -> ());
        let h, _, _ = List.hd !stack in
        Journal.commit j h;
        stale := h :: !stale;
        stack := List.tl !stack
    | 5 ->
        Journal.invalidate j;
        stale := handles !stack @ !stale;
        stack := []
    | 6 when !stale <> [] ->
        let h = List.nth !stale (Prng.int prng (List.length !stale)) in
        let before = contents () in
        expect
          (raises (name ^ ".rewind: stale checkpoint") (fun () ->
               Journal.rewind j h));
        expect
          (raises (name ^ ".commit: not the innermost checkpoint") (fun () ->
               Journal.commit j h));
        expect (contents () = before)
    | _ -> write prng);
    expect (Journal.depth j = List.length !stack)
  done;
  !ok

let prop_journal_dense =
  QCheck.Test.make ~name:"dense ≡ stack of copies" ~count:50
    QCheck.small_int (fun salt ->
      let values = Array.make 8 0L in
      let j = Journal.dense ~name:"Dense" values in
      let write prng =
        let i = Prng.int prng 8 in
        Journal.note j values i;
        values.(i) <- Prng.int64_any prng
      in
      journal_matches_model ~name:"Dense" j ~write
        ~contents:(fun () -> Array.to_list values)
        (Prng.of_int (0x10 + salt)))

let prop_journal_sparse =
  QCheck.Test.make ~name:"sparse ≡ stack of copies" ~count:50
    QCheck.small_int (fun salt ->
      let store = Hashtbl.create 16 in
      let restore k = function
        | Some v -> Hashtbl.replace store k v
        | None -> Hashtbl.remove store k
      in
      let j = Journal.sparse ~name:"Sparse" ~restore in
      let write prng =
        let k = Prng.int prng 16 in
        if Journal.first_touch j k then
          Journal.save j k (Hashtbl.find_opt store k);
        (* Removals too, so a pre-image can be "absent". *)
        if Prng.chance prng 0.2 then Hashtbl.remove store k
        else Hashtbl.replace store k (Prng.int prng 100)
      in
      journal_matches_model ~name:"Sparse" j ~write
        ~contents:(fun () ->
          List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) store []))
        (Prng.of_int (0x20 + salt)))

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "iris_util"
    [ ( "prng",
        [ Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick
            test_prng_seed_sensitivity;
          Alcotest.test_case "copy independent" `Quick
            test_prng_copy_independent;
          Alcotest.test_case "split independent" `Quick
            test_prng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "int_in bounds" `Quick test_prng_int_in_bounds;
          Alcotest.test_case "chance extremes" `Quick
            test_prng_chance_extremes;
          Alcotest.test_case "choose_weighted" `Quick
            test_prng_choose_weighted;
          Alcotest.test_case "bits width" `Quick test_prng_bits_width;
          Alcotest.test_case "shuffle permutation" `Quick
            test_prng_shuffle_permutation ] );
      ( "bits",
        [ Alcotest.test_case "basic ops" `Quick test_bits_basic;
          Alcotest.test_case "assign" `Quick test_bits_assign;
          Alcotest.test_case "mask" `Quick test_bits_mask;
          Alcotest.test_case "extract/deposit" `Quick
            test_bits_extract_deposit;
          Alcotest.test_case "popcount" `Quick test_bits_popcount;
          Alcotest.test_case "truncate width" `Quick
            test_bits_truncate_width ] );
      ( "codec",
        [ Alcotest.test_case "scalar roundtrip" `Quick
            test_codec_roundtrip_scalars;
          Alcotest.test_case "truncated raises" `Quick test_codec_truncated;
          Alcotest.test_case "little endian" `Quick test_codec_little_endian;
          Alcotest.test_case "reader_sub" `Quick test_codec_reader_sub ] );
      ( "stats",
        [ Alcotest.test_case "mean/variance" `Quick test_stats_mean_variance;
          Alcotest.test_case "median/percentile" `Quick
            test_stats_median_percentile;
          Alcotest.test_case "boxplot outliers" `Quick test_stats_boxplot;
          Alcotest.test_case "sign test" `Quick test_stats_sign_test;
          Alcotest.test_case "quantiles" `Quick test_stats_quantiles;
          Alcotest.test_case "pct change" `Quick test_stats_pct_change ] );
      ( "textplot",
        [ Alcotest.test_case "renders" `Quick test_textplot_renders ] );
      ("journal", qcheck [ prop_journal_dense; prop_journal_sparse ]);
      ( "properties",
        qcheck
          [ prop_prng_int_bounds; prop_bits_flip_involution;
            prop_bits_extract_deposit; prop_codec_i64_roundtrip;
            prop_stats_percentile_bounds ] ) ]
