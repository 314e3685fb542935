(* Counters and histograms hold native [int]s internally: a mutable
   [int64] field is a boxed pointer in OCaml, so every increment on
   the old representation allocated a fresh box — pure GC tax on the
   hottest counters (per-exit vecs, cycle histograms).  63-bit ints
   cannot overflow for anything these instruments count.  The external
   API stays [int64]; conversions happen only on the cold query/export
   path. *)
type counter = { mutable c : int }

type gauge = { mutable g : int64 }

let nbuckets = 64

type histogram = {
  buckets : int array; (* log2 buckets *)
  mutable count : int;
  mutable sum : int;
  mutable min : int;
  mutable max : int;
}

type vec = counter array

type hist_vec = histogram array

type metric =
  | M_counter of counter
  | M_gauge of gauge
  | M_histogram of histogram
  | M_vec of vec * string array
  | M_hist_vec of hist_vec * string array

type t = (string, metric) Hashtbl.t

let create () : t = Hashtbl.create 32

(* --- registration --- *)

let register t name build extract =
  match Hashtbl.find_opt t name with
  | Some m -> (
      match extract m with
      | Some x -> x
      | None -> invalid_arg ("Registry: " ^ name ^ " registered with another type"))
  | None ->
      let m, x = build () in
      Hashtbl.replace t name m;
      x

let counter t name =
  register t name
    (fun () ->
      let c = { c = 0 } in
      (M_counter c, c))
    (function M_counter c -> Some c | _ -> None)

let gauge t name =
  register t name
    (fun () ->
      let g = { g = 0L } in
      (M_gauge g, g))
    (function M_gauge g -> Some g | _ -> None)

let fresh_histogram () =
  { buckets = Array.make nbuckets 0;
    count = 0;
    sum = 0;
    min = max_int;
    max = min_int }

let histogram t name =
  register t name
    (fun () ->
      let h = fresh_histogram () in
      (M_histogram h, h))
    (function M_histogram h -> Some h | _ -> None)

let counter_vec t name ~labels =
  register t name
    (fun () ->
      let v = Array.map (fun _ -> { c = 0 }) labels in
      (M_vec (v, labels), v))
    (function M_vec (v, _) -> Some v | _ -> None)

let histogram_vec t name ~labels =
  register t name
    (fun () ->
      let v = Array.map (fun _ -> fresh_histogram ()) labels in
      (M_hist_vec (v, labels), v))
    (function M_hist_vec (v, _) -> Some v | _ -> None)

(* --- updates --- *)

let incr c = c.c <- c.c + 1

let add c n = c.c <- c.c + n

let add64 c n = c.c <- c.c + Int64.to_int n

let counter_value c = Int64.of_int c.c

let set g v = g.g <- v

let gauge_value g = g.g

(* Index of the highest set bit, by binary search: O(1), no loop over
   64 positions on the hot path. *)
let log2_bucket x =
  if x < 2 then 0
  else begin
    let x = ref x and b = ref 0 in
    if !x lsr 32 <> 0 then begin b := !b + 32; x := !x lsr 32 end;
    if !x lsr 16 <> 0 then begin b := !b + 16; x := !x lsr 16 end;
    if !x lsr 8 <> 0 then begin b := !b + 8; x := !x lsr 8 end;
    if !x lsr 4 <> 0 then begin b := !b + 4; x := !x lsr 4 end;
    if !x lsr 2 <> 0 then begin b := !b + 2; x := !x lsr 2 end;
    if !x lsr 1 <> 0 then b := !b + 1;
    !b
  end

let observe h x =
  let x = if Int64.compare x 0L < 0 then 0 else Int64.to_int x in
  let b = log2_bucket x in
  h.buckets.(b) <- h.buckets.(b) + 1;
  h.count <- h.count + 1;
  h.sum <- h.sum + x;
  if x < h.min then h.min <- x;
  if x > h.max then h.max <- x

let vec_incr v code = if code >= 0 && code < Array.length v then incr v.(code)

let vec_add v code n = if code >= 0 && code < Array.length v then add v.(code) n

let vec_add64 v code n =
  if code >= 0 && code < Array.length v then add64 v.(code) n

let hist_observe v code x =
  if code >= 0 && code < Array.length v then observe v.(code) x

(* --- histogram queries --- *)

let hist_count h = Int64.of_int h.count

let hist_sum h = Int64.of_int h.sum

let bucket_bounds i =
  if i = 0 then (0.0, 2.0)
  else (Int64.to_float (Int64.shift_left 1L i),
        Int64.to_float (Int64.shift_left 1L (min 62 (i + 1))))

(* --- merge --- *)

let merge_counter (dst : counter) (src : counter) = dst.c <- dst.c + src.c

(* Gauges record "last set value"; across workers the only
   order-independent combination is the max, which is also what the
   fuzzer's gauges (coverage %, corpus size) mean globally. *)
let merge_gauge (dst : gauge) (src : gauge) =
  if Int64.compare src.g dst.g > 0 then dst.g <- src.g

let merge_histogram (dst : histogram) (src : histogram) =
  for i = 0 to nbuckets - 1 do
    dst.buckets.(i) <- dst.buckets.(i) + src.buckets.(i)
  done;
  dst.count <- dst.count + src.count;
  dst.sum <- dst.sum + src.sum;
  if src.min < dst.min then dst.min <- src.min;
  if src.max > dst.max then dst.max <- src.max

(* Commutative, associative merge used at orchestrator join time:
   counters and histograms add, gauges take the max.  Merging N
   per-worker registries in any order therefore yields the same
   snapshot, which is what makes the merged report partition-
   independent. *)
let merge_into ~into src =
  Hashtbl.iter
    (fun name m ->
      match m with
      | M_counter s -> merge_counter (counter into name) s
      | M_gauge s when not (Hashtbl.mem into name) ->
          (* from the input's value, not 0: a merged gauge is the max
             of its inputs, negative ones too *)
          Hashtbl.replace into name (M_gauge { g = s.g })
      | M_gauge s -> merge_gauge (gauge into name) s
      | M_histogram s -> merge_histogram (histogram into name) s
      | M_vec (s, labels) ->
          let d = counter_vec into name ~labels in
          let n = min (Array.length d) (Array.length s) in
          for i = 0 to n - 1 do
            merge_counter d.(i) s.(i)
          done
      | M_hist_vec (s, labels) ->
          let d = histogram_vec into name ~labels in
          let n = min (Array.length d) (Array.length s) in
          for i = 0 to n - 1 do
            merge_histogram d.(i) s.(i)
          done)
    src

(* --- snapshots --- *)

type sample =
  | S_counter of int64
  | S_gauge of int64
  | S_histogram of {
      count : int64;
      sum : int64;
      min : int64;
      max : int64;
      buckets : (int * int64) list;
    }

type snapshot = (string * sample) list

let hist_sample h =
  let buckets = ref [] in
  for i = nbuckets - 1 downto 0 do
    if h.buckets.(i) > 0 then
      buckets := (i, Int64.of_int h.buckets.(i)) :: !buckets
  done;
  S_histogram
    { count = Int64.of_int h.count;
      sum = Int64.of_int h.sum;
      min = (if h.count = 0 then 0L else Int64.of_int h.min);
      max = (if h.count = 0 then 0L else Int64.of_int h.max);
      buckets = !buckets }

let snapshot t =
  let entries = ref [] in
  Hashtbl.iter
    (fun name m ->
      match m with
      | M_counter c -> entries := (name, S_counter (Int64.of_int c.c)) :: !entries
      | M_gauge g -> entries := (name, S_gauge g.g) :: !entries
      | M_histogram h -> entries := (name, hist_sample h) :: !entries
      | M_vec (v, labels) ->
          Array.iteri
            (fun i c ->
              entries :=
                ( Printf.sprintf "%s{%s}" name labels.(i),
                  S_counter (Int64.of_int c.c) )
                :: !entries)
            v
      | M_hist_vec (v, labels) ->
          Array.iteri
            (fun i h ->
              entries :=
                (Printf.sprintf "%s{%s}" name labels.(i), hist_sample h)
                :: !entries)
            v)
    t;
  List.sort (fun (a, _) (b, _) -> compare a b) !entries

(* --- rendering --- *)

(* Quantile of a histogram sample: find the sparse bucket that holds
   the [q]-th observation and interpolate linearly inside its log2
   bounds; nan for an empty histogram or a non-histogram sample. *)
let sample_quantile s q =
  match s with
  | S_counter _ | S_gauge _ -> nan
  | S_histogram { count; _ } when count = 0L -> nan
  | S_histogram { count; buckets; min; max; _ } ->
      let target = q *. Int64.to_float count in
      let rec find below = function
        | [] -> (nbuckets - 1, below)
        | (i, n) :: rest ->
            let acc = Int64.add below n in
            if Int64.to_float acc >= target then (i, below) else find acc rest
      in
      let bucket, below = find 0L buckets in
      let inside =
        match List.assoc_opt bucket buckets with
        | Some n -> Int64.to_float n
        | None -> 1.0
      in
      let frac =
        if inside <= 0.0 then 0.0
        else (target -. Int64.to_float below) /. inside
      in
      let lo, hi = bucket_bounds bucket in
      (* Clamp the interpolated value to the observed extremes so p0/p100
         report real samples rather than bucket edges. *)
      let v = lo +. (frac *. (hi -. lo)) in
      Float.max (Int64.to_float min) (Float.min (Int64.to_float max) v)

let hist_quantile h q =
  sample_quantile (hist_sample h) (Float.min 1.0 (Float.max 0.0 q))

let render snap =
  let buf = Buffer.create 512 in
  List.iter
    (fun (name, s) ->
      match s with
      | S_counter v -> Buffer.add_string buf (Printf.sprintf "%-44s %Ld\n" name v)
      | S_gauge v ->
          Buffer.add_string buf (Printf.sprintf "%-44s %Ld (gauge)\n" name v)
      | S_histogram { count; sum; max; _ } ->
          if count = 0L then
            Buffer.add_string buf (Printf.sprintf "%-44s (empty histogram)\n" name)
          else begin
            let mean = Int64.to_float sum /. Int64.to_float count in
            let p q = sample_quantile s q in
            Buffer.add_string buf
              (Printf.sprintf
                 "%-44s n=%Ld mean=%.0f p50=%.0f p99=%.0f max=%Ld\n" name
                 count mean (p 0.5) (p 0.99) max)
          end)
    snap;
  Buffer.contents buf

let sample_json = function
  | S_counter v -> [ ("type", Json.String "counter"); ("value", Json.Int (Int64.to_int v)) ]
  | S_gauge v -> [ ("type", Json.String "gauge"); ("value", Json.Int (Int64.to_int v)) ]
  | S_histogram { count; sum; min; max; buckets } ->
      [ ("type", Json.String "histogram");
        ("count", Json.Int (Int64.to_int count));
        ("sum", Json.Int (Int64.to_int sum));
        ("min", Json.Int (Int64.to_int min));
        ("max", Json.Int (Int64.to_int max));
        ( "buckets",
          Json.List
            (List.map
               (fun (i, n) ->
                 Json.Obj
                   [ ("log2", Json.Int i); ("count", Json.Int (Int64.to_int n)) ])
               buckets) ) ]

let to_json snap =
  Json.Obj
    (List.map (fun (name, s) -> (name, Json.Obj (sample_json s))) snap)

let to_jsonl snap =
  let buf = Buffer.create 512 in
  List.iter
    (fun (name, s) ->
      Json.to_buffer buf (Json.Obj (("metric", Json.String name) :: sample_json s));
      Buffer.add_char buf '\n')
    snap;
  Buffer.contents buf
