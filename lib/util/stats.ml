let mean xs =
  let n = Array.length xs in
  if n = 0 then nan else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.0
  else begin
    let m = mean xs in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
    acc /. float_of_int (n - 1)
  end

let percentile xs p =
  let n = Array.length xs in
  assert (n > 0);
  assert (p >= 0.0 && p <= 100.0);
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  if n = 1 then sorted.(0)
  else begin
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = int_of_float (ceil rank) in
    if lo = hi then sorted.(lo)
    else begin
      let frac = rank -. float_of_int lo in
      (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
    end
  end

let median xs = percentile xs 50.0

type quantiles = {
  q_n : int;
  q_p50 : float;
  q_p95 : float;
  q_p99 : float;
  q_max : float;
}

let quantiles xs =
  if Array.length xs = 0 then None
  else
    Some
      { q_n = Array.length xs;
        q_p50 = percentile xs 50.0;
        q_p95 = percentile xs 95.0;
        q_p99 = percentile xs 99.0;
        q_max = percentile xs 100.0 }

type boxplot = {
  whisker_low : float;
  q1 : float;
  med : float;
  q3 : float;
  whisker_high : float;
  outliers : float list;
}

let boxplot xs =
  let q1 = percentile xs 25.0 in
  let q3 = percentile xs 75.0 in
  let med = percentile xs 50.0 in
  let iqr = q3 -. q1 in
  let lo_fence = q1 -. (1.5 *. iqr) in
  let hi_fence = q3 +. (1.5 *. iqr) in
  let inside = Array.to_list xs |> List.filter (fun x -> x >= lo_fence && x <= hi_fence) in
  let whisker_low = List.fold_left min q1 inside in
  let whisker_high = List.fold_left max q3 inside in
  let outliers =
    Array.to_list xs |> List.filter (fun x -> x < lo_fence || x > hi_fence)
  in
  { whisker_low; q1; med; q3; whisker_high; outliers }

(* Exact binomial two-sided sign test.  With n <= ~60 paired runs the
   exact tail sum is cheap and avoids the normal approximation. *)
let sign_test_p a b =
  assert (Array.length a = Array.length b);
  let plus = ref 0 and minus = ref 0 in
  Array.iteri
    (fun i x ->
      if x > b.(i) then incr plus else if x < b.(i) then incr minus)
    a;
  let n = !plus + !minus in
  if n = 0 then 1.0
  else begin
    let k = min !plus !minus in
    (* P(X <= k) for X ~ Binomial(n, 1/2), times 2, capped at 1. *)
    let log_choose n k =
      let rec loop i acc =
        if i > k then acc
        else
          loop (i + 1)
            (acc +. log (float_of_int (n - k + i)) -. log (float_of_int i))
      in
      loop 1 0.0
    in
    let tail = ref 0.0 in
    for i = 0 to k do
      tail := !tail +. exp (log_choose n i -. (float_of_int n *. log 2.0))
    done;
    Float.min 1.0 (2.0 *. !tail)
  end

let pct_change base v = (v -. base) /. base *. 100.0
