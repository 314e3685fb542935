(* Host-time measurement helpers: the monotonic clock, order
   statistics and the process's peak resident set. *)

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now_s () in
  let v = f () in
  (v, now_s () -. t0)

(* [time], adding the elapsed seconds to [acc]: a repetition's wall
   time is the sum of its timed calls, so digesting their outputs in
   between costs the measurement nothing and keeps nothing alive. *)
let add acc f =
  let v, s = time f in
  acc := !acc +. s;
  v

let median xs = Iris_util.Stats.median xs

(* First and third quartiles by the exclusive method, the default of
   Python's [statistics.quantiles(xs, n=4)], so spreads read the same
   here as in any script that recomputes them from the saved runs. *)
let quartiles xs =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then (nan, nan)
  else if n = 1 then (a.(0), a.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 3)

(* VmHWM: the high-water mark of the resident set, in MiB. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %d kB"
              (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
      in
      let v = scan () in
      close_in ic;
      v
