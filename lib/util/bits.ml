let bit n =
  assert (n >= 0 && n < 64);
  Int64.shift_left 1L n

(* Shifts [v] rather than building [bit n], which boxes a fresh Int64
   wherever [bit] is not inlined: a test allocates nothing. *)
let test v n =
  assert (n >= 0 && n < 64);
  Int64.logand (Int64.shift_right_logical v n) 1L <> 0L

let set v n = Int64.logor v (bit n)

let clear v n = Int64.logand v (Int64.lognot (bit n))

let assign v n b = if b then set v n else clear v n

let flip v n = Int64.logxor v (bit n)

let mask w =
  assert (w >= 0 && w <= 64);
  if w = 64 then -1L else Int64.sub (Int64.shift_left 1L w) 1L

let extract v ~lo ~width =
  assert (lo >= 0 && width > 0 && lo + width <= 64);
  Int64.logand (Int64.shift_right_logical v lo) (mask width)

let deposit v ~lo ~width f =
  assert (lo >= 0 && width > 0 && lo + width <= 64);
  let m = Int64.shift_left (mask width) lo in
  let f = Int64.shift_left (Int64.logand f (mask width)) lo in
  Int64.logor (Int64.logand v (Int64.lognot m)) f

let popcount v =
  let rec loop v acc =
    if v = 0L then acc
    else loop (Int64.logand v (Int64.sub v 1L)) (acc + 1)
  in
  loop v 0

let truncate_width bytes v =
  (* In-range values come back as-is: returning the argument reuses
     its box, where [logand] would allocate a fresh one per call. *)
  match bytes with
  | 2 -> if v >= 0L && v <= 0xFFFFL then v else Int64.logand v 0xFFFFL
  | 4 -> if v >= 0L && v <= 0xFFFFFFFFL then v else Int64.logand v 0xFFFFFFFFL
  | 8 -> v
  | _ -> invalid_arg "Bits.truncate_width"
