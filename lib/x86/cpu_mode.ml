type t = Mode1 | Mode2 | Mode3 | Mode4 | Mode5 | Mode6 | Mode7

(* Classification mirrors Fig. 8: test the refinements from the most
   specific down to real mode. *)
let of_cr0 cr0 =
  let f flag = Cr0.test cr0 flag in
  if not (f Cr0.PE) then Mode1
  else if not (f Cr0.PG) then Mode2
  else if not (f Cr0.AM) then Mode3
  else if f Cr0.TS && f Cr0.CD then Mode7
  else if f Cr0.TS then Mode5
  else if not (f Cr0.CD) then Mode6
  else Mode4

let to_int = function
  | Mode1 -> 1 | Mode2 -> 2 | Mode3 -> 3 | Mode4 -> 4
  | Mode5 -> 5 | Mode6 -> 6 | Mode7 -> 7

let of_int = function
  | 1 -> Some Mode1 | 2 -> Some Mode2 | 3 -> Some Mode3 | 4 -> Some Mode4
  | 5 -> Some Mode5 | 6 -> Some Mode6 | 7 -> Some Mode7 | _ -> None

let name m = Printf.sprintf "Mode%d" (to_int m)

let description = function
  | Mode1 -> "real mode"
  | Mode2 -> "protected mode"
  | Mode3 -> "protected mode, paging enabled"
  | Mode4 -> "paging + alignment checking, caches off"
  | Mode5 -> "Mode4 + task-switch flag testing"
  | Mode6 -> "Mode4 + caching enabled"
  | Mode7 -> "Mode5 + caching disabled"

let pp fmt m = Format.pp_print_string fmt (name m)

