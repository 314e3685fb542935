(* Mark-based nested checkpoint manager over Domain's COW machinery.

   Marks form a stack: [push] opens a new epoch, [rewind] unwinds to
   any live mark (dropping marks opened after it, keeping the target
   live so it can be rewound to again), [pop] closes the innermost
   mark without restoring.  This is what lets Guided rewind to S_R
   between cases — or to a mid-case mark — without replaying the
   recorded prefix. *)

(* Every push allocates a fresh domain checkpoint, so a mark is
   identified physically. *)
type mark = Domain.checkpoint

type t = {
  dom : Domain.t;
  mutable stack : mark list;  (* innermost first *)
  mutable depth : int;
}

let start dom = { dom; stack = []; depth = 0 }

let depth t = t.depth

let push t =
  let m = Domain.checkpoint t.dom in
  t.stack <- m :: t.stack;
  t.depth <- t.depth + 1;
  m

(* One domain rewind on the target: every journal undoes the epochs
   the inner marks opened and drops them, so the inner marks only
   have to leave the stack. *)
let rewind t m =
  let rec find depth = function
    | [] -> invalid_arg "Checkpoint.rewind: mark not live"
    | m' :: rest when m' != m -> find (depth - 1) rest
    | stack ->
        let rs = Domain.rewind t.dom m in
        t.stack <- stack;
        t.depth <- depth;
        rs
  in
  find t.depth t.stack

let pop t m =
  match t.stack with
  | m' :: rest when m' == m ->
      Domain.release t.dom m;
      t.stack <- rest;
      t.depth <- t.depth - 1
  | _ -> invalid_arg "Checkpoint.pop: not the innermost mark"
