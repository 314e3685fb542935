(* Mark-based nested checkpoint manager over Domain's COW machinery.

   Marks form a stack: [push] opens a new epoch, [rewind] unwinds to
   any live mark (dropping marks opened after it, keeping the target
   live so it can be rewound to again), [pop] closes the innermost
   mark without restoring.  This is what lets Guided rewind to S_R
   between cases — or to a mid-case mark — without replaying the
   recorded prefix. *)

type mark = {
  m_id : int;
  m_cp : Domain.checkpoint;
}

type t = {
  dom : Domain.t;
  mutable stack : mark list;  (* innermost first *)
  mutable next_id : int;
}

let start dom = { dom; stack = []; next_id = 0 }

let depth t = List.length t.stack

let push t =
  let m = { m_id = t.next_id; m_cp = Domain.checkpoint t.dom } in
  t.next_id <- t.next_id + 1;
  t.stack <- m :: t.stack;
  m

let mem t m = List.exists (fun m' -> m'.m_id = m.m_id) t.stack

(* Unwind to [m]: rewind (and discard) every mark opened after it,
   innermost first, then rewind [m] itself — which stays on the
   stack.  The inner rewinds are what pops the journal epochs the
   inner marks opened; their per-epoch stats fold into the final
   rewind's counters via the domain's accumulators, but the returned
   [revert_stats] covers the whole unwind. *)
let rewind t m =
  if not (mem t m) then
    invalid_arg "Checkpoint.rewind: mark not live";
  let rec unwind acc = function
    | [] -> assert false
    | m' :: rest ->
        let rs = Domain.rewind t.dom m'.m_cp in
        let acc =
          { Domain.rs_pages = acc.Domain.rs_pages + rs.Domain.rs_pages;
            rs_ept_entries = acc.rs_ept_entries + rs.Domain.rs_ept_entries;
            rs_vmcs_fields = acc.rs_vmcs_fields + rs.Domain.rs_vmcs_fields }
        in
        if m'.m_id = m.m_id then begin
          t.stack <- m' :: rest;
          acc
        end
        else begin
          (* inner mark: its epoch has been rewound; release folds the
             now-empty journals away so the stack depths line up *)
          Domain.release t.dom m'.m_cp;
          unwind acc rest
        end
  in
  unwind
    { Domain.rs_pages = 0; rs_ept_entries = 0; rs_vmcs_fields = 0 }
    t.stack

let pop t m =
  match t.stack with
  | m' :: rest when m'.m_id = m.m_id ->
      Domain.release t.dom m'.m_cp;
      t.stack <- rest
  | _ -> invalid_arg "Checkpoint.pop: not the innermost mark"
