module Journal = Iris_util.Journal

type perm = { r : bool; w : bool; x : bool }

let perm_none = { r = false; w = false; x = false }
let perm_ro = { r = true; w = false; x = false }
let perm_rw = { r = true; w = true; x = false }
let perm_rwx = { r = true; w = true; x = true }

type access = Read | Write | Exec

(* Large mappings (the RAM identity map) are kept as ranges; holes and
   individual page (re)mappings live in a small per-page override
   table.  This keeps snapshot/revert O(overrides) instead of
   O(guest pages) — the fuzzer reverts between every mutation. *)
type override = Mapped of perm | Hole

type range = int64 * int64 * perm

(* The copy-on-write journal saves the prior binding of every override
   an epoch touches ([None] = absent), and each epoch keeps the range
   list as it stood at push (ranges are immutable lists, so saving the
   head pointer is enough). *)
type t = {
  mutable ranges : range list;
      (** (first_pfn, last_pfn, perm), newest first *)
  overrides : (int64, override) Hashtbl.t;
  journal : ((int64, override option) Journal.sparse, range list) Journal.t;
}

let page_shift = 12

let pfn gpa = Int64.shift_right_logical gpa page_shift

let restore_override overrides p = function
  | Some e -> Hashtbl.replace overrides p e
  | None -> Hashtbl.remove overrides p

let make ranges overrides =
  let restore = restore_override overrides in
  { ranges; overrides; journal = Journal.sparse ~name:"Ept" ~restore }

let create () = make [] (Hashtbl.create 64)

(* Ranges bigger than this are kept as ranges; smaller ones become
   per-page overrides. *)
let override_threshold = 1024L

let span ~gpa ~len =
  assert (len > 0L);
  (pfn gpa, pfn (Int64.add gpa (Int64.sub len 1L)))

let journal_override t p =
  if Journal.first_touch t.journal p then
    Journal.save t.journal p (Hashtbl.find_opt t.overrides p)

let map t ~gpa ~len perm =
  let first, last = span ~gpa ~len in
  let pages = Int64.add (Int64.sub last first) 1L in
  if pages > override_threshold then begin
    (* Wholesale mapping: clear overrides it shadows. *)
    Hashtbl.iter
      (fun p _ ->
        if p >= first && p <= last then begin
          journal_override t p;
          Hashtbl.remove t.overrides p
        end)
      (Hashtbl.copy t.overrides);
    t.ranges <- (first, last, perm) :: t.ranges
  end
  else begin
    let p = ref first in
    while !p <= last do
      journal_override t !p;
      Hashtbl.replace t.overrides !p (Mapped perm);
      p := Int64.add !p 1L
    done
  end

let unmap t ~gpa ~len =
  let first, last = span ~gpa ~len in
  let p = ref first in
  while !p <= last do
    journal_override t !p;
    Hashtbl.replace t.overrides !p Hole;
    p := Int64.add !p 1L
  done

let lookup t gpa =
  let p = pfn gpa in
  match Hashtbl.find_opt t.overrides p with
  | Some (Mapped perm) -> Some perm
  | Some Hole -> None
  | None ->
      let rec scan = function
        | [] -> None
        | (first, last, perm) :: rest ->
            if p >= first && p <= last then Some perm else scan rest
      in
      scan t.ranges

type violation = { gpa : int64; access : access; present : perm option }

let allows perm = function
  | Read -> perm.r
  | Write -> perm.w
  | Exec -> perm.x

let check t ~gpa access =
  match lookup t gpa with
  | Some perm when allows perm access -> Ok ()
  | present -> Error { gpa; access; present }

let qualification v =
  let acc_bits =
    match v.access with Read -> 0x1L | Write -> 0x2L | Exec -> 0x4L
  in
  let perm_bits =
    match v.present with
    | None -> 0L
    | Some p ->
        Int64.logor
          (if p.r then 0x8L else 0L)
          (Int64.logor (if p.w then 0x10L else 0L) (if p.x then 0x20L else 0L))
  in
  (* bit 7: guest linear address valid — always set in our model. *)
  Int64.logor 0x80L (Int64.logor acc_bits perm_bits)

let copy t = make t.ranges (Hashtbl.copy t.overrides)

let transplant ~into ~from =
  into.ranges <- from.ranges;
  Hashtbl.reset into.overrides;
  Hashtbl.iter (fun p e -> Hashtbl.replace into.overrides p e) from.overrides;
  Journal.invalidate into.journal

let mapped_pages t =
  let range_pages =
    List.fold_left
      (fun acc (first, last, _) ->
        acc + Int64.to_int (Int64.add (Int64.sub last first) 1L))
      0 t.ranges
  in
  let delta =
    Hashtbl.fold
      (fun _ e acc -> match e with Mapped _ -> acc + 1 | Hole -> acc - 1)
      t.overrides 0
  in
  range_pages + delta

let override_count t = Hashtbl.length t.overrides

let dump t =
  let overrides =
    Hashtbl.fold
      (fun p e acc ->
        (p, (match e with Mapped perm -> Some perm | Hole -> None)) :: acc)
      t.overrides []
    |> List.sort (fun (a, _) (b, _) -> Int64.compare a b)
  in
  (t.ranges, overrides)

(* --- incremental (copy-on-write) checkpoints --- *)

type checkpoint = Journal.handle

let checkpoint t = Journal.push t.journal t.ranges

let validate t cp = Journal.validate t.journal cp

let rewind t cp =
  let restored = Journal.rewind t.journal cp in
  t.ranges <- Journal.saved t.journal;
  restored

let commit t cp = Journal.commit t.journal cp
