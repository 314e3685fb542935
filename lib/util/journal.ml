(* An epoch's pre-images, the value saved at its push, and the stamp
   its handle carries.  Pooled epochs get [saved] and [stamp] anew. *)
type ('log, 's) epoch = { log : 'log; mutable saved : 's; mutable stamp : int }

(* The epoch kind's operations; none is on the per-write path. *)
type ('log, 's) t = {
  name : string;
  fresh : unit -> 'log;
  clear : 'log -> unit;
  length : 'log -> int;
  undo : 'log -> unit;          (* write every pre-image back *)
  fold : 'log -> 'log -> unit;  (* child's pre-images into parent *)
  mutable stack : ('log, 's) epoch list;  (* innermost first *)
  mutable depth : int;
  mutable pool : ('log, 's) epoch list;
  mutable next_stamp : int;
}

type handle = int

let make ~name ~fresh ~clear ~length ~undo ~fold =
  { name; fresh; clear; length; undo; fold; stack = []; depth = 0;
    pool = []; next_stamp = 0 }

let push t s =
  let e =
    match t.pool with
    | e :: rest ->
        t.pool <- rest;
        e.saved <- s;
        e
    | [] -> { log = t.fresh (); saved = s; stamp = 0 }
  in
  e.stamp <- t.next_stamp;
  t.next_stamp <- t.next_stamp + 1;
  t.stack <- e :: t.stack;
  t.depth <- t.depth + 1;
  e.stamp

let recycle t e =
  t.clear e.log;
  t.pool <- e :: t.pool

(* Stamps grow from the outermost epoch to the innermost, so the
   search stops at the first older epoch. *)
let rec live h = function
  | [] -> false
  | e :: rest -> e.stamp = h || (e.stamp > h && live h rest)

let validate t h =
  if not (live h t.stack) then
    invalid_arg (t.name ^ ".rewind: stale checkpoint")

let rec unwind t h restored = function
  | [] -> assert false
  | e :: rest as stack ->
      t.undo e.log;
      let restored = restored + t.length e.log in
      if e.stamp = h then begin
        t.clear e.log;
        t.stack <- stack;
        restored
      end
      else begin
        recycle t e;
        t.depth <- t.depth - 1;
        unwind t h restored rest
      end

let rewind t h =
  validate t h;
  unwind t h 0 t.stack

(* A key the parent epoch has not saved had the same value at both
   pushes, so the child's pre-image is the parent's too. *)
let commit t h =
  match t.stack with
  | e :: rest when e.stamp = h ->
      (match rest with parent :: _ -> t.fold e.log parent.log | [] -> ());
      recycle t e;
      t.stack <- rest;
      t.depth <- t.depth - 1
  | _ -> invalid_arg (t.name ^ ".commit: not the innermost checkpoint")

let invalidate t =
  List.iter (recycle t) t.stack;
  t.stack <- [];
  t.depth <- 0

let depth t = t.depth

let dirty t = match t.stack with [] -> 0 | e :: _ -> t.length e.log

let saved t =
  match t.stack with e :: _ -> e.saved | [] -> invalid_arg "Journal.saved"

(* Dense: a pre-image slot and a seen byte per index, plus the stack of
   saved indices, so clearing and undoing walk only what was saved. *)
type dense = {
  old : int64 array;
  seen : Bytes.t;
  dirty : int array;
  mutable n : int;
}

let mark d i v =
  Bytes.unsafe_set d.seen i '\001';
  d.old.(i) <- v;
  d.dirty.(d.n) <- i;
  d.n <- d.n + 1

let dense ~name values =
  let size = Array.length values in
  make ~name
    ~fresh:(fun () ->
      { old = Array.make size 0L; seen = Bytes.make size '\000';
        dirty = Array.make size 0; n = 0 })
    ~clear:(fun d ->
      for k = 0 to d.n - 1 do Bytes.unsafe_set d.seen d.dirty.(k) '\000' done;
      d.n <- 0)
    ~length:(fun d -> d.n)
    ~undo:(fun d ->
      for k = 0 to d.n - 1 do values.(d.dirty.(k)) <- d.old.(d.dirty.(k)) done)
    ~fold:(fun child parent ->
      for k = 0 to child.n - 1 do
        let i = child.dirty.(k) in
        if Bytes.unsafe_get parent.seen i = '\000' then mark parent i child.old.(i)
      done)

let note t values i =
  match t.stack with
  | [] -> ()
  | e :: _ -> if Bytes.get e.log.seen i = '\000' then mark e.log i values.(i)

(* Sparse: one pooled Hashtbl of pre-images per epoch. *)
type ('k, 'v) sparse = ('k, 'v) Hashtbl.t

let sparse ~name ~restore =
  make ~name
    ~fresh:(fun () -> Hashtbl.create 16)
    ~clear:Hashtbl.reset ~length:Hashtbl.length ~undo:(Hashtbl.iter restore)
    ~fold:(fun child parent ->
      Hashtbl.iter
        (fun k v -> if not (Hashtbl.mem parent k) then Hashtbl.add parent k v)
        child)

let first_touch t k =
  match t.stack with [] -> false | e :: _ -> not (Hashtbl.mem e.log k)

let save t k v =
  match t.stack with [] -> () | e :: _ -> Hashtbl.add e.log k v
