type span = {
  name : string;
  cat : string;
  ts : int64;
  dur : int64;
  depth : int;
  tid : int;
  args : (string * string) list;
}

type open_span = {
  o_name : string;
  o_cat : string;
  o_ts : int64;
  o_tid : int;
  o_args : (string * string) list;
}

type t = {
  ring : span option array;
  mutable head : int; (* next write position *)
  mutable count : int; (* closed spans retained *)
  mutable evicted : int;
  mutable stack : open_span list;
  mutable next_tid : int;
}

let default_capacity = 65_536

let create ?(capacity = default_capacity) () =
  { ring = Array.make (max 1 capacity) None;
    head = 0;
    count = 0;
    evicted = 0;
    stack = [];
    next_tid = 1 }

let alloc_tid t =
  let id = t.next_tid in
  t.next_tid <- id + 1;
  id

let push t span =
  let cap = Array.length t.ring in
  if t.ring.(t.head) <> None then t.evicted <- t.evicted + 1
  else t.count <- t.count + 1;
  t.ring.(t.head) <- Some span;
  t.head <- (t.head + 1) mod cap

let begin_span ?(cat = "") ?(tid = 1) ?(args = []) t ~name ~ts =
  t.stack <-
    { o_name = name; o_cat = cat; o_ts = ts; o_tid = tid; o_args = args }
    :: t.stack

let end_span ?name ?(args = []) t ~ts =
  match t.stack with
  | [] -> () (* unbalanced end: drop *)
  | o :: rest ->
      t.stack <- rest;
      let dur = Int64.max 0L (Int64.sub ts o.o_ts) in
      push t
        { name = (match name with Some n -> n | None -> o.o_name);
          cat = o.o_cat;
          ts = o.o_ts;
          dur;
          depth = List.length rest;
          tid = o.o_tid;
          args = o.o_args @ args }

let instant ?(cat = "") ?(tid = 1) ?(args = []) t ~name ~ts =
  push t { name; cat; ts; dur = 0L; depth = List.length t.stack; tid; args }

let spans t =
  let cap = Array.length t.ring in
  let out = ref [] in
  (* Oldest-first: the ring cell at [head] is the oldest when full. *)
  for i = cap - 1 downto 0 do
    match t.ring.((t.head + i) mod cap) with
    | Some s -> out := s :: !out
    | None -> ()
  done;
  !out

let recorded t = t.count

let dropped t = t.evicted

let depth t = List.length t.stack
