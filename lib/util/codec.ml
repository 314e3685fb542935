exception Truncated

type writer = Buffer.t

let writer () = Buffer.create 256

let w_u8 b v =
  assert (v >= 0 && v < 0x100);
  Buffer.add_char b (Char.chr v)

let w_u16 b v =
  assert (v >= 0 && v < 0x10000);
  Buffer.add_char b (Char.chr (v land 0xFF));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xFF))

let w_u32 b v =
  assert (v >= 0 && v <= 0xFFFFFFFF);
  for i = 0 to 3 do
    Buffer.add_char b (Char.chr ((v lsr (8 * i)) land 0xFF))
  done

let w_i64 b v =
  for i = 0 to 7 do
    let byte = Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL) in
    Buffer.add_char b (Char.chr byte)
  done

let w_bytes b v = Buffer.add_bytes b v

let w_string b s =
  w_u32 b (String.length s);
  Buffer.add_string b s

let contents b = Buffer.to_bytes b

let length = Buffer.length

(* Readers decode straight from an immutable [string] view: loading a
   trace used to copy the whole file into [bytes] first, which doubled
   peak memory for big corpora and showed up as allocator churn on the
   replay path. *)
type reader = { buf : string; mutable pos : int; limit : int }

let reader_of_string buf = { buf; pos = 0; limit = String.length buf }

(* [Bytes.unsafe_to_string] is sound here because the reader never
   mutates [buf] and callers hand over ownership of the buffer. *)
let reader buf = reader_of_string (Bytes.unsafe_to_string buf)

let reader_sub buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then raise Truncated;
  { buf = Bytes.unsafe_to_string buf; pos; limit = pos + len }

let need r n = if r.pos + n > r.limit then raise Truncated

(* A sub-reader over the next [len] bytes, sharing the backing string
   (no copy); the parent skips past them. *)
let r_reader r len =
  need r len;
  let sub = { buf = r.buf; pos = r.pos; limit = r.pos + len } in
  r.pos <- r.pos + len;
  sub

let r_u8 r =
  need r 1;
  let v = Char.code (String.unsafe_get r.buf r.pos) in
  r.pos <- r.pos + 1;
  v

let r_u16 r =
  let lo = r_u8 r in
  let hi = r_u8 r in
  lo lor (hi lsl 8)

let r_u32 r =
  need r 4;
  let v = ref 0 in
  for i = 0 to 3 do
    v := !v lor (Char.code (String.unsafe_get r.buf (r.pos + i)) lsl (8 * i))
  done;
  r.pos <- r.pos + 4;
  !v

let r_i64 r =
  need r 8;
  let v = ref 0L in
  for i = 0 to 7 do
    let byte = Int64.of_int (Char.code (String.unsafe_get r.buf (r.pos + i))) in
    v := Int64.logor !v (Int64.shift_left byte (8 * i))
  done;
  r.pos <- r.pos + 8;
  !v

let r_string r =
  let n = r_u32 r in
  need r n;
  let s = String.sub r.buf r.pos n in
  r.pos <- r.pos + n;
  s

let remaining r = r.limit - r.pos

let at_end r = r.pos = r.limit
