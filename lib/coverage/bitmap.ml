(* [touched.(0 .. n - 1)] lists every slot of [map] that went from zero
   to non-zero since the last [reset], each exactly once.  Slots only
   return to zero through [reset], so the list is exactly the non-zero
   slots and every walk below costs O(touched), not O(size). *)
type t = {
  map : Bytes.t;
  mask : int;
  mutable touched : int array;
  mutable n : int;
}

let create ?(size = 65536) () =
  assert (size > 0 && size land (size - 1) = 0);
  { map = Bytes.make size '\000'; mask = size - 1; touched = [||]; n = 0 }

let size t = Bytes.length t.map

(* Fibonacci hashing of the packed point. *)
let slot t p = (p * 0x9E3779B1) lsr 11 land t.mask

let push t i =
  if t.n = Array.length t.touched then begin
    let grown = Array.make (min (size t) (max 16 (2 * t.n))) 0 in
    Array.blit t.touched 0 grown 0 t.n;
    t.touched <- grown
  end;
  t.touched.(t.n) <- i;
  t.n <- t.n + 1

let record t p =
  let i = slot t (p : Cov.point :> int) in
  let v = Char.code (Bytes.get t.map i) in
  if v = 0 then push t i;
  if v < 255 then Bytes.set t.map i (Char.chr (v + 1))

let record_set t pset = Cov.Pset.iter (record t) pset

let set_bytes t = t.n

(* Saturating per-slot sum of [t] into [virgin]; returns how many
   slots of [virgin] it filled for the first time. *)
let merge_new ~virgin t =
  assert (size virgin = size t);
  let fresh = ref 0 in
  for k = 0 to t.n - 1 do
    let i = t.touched.(k) in
    let acc = Char.code (Bytes.get virgin.map i) in
    if acc = 0 then begin
      push virgin i;
      incr fresh
    end;
    let add = Char.code (Bytes.get t.map i) in
    Bytes.set virgin.map i (Char.chr (min 255 (acc + add)))
  done;
  !fresh

let reset t =
  for k = 0 to t.n - 1 do
    Bytes.set t.map t.touched.(k) '\000'
  done;
  t.n <- 0
