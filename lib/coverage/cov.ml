type point = int

let line_space = 1 lsl 20

let point comp line =
  assert (line >= 0 && line < line_space);
  (Component.index comp * line_space) + line

let point_component p =
  match Component.of_index (p / line_space) with
  | Some c -> c
  | None -> assert false

let point_line p = p mod line_space

let point_of_int raw =
  if raw < 0 then None
  else begin
    let comp = raw / line_space in
    if Component.of_index comp = None then None else Some raw
  end

module Pset = Set.Make (Int)

(* AFL-style dense store: one flat int-count array per component,
   indexed by the scaled line.  A probe update is a bounds check plus
   an increment — no hashing, no boxing, no allocation — which is what
   keeps the per-exit coverage cost flat across a campaign.

   Capacity follows the same freeze discipline as the VMCS/VMCB field
   registries: a process-wide high-water mark per component records the
   largest scaled line any store has ever needed, and new stores
   preallocate to it.  Once the first campaign has warmed the marks,
   later collectors never grow on the hot path; growth remains as a
   correctness fallback for lines above the high-water mark. *)

let min_capacity = 1024

(* Plain (non-atomic) ints on purpose: word-sized stores do not tear,
   and a lost racing update only weakens a *hint* — the per-store
   [ensure] below still grows on demand. *)
let capacity_hint = Array.make Component.count min_capacity

let note_capacity ci n = if n > capacity_hint.(ci) then capacity_hint.(ci) <- n

type t = {
  mutable counts : int array array;  (* per component, scaled-line index *)
  mutable unique : int;              (* points with count > 0 *)
  mutable on : bool;
  (* Span capture without a per-hit set: points are deduplicated by a
     generation stamp per slot and accumulated in a scratch stack; the
     [Pset] the recorder wants is built once, at [span_end]. *)
  mutable span_gen : int array array;
  mutable gen : int;
  mutable span_on : bool;
  mutable span_buf : int array;      (* packed points, first span_len live *)
  mutable span_len : int;
}

let create () =
  { counts = Array.init Component.count (fun ci -> Array.make capacity_hint.(ci) 0);
    unique = 0;
    on = true;
    span_gen =
      Array.init Component.count (fun ci -> Array.make capacity_hint.(ci) 0);
    gen = 1;
    span_on = false;
    span_buf = Array.make 256 0;
    span_len = 0 }

let enable t = t.on <- true

let disable t = t.on <- false

let enabled t = t.on

let rec next_pow2 n k = if k >= n then k else next_pow2 n (k * 2)

let ensure t ci needed =
  assert (needed <= line_space);
  let old = t.counts.(ci) in
  if needed > Array.length old then begin
    let cap = min line_space (next_pow2 needed (max min_capacity (2 * Array.length old))) in
    note_capacity ci cap;
    let counts = Array.make cap 0 in
    Array.blit old 0 counts 0 (Array.length old);
    t.counts.(ci) <- counts;
    let gens = Array.make cap 0 in
    Array.blit t.span_gen.(ci) 0 gens 0 (Array.length old);
    t.span_gen.(ci) <- gens
  end

let span_push t p =
  if t.span_len >= Array.length t.span_buf then begin
    let bigger = Array.make (2 * Array.length t.span_buf) 0 in
    Array.blit t.span_buf 0 bigger 0 t.span_len;
    t.span_buf <- bigger
  end;
  t.span_buf.(t.span_len) <- p;
  t.span_len <- t.span_len + 1

(* A probe stands for a gcov basic block: executing it covers a short
   run of consecutive source lines, with a per-site deterministic
   length.  This keeps line counts in the same regime as real gcov
   output instead of one line per instrumentation point. *)
let block_len line = 1 + (line * 2654435761) land 5

let hit t comp line =
  if t.on && Component.instrumented comp then begin
    let len = block_len line in
    (* Scale the line number so blocks from adjacent probes cannot
       overlap. *)
    let base = line * 16 in
    let ci = Component.index comp in
    ensure t ci (base + len);
    let counts = t.counts.(ci) in
    let point_base = ci * line_space in
    if t.span_on then begin
      let gens = t.span_gen.(ci) in
      let gen = t.gen in
      for i = base to base + len - 1 do
        let c = Array.unsafe_get counts i in
        if c = 0 then t.unique <- t.unique + 1;
        Array.unsafe_set counts i (c + 1);
        if Array.unsafe_get gens i <> gen then begin
          Array.unsafe_set gens i gen;
          span_push t (point_base + i)
        end
      done
    end
    else
      for i = base to base + len - 1 do
        let c = Array.unsafe_get counts i in
        if c = 0 then t.unique <- t.unique + 1;
        Array.unsafe_set counts i (c + 1)
      done
  end

let hits t p =
  let ci = p / line_space and idx = p mod line_space in
  let counts = t.counts.(ci) in
  if idx < Array.length counts then counts.(idx) else 0

let covered t =
  let acc = ref Pset.empty in
  Array.iteri
    (fun ci counts ->
      let point_base = ci * line_space in
      Array.iteri
        (fun idx c -> if c > 0 then acc := Pset.add (point_base + idx) !acc)
        counts)
    t.counts;
  !acc

let unique_lines t = t.unique

let lines_of t comp =
  let counts = t.counts.(Component.index comp) in
  let acc = ref [] in
  for idx = Array.length counts - 1 downto 0 do
    if counts.(idx) > 0 then acc := idx :: !acc
  done;
  !acc

(* Union for the orchestrator's join path: hit counts add, so merging
   per-worker collectors in any order equals one sequential run. The
   in-flight span (if any) of [t] is not transferred. *)
let merge ~into t =
  Array.iteri
    (fun ci counts ->
      ensure into ci (Array.length counts);
      let dst = into.counts.(ci) in
      Array.iteri
        (fun idx c ->
          if c > 0 then begin
            if dst.(idx) = 0 then into.unique <- into.unique + 1;
            dst.(idx) <- dst.(idx) + c
          end)
        counts)
    t.counts

let reset t =
  Array.iter (fun counts -> Array.fill counts 0 (Array.length counts) 0) t.counts;
  t.unique <- 0;
  t.span_on <- false;
  t.span_len <- 0;
  t.gen <- t.gen + 1

let span_begin t =
  (* A span already in progress is discarded. *)
  t.gen <- t.gen + 1;
  t.span_len <- 0;
  t.span_on <- true

let span_end t =
  let acc = ref Pset.empty in
  for i = 0 to t.span_len - 1 do
    acc := Pset.add t.span_buf.(i) !acc
  done;
  t.span_on <- false;
  t.span_len <- 0;
  t.gen <- t.gen + 1;
  !acc

let with_span t f =
  assert (not t.span_on);
  span_begin t;
  match f () with
  | v ->
      let s = span_end t in
      (v, s)
  | exception e ->
      ignore (span_end t);
      raise e

let block_points comp line =
  let len = block_len line in
  let base = line * 16 in
  let rec add i acc =
    if i >= len then acc else add (i + 1) (Pset.add (point comp (base + i)) acc)
  in
  add 0 Pset.empty

let by_component pset =
  let tbl = Hashtbl.create 16 in
  Pset.iter
    (fun p ->
      let c = point_component p in
      let prev = match Hashtbl.find_opt tbl c with Some n -> n | None -> 0 in
      Hashtbl.replace tbl c (prev + 1))
    pset;
  Hashtbl.fold (fun c n acc -> (c, n) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> compare b a)
