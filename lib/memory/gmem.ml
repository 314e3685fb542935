module Journal = Iris_util.Journal

let page_size = 4096

exception Bad_address of int64

(* The copy-on-write journal saves each dirtied page's prior contents;
   [None] records that the page was unallocated (logically zero). *)
type t = {
  size : int64;
  pages : (int64, bytes) Hashtbl.t;
  journal : ((int64, bytes option) Journal.sparse, unit) Journal.t;
  mutable hot_pfn : int64;
      (** last pfn journaled in the innermost epoch; caches the
          journal membership test across the byte-wise write loop *)
}

let no_hot = -1L

let zero_page = Bytes.make page_size '\000'

let is_zero_page p = Bytes.equal p zero_page

(* Saved buffers are installed directly (ownership transfers out of the
   journal); all-zero pages go back to being absent, matching the
   canonical form [transplant] produces. *)
let restore_page pages pfn = function
  | Some p when not (is_zero_page p) -> Hashtbl.replace pages pfn p
  | Some _ | None -> Hashtbl.remove pages pfn

let make size pages =
  let journal = Journal.sparse ~name:"Gmem" ~restore:(restore_page pages) in
  { size; pages; journal; hot_pfn = no_hot }

let create ~size_mib =
  assert (size_mib > 0);
  make (Int64.mul (Int64.of_int size_mib) 0x100000L) (Hashtbl.create 256)

let size_bytes t = t.size

let in_range t addr = addr >= 0L && addr < t.size

let check t addr = if not (in_range t addr) then raise (Bad_address addr)

let pfn_of addr = Int64.div addr (Int64.of_int page_size)

let page_of t addr =
  let pfn = pfn_of addr in
  match Hashtbl.find_opt t.pages pfn with
  | Some p -> p
  | None ->
      let p = Bytes.make page_size '\000' in
      Hashtbl.replace t.pages pfn p;
      p

(* Reads never allocate: an absent page is logically zero, and keeping
   it absent keeps the sparse backing canonical (and the journals
   small — a read is not a dirtying event). *)
let read_u8 t addr =
  check t addr;
  match Hashtbl.find_opt t.pages (pfn_of addr) with
  | None -> 0
  | Some page ->
      Char.code
        (Bytes.get page (Int64.to_int (Int64.rem addr (Int64.of_int page_size))))

(* [hot_pfn] is reset whenever the innermost epoch changes, so a page
   it names has already been looked at in that epoch. *)
let journal_page t pfn =
  if pfn <> t.hot_pfn then begin
    t.hot_pfn <- pfn;
    if Journal.first_touch t.journal pfn then
      Journal.save t.journal pfn
        (Option.map Bytes.copy (Hashtbl.find_opt t.pages pfn))
  end

let write_u8 t addr v =
  check t addr;
  journal_page t (pfn_of addr);
  let page = page_of t addr in
  Bytes.set page
    (Int64.to_int (Int64.rem addr (Int64.of_int page_size)))
    (Char.chr (v land 0xFF))

let read t addr ~width =
  assert (width = 1 || width = 2 || width = 4 || width = 8);
  let v = ref 0L in
  for i = width - 1 downto 0 do
    let byte = read_u8 t (Int64.add addr (Int64.of_int i)) in
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int byte)
  done;
  !v

let write t addr ~width v =
  assert (width = 1 || width = 2 || width = 4 || width = 8);
  for i = 0 to width - 1 do
    let byte =
      Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL)
    in
    write_u8 t (Int64.add addr (Int64.of_int i)) byte
  done

let read_bytes t addr n =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set b i (Char.chr (read_u8 t (Int64.add addr (Int64.of_int i))))
  done;
  b

let write_bytes t addr b =
  Bytes.iteri
    (fun i c -> write_u8 t (Int64.add addr (Int64.of_int i)) (Char.code c))
    b

(* The single page-clone path shared by [copy] and [transplant]:
   all-zero pages are dropped instead of cloned, since an absent page
   already reads as zeros — cheaper, and it keeps the allocated set
   canonical across snapshot round-trips. *)
let clone_page_into pages pfn p =
  if not (is_zero_page p) then Hashtbl.replace pages pfn (Bytes.copy p)

let copy t =
  let pages = Hashtbl.create (max 16 (Hashtbl.length t.pages)) in
  Hashtbl.iter (clone_page_into pages) t.pages;
  make t.size pages

let clear t =
  Hashtbl.reset t.pages;
  Journal.invalidate t.journal;
  t.hot_pfn <- no_hot

let transplant ~into ~from =
  assert (into.size = from.size);
  Hashtbl.reset into.pages;
  Hashtbl.iter (clone_page_into into.pages) from.pages;
  Journal.invalidate into.journal;
  into.hot_pfn <- no_hot

let allocated_pages t = Hashtbl.length t.pages

let nonzero_pages t =
  Hashtbl.fold
    (fun pfn p acc ->
      if is_zero_page p then acc else (pfn, Bytes.copy p) :: acc)
    t.pages []
  |> List.sort (fun (a, _) (b, _) -> Int64.compare a b)

let equal a b =
  a.size = b.size
  && List.equal
       (fun (pa, ba) (pb, bb) -> pa = pb && Bytes.equal ba bb)
       (nonzero_pages a) (nonzero_pages b)

(* --- incremental (copy-on-write) checkpoints --- *)

type checkpoint = Journal.handle

let checkpoint t =
  t.hot_pfn <- no_hot;
  Journal.push t.journal ()

let checkpoint_depth t = Journal.depth t.journal

let dirty_pages t = Journal.dirty t.journal

let validate t cp = Journal.validate t.journal cp

let rewind t cp =
  let restored = Journal.rewind t.journal cp in
  t.hot_pfn <- no_hot;
  restored

let commit t cp =
  Journal.commit t.journal cp;
  t.hot_pfn <- no_hot
