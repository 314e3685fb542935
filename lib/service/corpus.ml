module J = Iris_telemetry.Json
module W = Iris_guest.Workload
module Seed = Iris_core.Seed
module Cov = Iris_coverage.Cov
module Bitmap = Iris_coverage.Bitmap
module Campaign = Iris_fuzzer.Campaign
module Fnv = Iris_util.Fnv64

type meta = {
  m_workload : W.t;
  m_exits : int;
  m_prng_seed : int;
  m_boot_scale : float;
  m_seed_index : int;
}

type entry = {
  e_key : string;
  e_meta : meta;
  e_seed : Seed.t;
  e_points : int array;
  e_digest : string;
}

let meta_fold h (m : meta) =
  let h = Fnv.string h (W.name m.m_workload) in
  let h = Fnv.int h m.m_exits in
  let h = Fnv.int h m.m_prng_seed in
  let h = Fnv.string h (Printf.sprintf "%.6f" m.m_boot_scale) in
  Fnv.int h m.m_seed_index

let entry_key ~meta ~seed =
  let h = meta_fold Fnv.init meta in
  let h = Fnv.string h (Bytes.unsafe_to_string (Seed.encode seed)) in
  Fnv.to_hex h

let points_of_span span = Array.of_list (Cov.Pset.elements span :> int list)

let entry ~meta ~seed ~span ~digest =
  { e_key = entry_key ~meta ~seed;
    e_meta = meta;
    e_seed = seed;
    e_points = points_of_span span;
    e_digest = digest }

type t = { store : (string, entry) Hashtbl.t }

let create () = { store = Hashtbl.create 64 }

let add t e =
  if Hashtbl.mem t.store e.e_key then false
  else begin
    Hashtbl.replace t.store e.e_key e;
    true
  end

let count t = Hashtbl.length t.store

let entries t =
  Hashtbl.fold (fun _ e acc -> e :: acc) t.store []
  |> List.sort (fun a b -> compare a.e_key b.e_key)

let coverage t =
  let seen = Hashtbl.create 1024 in
  Hashtbl.iter
    (fun _ e -> Array.iter (fun p -> Hashtbl.replace seen p ()) e.e_points)
    t.store;
  let pts = Hashtbl.fold (fun p () acc -> p :: acc) seen [] in
  let a = Array.of_list pts in
  Array.sort compare a;
  a

let total_points t = Array.length (coverage t)

(* AFL-style admission over one finished campaign: a scratch bitmap
   carries each case's span into the job-local virgin map; novelty
   means the case enters the store.  Case 0 (the unmutated baseline)
   is always a candidate so every job contributes its ground truth. *)
let admit_plan t ~meta ~plan ~raws =
  let virgin = Bitmap.create () in
  let scratch = Bitmap.create () in
  let admitted = ref 0 and dups = ref 0 in
  Array.iteri
    (fun i (raw : Campaign.raw) ->
      Bitmap.reset scratch;
      Bitmap.record_set scratch raw.Campaign.raw_span;
      let novel = Bitmap.merge_new ~virgin scratch in
      if i = 0 || novel > 0 then begin
        let seed = Campaign.case plan i in
        let e =
          entry ~meta ~seed ~span:raw.Campaign.raw_span
            ~digest:(Campaign.raw_digest raw)
        in
        if add t e then incr admitted else incr dups
      end)
    raws;
  (!admitted, !dups)

let distill t =
  let before = count t in
  let order =
    entries t
    |> List.sort (fun a b ->
           match
             compare (Array.length b.e_points) (Array.length a.e_points)
           with
           | 0 -> compare a.e_key b.e_key
           | c -> c)
  in
  let covered = Hashtbl.create 1024 in
  let keep = ref [] in
  List.iter
    (fun e ->
      let contributes =
        Array.exists (fun p -> not (Hashtbl.mem covered p)) e.e_points
      in
      if contributes then begin
        Array.iter (fun p -> Hashtbl.replace covered p ()) e.e_points;
        keep := e :: !keep
      end)
    order;
  Hashtbl.reset t.store;
  List.iter (fun e -> Hashtbl.replace t.store e.e_key e) !keep;
  (before, count t)

let digest t =
  let h =
    List.fold_left
      (fun h e ->
        let h = Fnv.string h e.e_key in
        let h = Fnv.string h e.e_digest in
        Array.fold_left Fnv.int h e.e_points)
      Fnv.init (entries t)
  in
  Fnv.to_hex h

(* --- persistence --- *)

let to_hex_string (b : bytes) =
  let buf = Buffer.create (2 * Bytes.length b) in
  Bytes.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) b;
  Buffer.contents buf

let of_hex_string s =
  let n = String.length s in
  if n mod 2 <> 0 then Error "corpus: odd hex length"
  else
    try
      Ok
        (Bytes.init (n / 2) (fun i ->
             Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2))))
    with _ -> Error "corpus: bad hex"

let entry_to_json e =
  J.Obj
    [ ("key", J.String e.e_key);
      ("workload", J.String (W.name e.e_meta.m_workload));
      ("exits", J.Int e.e_meta.m_exits);
      ("prng_seed", J.Int e.e_meta.m_prng_seed);
      ("boot_scale", J.Float e.e_meta.m_boot_scale);
      ("seed_index", J.Int e.e_meta.m_seed_index);
      ("points", J.List (Array.to_list (Array.map (fun p -> J.Int p) e.e_points)));
      ("digest", J.String e.e_digest);
      ("seed", J.String (to_hex_string (Seed.encode e.e_seed))) ]

let to_json t =
  J.Obj
    [ ("schema", J.String "iris-corpus-v1");
      ("entries", J.List (List.map entry_to_json (entries t))) ]

let entry_of_json j =
  let ( let* ) = Result.bind in
  let str k =
    match Option.bind (J.member k j) J.string_value with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "corpus: missing %S" k)
  in
  let int k =
    match Option.bind (J.member k j) J.int_value with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "corpus: missing %S" k)
  in
  let* wname = str "workload" in
  let* workload =
    match W.of_name wname with
    | Some w -> Ok w
    | None -> Error "corpus: unknown workload"
  in
  let* exits = int "exits" in
  let* () =
    if exits > 0 then Ok () else Error "corpus: exits must be positive"
  in
  let* prng_seed = int "prng_seed" in
  let boot_scale =
    Option.value ~default:0.05
      (Option.bind (J.member "boot_scale" j) J.float_value)
  in
  let* seed_index = int "seed_index" in
  let* () =
    if seed_index >= 0 then Ok () else Error "corpus: negative seed_index"
  in
  let* digest = str "digest" in
  let* seed_hex = str "seed" in
  let* seed_bytes = of_hex_string seed_hex in
  let* seed = Seed.decode seed_bytes in
  let* points =
    match J.member "points" j with
    | None -> Ok [||]
    | Some (J.List l) ->
        let ints = List.filter_map J.int_value l in
        if List.compare_lengths ints l = 0 then Ok (Array.of_list ints)
        else Error "corpus: points must be integers"
    | Some _ -> Error "corpus: points must be a list"
  in
  Array.sort compare points;
  let meta =
    { m_workload = workload;
      m_exits = exits;
      m_prng_seed = prng_seed;
      m_boot_scale = boot_scale;
      m_seed_index = seed_index }
  in
  Ok
    { e_key = entry_key ~meta ~seed;
      e_meta = meta;
      e_seed = seed;
      e_points = points;
      e_digest = digest }

let of_json j =
  match J.member "schema" j with
  | Some (J.String "iris-corpus-v1") -> (
      let t = create () in
      let rec go = function
        | [] -> Ok t
        | e :: rest -> (
            match entry_of_json e with
            | Ok entry ->
                ignore (add t entry : bool);
                go rest
            | Error _ as err -> err)
      in
      match J.member "entries" j with
      | Some l -> go (J.to_list l)
      | None -> Error "corpus: missing entries")
  | _ -> Error "corpus: not an iris-corpus-v1 document"

(* Write a temporary file beside the target and rename it over the
   target: a reader, or a daemon killed mid-save, sees the old document
   or the new one, never a truncated mix. *)
let save t ~path =
  let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
  match
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (J.to_string (to_json t) ^ "\n"))
  with
  | () -> Sys.rename tmp path
  | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

let load ~path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error e
  | s -> Result.bind (J.of_string (String.trim s)) of_json

let merge_from t other =
  List.fold_left (fun n e -> if add t e then n + 1 else n) 0 (entries other)
