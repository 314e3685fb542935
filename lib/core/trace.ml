module Codec = Iris_util.Codec
module R = Iris_vtx.Exit_reason

type t = {
  workload : string;
  prng_seed : int;
  seeds : Seed.t array;
  metrics : Metrics.t array;
  wall_cycles : int64;
}

let length t = Array.length t.seeds

let exit_mix t =
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun s ->
      let r = s.Seed.reason in
      Hashtbl.replace tbl r (1 + Option.value ~default:0 (Hashtbl.find_opt tbl r)))
    t.seeds;
  Hashtbl.fold (fun r n acc -> (r, n) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let seeds_with_reason t reason =
  Array.to_list t.seeds |> List.filter (fun s -> s.Seed.reason = reason)

let sub t ~pos ~len =
  assert (pos >= 0 && len >= 0 && pos + len <= length t);
  { t with
    seeds = Array.sub t.seeds pos len;
    metrics =
      (if Array.length t.metrics >= pos + len then Array.sub t.metrics pos len
       else [||]) }

let total_seed_bytes t =
  Array.fold_left (fun acc s -> acc + Seed.size_bytes s) 0 t.seeds

let max_rw_records t =
  Array.fold_left
    (fun acc s ->
      max acc (List.length s.Seed.reads + List.length s.Seed.writes))
    0 t.seeds

(* Serialisation covers seeds and (since v2) metrics.  Coverage points
   are stable across processes of the same build (component index ×
   probe line), so persisted metrics stay comparable; traces from a
   different build of the hypervisor should only rely on the seeds. *)
let encode t =
  let w = Codec.writer () in
  Codec.w_string w "IRISTRC2";
  Codec.w_string w t.workload;
  Codec.w_u32 w t.prng_seed;
  Codec.w_i64 w t.wall_cycles;
  Codec.w_u32 w (Array.length t.seeds);
  Array.iter
    (fun s ->
      let b = Seed.encode s in
      Codec.w_u32 w (Bytes.length b);
      Codec.w_bytes w b)
    t.seeds;
  Codec.w_u32 w (Array.length t.metrics);
  Array.iter
    (fun m ->
      Codec.w_i64 w m.Metrics.handler_cycles;
      Codec.w_u32 w (List.length m.Metrics.writes);
      List.iter
        (fun (f, v) ->
          Codec.w_u8 w (Iris_vmcs.Field.compact f);
          Codec.w_i64 w v)
        m.Metrics.writes;
      let cov = m.Metrics.coverage in
      Codec.w_u32 w (Iris_coverage.Cov.Pset.cardinal cov);
      Iris_coverage.Cov.Pset.iter
        (fun p -> Codec.w_u32 w (p :> int))
        cov)
    t.metrics;
  Codec.contents w

(* A header count, bounded by the bytes left: each entry occupies at
   least [min_bytes], so a forged count fails as truncation instead of
   sizing an allocation. *)
let r_count r ~min_bytes =
  let n = Codec.r_u32 r in
  if n > Codec.remaining r / min_bytes then raise Codec.Truncated;
  n

let of_string buf =
  match
    let r = Codec.reader_of_string buf in
    let magic = Codec.r_string r in
    let version =
      match magic with
      | "IRISTRC1" -> 1
      | "IRISTRC2" -> 2
      | _ -> failwith "bad magic"
    in
    let workload = Codec.r_string r in
    let prng_seed = Codec.r_u32 r in
    let wall_cycles = Codec.r_i64 r in
    let n = r_count r ~min_bytes:4 in
    (* [Array.init n] preallocates from the header count; each seed
       decodes through a zero-copy sub-reader over the file string
       (no per-seed [bytes] copy). *)
    let seeds =
      Array.init n (fun _ ->
          let len = Codec.r_u32 r in
          match Seed.decode_reader (Codec.r_reader r len) with
          | Ok s -> s
          | Error e -> failwith ("bad seed: " ^ e))
    in
    let metrics =
      if version < 2 then [||]
      else begin
        let m = r_count r ~min_bytes:16 in
        Array.init m (fun _ ->
            let handler_cycles = Codec.r_i64 r in
            let nw = Codec.r_u32 r in
            let writes =
              List.init nw (fun _ ->
                  let enc = Codec.r_u8 r in
                  let v = Codec.r_i64 r in
                  match Iris_vmcs.Field.of_compact enc with
                  | Some f -> (f, v)
                  | None -> failwith "bad field in metrics")
            in
            let np = Codec.r_u32 r in
            let coverage = ref Iris_coverage.Cov.Pset.empty in
            for _ = 1 to np do
              let raw = Codec.r_u32 r in
              match Iris_coverage.Cov.point_of_int raw with
              | Some p ->
                  coverage := Iris_coverage.Cov.Pset.add p !coverage
              | None -> failwith "bad coverage point"
            done;
            { Metrics.handler_cycles; writes; coverage = !coverage })
      end
    in
    { workload; prng_seed; seeds; metrics; wall_cycles }
  with
  | t -> Ok t
  | exception Failure msg -> Error msg
  | exception Codec.Truncated -> Error "truncated trace"

(* [Bytes.unsafe_to_string] is sound: decoding never mutates the
   buffer and the caller hands over ownership. *)
let decode buf = of_string (Bytes.unsafe_to_string buf)

(* Incremental fingerprint over the same fields [encode] serialises,
   in the same order — so equal traces digest equal — without
   materialising the encoded bytes.  Replay verification compares
   these instead of re-serialising the whole trace. *)
let digest t =
  let module H = Iris_util.Fnv64 in
  let h = ref H.init in
  let fold_i64 v = h := H.int64 !h v in
  let fold_int v = h := H.int !h v in
  h := H.string !h t.workload;
  fold_int t.prng_seed;
  fold_i64 t.wall_cycles;
  fold_int (Array.length t.seeds);
  Array.iter
    (fun s ->
      fold_int s.Seed.index;
      fold_int (R.code s.Seed.reason);
      List.iter
        (fun (r, v) ->
          fold_int (Iris_x86.Gpr.encode r);
          fold_i64 v)
        s.Seed.gprs;
      List.iter
        (fun (f, v) ->
          fold_int (Iris_vmcs.Field.compact f);
          fold_i64 v)
        s.Seed.reads;
      List.iter
        (fun (f, v) ->
          fold_int (Iris_vmcs.Field.compact f);
          fold_i64 v)
        s.Seed.writes)
    t.seeds;
  fold_int (Array.length t.metrics);
  Array.iter
    (fun m ->
      fold_i64 m.Metrics.handler_cycles;
      fold_int (List.length m.Metrics.writes);
      List.iter
        (fun (f, v) ->
          fold_int (Iris_vmcs.Field.compact f);
          fold_i64 v)
        m.Metrics.writes;
      fold_int (Iris_coverage.Cov.Pset.cardinal m.Metrics.coverage);
      Iris_coverage.Cov.Pset.iter (fun p -> fold_int (p :> int))
        m.Metrics.coverage)
    t.metrics;
  H.to_hex !h

let save t ~path =
  let oc = open_out_bin path in
  (try output_bytes oc (encode t)
   with e ->
     close_out oc;
     raise e);
  close_out oc

let load ~path =
  match
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let buf = really_input_string ic len in
    close_in ic;
    (* Decode straight from the file string: the old path copied the
       whole file into [bytes] first. *)
    of_string buf
  with
  | r -> r
  | exception Sys_error msg -> Error msg

let pp_summary fmt t =
  Format.fprintf fmt "@[<v>trace of %s (seed %d): %d exits, %Ld cycles@ "
    t.workload t.prng_seed (length t) t.wall_cycles;
  List.iter
    (fun (r, n) -> Format.fprintf fmt "  %-28s %6d@ " (R.name r) n)
    (exit_mix t);
  Format.fprintf fmt "@]"
