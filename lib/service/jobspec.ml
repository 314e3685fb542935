module J = Iris_telemetry.Json
module R = Iris_vtx.Exit_reason
module W = Iris_guest.Workload
module Mutation = Iris_fuzzer.Mutation
module Fnv = Iris_util.Fnv64

type t = {
  tenant : string;
  priority : int;
  workload : W.t;
  exits : int;
  reason : R.t;
  area : Mutation.area;
  mutations : int;
  prng_seed : int;
  boot_scale : float;
  timeout_cycles : int64 option;
}

let make ?(tenant = "default") ?(priority = 1) ?(boot_scale = 0.05)
    ?timeout_cycles ~workload ~exits ~reason ~area ~mutations ~prng_seed () =
  { tenant;
    priority = max 1 priority;
    workload;
    exits;
    reason;
    area;
    mutations;
    prng_seed;
    boot_scale;
    timeout_cycles }

let area_string = function
  | Mutation.Area_vmcs -> "vmcs"
  | Mutation.Area_gpr -> "gpr"

let area_of_string s =
  match String.lowercase_ascii s with
  | "vmcs" -> Some Mutation.Area_vmcs
  | "gpr" -> Some Mutation.Area_gpr
  | _ -> None

let reason_of_string s =
  match int_of_string_opt s with
  | Some code -> R.of_code code
  | None ->
      let want = String.lowercase_ascii s in
      List.find_opt
        (fun r ->
          String.lowercase_ascii (R.name r) = want
          || String.lowercase_ascii (R.short_name r) = want)
        R.all

(* The key folds every field that determines the computation, in a
   fixed order; boot_scale goes through a fixed-precision rendering so
   the fold never depends on float formatting quirks. *)
let key t =
  let h = Fnv.init in
  let h = Fnv.string h t.tenant in
  let h = Fnv.int h t.priority in
  let h = Fnv.string h (W.name t.workload) in
  let h = Fnv.int h t.exits in
  let h = Fnv.int h (R.code t.reason) in
  let h = Fnv.string h (area_string t.area) in
  let h = Fnv.int h t.mutations in
  let h = Fnv.int h t.prng_seed in
  let h = Fnv.string h (Printf.sprintf "%.6f" t.boot_scale) in
  let h =
    match t.timeout_cycles with
    | None -> Fnv.int h (-1)
    | Some c -> Fnv.int64 h c
  in
  Fnv.to_hex h

let label t =
  Printf.sprintf "%s/%s/%s/%s m=%d s=%d" t.tenant (W.name t.workload)
    (R.short_name t.reason)
    (String.uppercase_ascii (area_string t.area))
    t.mutations t.prng_seed

let to_json t =
  let base =
    [ ("tenant", J.String t.tenant);
      ("priority", J.Int t.priority);
      ("workload", J.String (W.name t.workload));
      ("exits", J.Int t.exits);
      ("reason", J.Int (R.code t.reason));
      ("area", J.String (area_string t.area));
      ("mutations", J.Int t.mutations);
      ("prng_seed", J.Int t.prng_seed);
      ("boot_scale", J.Float t.boot_scale) ]
  in
  let timeout =
    match t.timeout_cycles with
    | None -> []
    | Some c -> [ ("timeout_cycles", J.Int (Int64.to_int c)) ]
  in
  J.Obj (base @ timeout)

let of_json j =
  let str k = Option.bind (J.member k j) J.string_value in
  let int k = Option.bind (J.member k j) J.int_value in
  let num k = Option.bind (J.member k j) J.float_value in
  let ( let* ) = Result.bind in
  let require what = function
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "jobspec: missing or bad %S" what)
  in
  let* workload =
    match str "workload" with
    | Some s -> require "workload" (W.of_name s)
    | None -> Error "jobspec: missing or bad \"workload\""
  in
  let* exits = require "exits" (int "exits") in
  let* reason =
    match J.member "reason" j with
    | Some (J.Int code) -> require "reason" (R.of_code code)
    | Some (J.String s) -> require "reason" (reason_of_string s)
    | Some _ | None -> Error "jobspec: missing or bad \"reason\""
  in
  let* area =
    match str "area" with
    | Some s -> require "area" (area_of_string s)
    | None -> Error "jobspec: missing or bad \"area\""
  in
  let* mutations = require "mutations" (int "mutations") in
  let* prng_seed = require "prng_seed" (int "prng_seed") in
  let tenant = Option.value (str "tenant") ~default:"default" in
  let priority = Option.value (int "priority") ~default:1 in
  let boot_scale = Option.value (num "boot_scale") ~default:0.05 in
  let timeout_cycles = Option.map Int64.of_int (int "timeout_cycles") in
  Ok
    (make ~tenant ~priority ~boot_scale ?timeout_cycles ~workload ~exits
       ~reason ~area ~mutations ~prng_seed ())
