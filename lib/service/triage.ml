module J = Iris_telemetry.Json
module R = Iris_vtx.Exit_reason
module Campaign = Iris_fuzzer.Campaign
module Fnv = Iris_util.Fnv64

type crash = {
  c_spec_key : string;
  c_case : int;
  c_reason : R.t;
  c_failure : Campaign.failure_class;
  c_detail : string;
  c_span : int array;
  c_devices : (string * int) list;
}

type repro = {
  r_digest : string;
  r_seeds : int;
  r_deterministic : bool;
  r_attempts : int;
}

type bucket = {
  b_signature : string;
  mutable b_count : int;
  mutable b_rep : crash;
  mutable b_repro : repro option;
}

let is_digit c = c >= '0' && c <= '9'

let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let normalize_detail s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    if
      c = '0'
      && !i + 2 < n
      && s.[!i + 1] = 'x'
      && is_hex s.[!i + 2]
    then begin
      Buffer.add_string buf "0x#";
      i := !i + 2;
      while !i < n && is_hex s.[!i] do
        incr i
      done
    end
    else if is_digit c then begin
      Buffer.add_char buf '#';
      while !i < n && is_digit s.[!i] do
        incr i
      done
    end
    else begin
      Buffer.add_char buf c;
      incr i
    end
  done;
  Buffer.contents buf

let failure_tag = function
  | Campaign.No_failure -> 0
  | Campaign.Vm_crash -> 1
  | Campaign.Hypervisor_crash -> 2

let signature ~failure ~reason ~span ~detail =
  let h = Fnv.init in
  let h = Fnv.int h (failure_tag failure) in
  let h = Fnv.int h (R.code reason) in
  let h = Array.fold_left Fnv.int h span in
  let h = Fnv.string h (normalize_detail detail) in
  Fnv.to_hex h

type t = {
  table : (string, bucket) Hashtbl.t;
  mutable crashes : int;
  mutable changed : bucket list;  (* new representatives since [take_changed] *)
}

let create () = { table = Hashtbl.create 16; crashes = 0; changed = [] }

let rep_order c = (c.c_spec_key, c.c_case)

let note t crash ~minimize =
  t.crashes <- t.crashes + 1;
  let s =
    signature ~failure:crash.c_failure ~reason:crash.c_reason
      ~span:crash.c_span ~detail:crash.c_detail
  in
  match Hashtbl.find_opt t.table s with
  | None ->
      let b =
        { b_signature = s; b_count = 1; b_rep = crash; b_repro = minimize () }
      in
      Hashtbl.replace t.table s b;
      t.changed <- b :: t.changed;
      `New
  | Some b ->
      b.b_count <- b.b_count + 1;
      if rep_order crash < rep_order b.b_rep then begin
        b.b_rep <- crash;
        b.b_repro <- minimize ();
        t.changed <- b :: t.changed;
        `Replaced
      end
      else `Counted

let by_signature a b = compare a.b_signature b.b_signature

let take_changed t =
  let changed = List.sort_uniq by_signature t.changed in
  t.changed <- [];
  changed

let count t = Hashtbl.length t.table

let total t = t.crashes

let buckets t =
  Hashtbl.fold (fun _ b acc -> b :: acc) t.table []
  |> List.sort by_signature

let bucket_to_json b =
  let repro =
    match b.b_repro with
    | None -> J.Null
    | Some r ->
        J.Obj
          [ ("digest", J.String r.r_digest);
            ("seeds", J.Int r.r_seeds);
            ("deterministic", J.Bool r.r_deterministic);
            ("attempts", J.Int r.r_attempts) ]
  in
  J.Obj
    [ ("signature", J.String b.b_signature);
      ("count", J.Int b.b_count);
      ("failure", J.String (Campaign.failure_name b.b_rep.c_failure));
      ("reason", J.String (R.short_name b.b_rep.c_reason));
      ("detail", J.String (normalize_detail b.b_rep.c_detail));
      ("spec", J.String b.b_rep.c_spec_key);
      ("case", J.Int b.b_rep.c_case);
      ("span_points", J.Int (Array.length b.b_rep.c_span));
      ( "devices",
        J.List
          (List.map
             (fun (d, n) -> J.Obj [ ("device", J.String d); ("touches", J.Int n) ])
             b.b_rep.c_devices) );
      ("repro", repro) ]

let to_json t =
  J.Obj
    [ ("buckets", J.List (List.map bucket_to_json (buckets t)));
      ("crashes", J.Int t.crashes) ]
