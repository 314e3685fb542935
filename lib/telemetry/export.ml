let summary ?title snap =
  let buf = Buffer.create 512 in
  (match title with
  | Some t ->
      Buffer.add_string buf t;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (String.length t) '-');
      Buffer.add_char buf '\n'
  | None -> ());
  Buffer.add_string buf (Registry.render snap);
  Buffer.contents buf

let metrics_jsonl = Registry.to_jsonl

(* One self-contained JSONL status snapshot: a monotonic sequence
   number, caller context fields, then the full metrics snapshot.
   The service daemon streams these; `tail -f | jq` is the consumer
   contract, hence one object per line. *)
let status_line ?(extra = []) ~seq snap =
  Json.to_string
    (Json.Obj
       (("seq", Json.Int seq) :: extra @ [ ("metrics", Registry.to_json snap) ]))

(* The paper's testbed clock: 3.6 GHz => 3600 virtual cycles per
   microsecond.  A constant here, not a dependency on [Iris_vtx.Clock],
   so the library stays at the bottom of the dependency stack. *)
let cycles_per_us = 3600.0

let chrome_trace tracer =
  let us cycles = Int64.to_float cycles /. cycles_per_us in
  let args_json args =
    Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) args)
  in
  let span_event (s : Tracer.span) =
    let common =
      [ ("name", Json.String s.Tracer.name);
        ("cat",
         Json.String (if s.Tracer.cat = "" then "iris" else s.Tracer.cat));
        ("pid", Json.Int 1);
        ("tid", Json.Int s.Tracer.tid);
        ("ts", Json.Float (us s.Tracer.ts)) ]
    in
    let args =
      if s.Tracer.args = [] then []
      else [ ("args", args_json s.Tracer.args) ]
    in
    if s.Tracer.dur = 0L then
      Json.Obj (common @ [ ("ph", Json.String "i"); ("s", Json.String "t") ] @ args)
    else
      Json.Obj
        (common
        @ [ ("ph", Json.String "X"); ("dur", Json.Float (us s.Tracer.dur)) ]
        @ args)
  in
  let metadata =
    [ Json.Obj
        [ ("name", Json.String "process_name");
          ("ph", Json.String "M");
          ("pid", Json.Int 1);
          ("args", Json.Obj [ ("name", Json.String "iris") ]) ] ]
  in
  Json.Obj
    [ ( "traceEvents",
        Json.List (metadata @ List.map span_event (Tracer.spans tracer)) );
      ("displayTimeUnit", Json.String "ms");
      ( "otherData",
        Json.Obj
          [ ("clock", Json.String "virtual-tsc");
            ("cycles_per_us", Json.Float cycles_per_us);
            ("dropped_spans", Json.Int (Tracer.dropped tracer)) ] ) ]

let chrome_trace_string tracer = Json.to_string (chrome_trace tracer)

let write_file ~path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)
