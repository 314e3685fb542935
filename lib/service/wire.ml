module J = Iris_telemetry.Json

type request =
  | Submit of Jobspec.t
  | Status
  | Cancel of int
  | Drain
  | Verify
  | Corpus_stats
  | Distill
  | Corpus_save of string
  | Corpus_load of string
  | Shutdown

let request_to_json = function
  | Submit spec ->
      J.Obj [ ("cmd", J.String "submit"); ("spec", Jobspec.to_json spec) ]
  | Status -> J.Obj [ ("cmd", J.String "status") ]
  | Cancel id -> J.Obj [ ("cmd", J.String "cancel"); ("id", J.Int id) ]
  | Drain -> J.Obj [ ("cmd", J.String "drain") ]
  | Verify -> J.Obj [ ("cmd", J.String "verify") ]
  | Corpus_stats -> J.Obj [ ("cmd", J.String "corpus") ]
  | Distill -> J.Obj [ ("cmd", J.String "distill") ]
  | Corpus_save path ->
      J.Obj [ ("cmd", J.String "corpus-save"); ("path", J.String path) ]
  | Corpus_load path ->
      J.Obj [ ("cmd", J.String "corpus-load"); ("path", J.String path) ]
  | Shutdown -> J.Obj [ ("cmd", J.String "shutdown") ]

let request_to_line r = J.to_string (request_to_json r)

let request_of_json j =
  match Option.bind (J.member "cmd" j) J.string_value with
  | None -> Error "wire: missing \"cmd\""
  | Some cmd -> (
      let str k = Option.bind (J.member k j) J.string_value in
      let int k = Option.bind (J.member k j) J.int_value in
      match cmd with
      | "submit" -> (
          match J.member "spec" j with
          | None -> Error "wire: submit needs \"spec\""
          | Some spec -> (
              match Jobspec.of_json spec with
              | Ok s -> Ok (Submit s)
              | Error e -> Error e))
      | "status" -> Ok Status
      | "cancel" -> (
          match int "id" with
          | Some id -> Ok (Cancel id)
          | None -> Error "wire: cancel needs \"id\"")
      | "drain" -> Ok Drain
      | "verify" -> Ok Verify
      | "corpus" -> Ok Corpus_stats
      | "distill" -> Ok Distill
      | "corpus-save" -> (
          match str "path" with
          | Some p -> Ok (Corpus_save p)
          | None -> Error "wire: corpus-save needs \"path\"")
      | "corpus-load" -> (
          match str "path" with
          | Some p -> Ok (Corpus_load p)
          | None -> Error "wire: corpus-load needs \"path\"")
      | "shutdown" -> Ok Shutdown
      | other -> Error (Printf.sprintf "wire: unknown cmd %S" other))

let request_of_line line = Result.bind (J.of_string line) request_of_json

let ok cmd fields = J.Obj (("ok", J.Bool true) :: ("cmd", J.String cmd) :: fields)

let fail cmd msg =
  J.Obj
    [ ("ok", J.Bool false); ("cmd", J.String cmd); ("error", J.String msg) ]

let handle server = function
  | Submit spec ->
      let id = Server.submit server spec in
      (ok "submit" [ ("id", J.Int id); ("key", J.String (Jobspec.key spec)) ], false)
  | Status -> (ok "status" (Server.status_fields server), false)
  | Cancel id ->
      let found = Server.cancel server id in
      ( J.Obj [ ("ok", J.Bool found); ("cmd", J.String "cancel"); ("id", J.Int id) ],
        false )
  | Drain ->
      let d = Server.drain server in
      ( ok "drain"
          [ ("rounds", J.Int d.Server.d_rounds);
            ("completed", J.Int d.Server.d_completed);
            ("failed", J.Int d.Server.d_failed);
            ("crashes", J.Int d.Server.d_crashes);
            ("buckets", J.Int d.Server.d_buckets);
            ("corpus", J.Int d.Server.d_corpus);
            ("report_digest", J.String d.Server.d_report_digest) ],
        false )
  | Verify ->
      let v = Server.verify server in
      ( J.Obj
          [ ("ok", J.Bool (Server.verify_ok v));
            ("cmd", J.String "verify");
            ("corpus_checked", J.Int v.Server.v_corpus_checked);
            ("corpus_mismatches", J.Int v.Server.v_corpus_mismatches);
            ("buckets_checked", J.Int v.Server.v_buckets_checked);
            ("bucket_mismatches", J.Int v.Server.v_bucket_mismatches);
            ("buckets_unreproduced", J.Int v.Server.v_buckets_unreproduced) ],
        false )
  | Corpus_stats ->
      let c = Server.corpus server in
      ( ok "corpus"
          [ ("entries", J.Int (Corpus.count c));
            ("points", J.Int (Corpus.total_points c));
            ("digest", J.String (Corpus.digest c)) ],
        false )
  | Distill ->
      let before, after = Server.distill server in
      ( ok "distill"
          [ ("before", J.Int before);
            ("after", J.Int after);
            ("points", J.Int (Corpus.total_points (Server.corpus server))) ],
        false )
  | Corpus_save path ->
      (try
         Corpus.save (Server.corpus server) ~path;
         (ok "corpus-save" [ ("path", J.String path) ], false)
       with Sys_error e -> (fail "corpus-save" e, false))
  | Corpus_load path -> (
      match Corpus.load ~path with
      | Ok loaded ->
          let added = Corpus.merge_from (Server.corpus server) loaded in
          (ok "corpus-load" [ ("added", J.Int added) ], false)
      | Error e -> (fail "corpus-load" e, false))
  | Shutdown -> (ok "shutdown" [], true)

let handle_line server line =
  match request_of_line line with
  | Error e -> (J.to_string (fail "parse" e), false)
  | Ok req ->
      (* A handler that raises costs only its request's answer: the
         daemon keeps serving. *)
      let resp, stop =
        try handle server req
        with e ->
          let cmd =
            Option.bind (J.member "cmd" (request_to_json req)) J.string_value
          in
          (fail (Option.value cmd ~default:"") (Printexc.to_string e), false)
      in
      (J.to_string resp, stop)

let response_ok line =
  match J.of_string line with
  | Ok j -> (
      match J.member "ok" j with Some (J.Bool b) -> b | _ -> false)
  | Error _ -> false

(* The line loop of [serve_pipe] and [relay], which differ only in how
   they answer a line: answer each non-blank line of [ic] on [oc] until
   EOF or an answer that stops; returns whether every answer was ok. *)
let answer_lines answer ic oc =
  let all_ok = ref true in
  let stop = ref false in
  (try
     while not !stop do
       let line = input_line ic in
       if String.trim line <> "" then begin
         let resp, s = answer line in
         if not (response_ok resp) then all_ok := false;
         output_string oc (resp ^ "\n");
         flush oc;
         stop := s
       end
     done
   with End_of_file -> ());
  !all_ok

let serve_pipe server ic oc = answer_lines (handle_line server) ic oc

(* --- Unix-domain socket daemon --- *)

(* A client that hangs up before reading its response must cost only
   that response: with SIGPIPE ignored, the write fails with an
   exception instead of killing the daemon, and the exception is
   dropped with the client.  A client that connects and sends nothing
   must not stall the others: its request read times out after
   [client_timeout_s] (the channel raises [Sys_blocked_io]) and the
   client is dropped the same way. *)
let client_timeout_s = 2.0

let serve_socket server ~path =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 8;
  let all_ok = ref true in
  let stop = ref false in
  while not !stop do
    (* progress pending jobs while idle-waiting for clients *)
    let readable, _, _ = Unix.select [ sock ] [] [] 0.02 in
    if readable = [] then ignore (Server.step server : bool)
    else begin
      let client, _ = Unix.accept sock in
      Unix.setsockopt_float client Unix.SO_RCVTIMEO client_timeout_s;
      let ic = Unix.in_channel_of_descr client in
      let oc = Unix.out_channel_of_descr client in
      (match input_line ic with
      | exception (End_of_file | Sys_error _ | Sys_blocked_io) -> ()
      | line ->
          let resp, s = handle_line server line in
          if not (response_ok resp) then all_ok := false;
          (try
             output_string oc (resp ^ "\n");
             flush oc
           with Sys_error _ | Unix.Unix_error _ -> ());
          stop := s);
      (* Closing through the channel also discards what a failed write
         left in its buffer. *)
      close_out_noerr oc
    end
  done;
  (try Unix.close sock with Unix.Unix_error _ -> ());
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  !all_ok

let call ~path line =
  match
    let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
      (fun () ->
        Unix.connect sock (Unix.ADDR_UNIX path);
        let oc = Unix.out_channel_of_descr sock in
        output_string oc (line ^ "\n");
        flush oc;
        let ic = Unix.in_channel_of_descr sock in
        input_line ic)
  with
  | resp -> Ok resp
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | exception Sys_error e -> Error e
  | exception End_of_file -> Error "connection closed without response"

(* A relayed line is answered by the daemon; the relay stops where the
   daemon does, at an accepted shutdown, or when the daemon cannot be
   reached, answering that line with a local error. *)
let relay ~path ic oc =
  answer_lines
    (fun line ->
      match call ~path line with
      | Ok resp ->
          let stop =
            match request_of_line line with
            | Ok Shutdown -> response_ok resp
            | Ok _ | Error _ -> false
          in
          (resp, stop)
      | Error e ->
          ( J.to_string
              (fail "relay"
                 (Printf.sprintf "cannot reach daemon at %s: %s" path e)),
            true ))
    ic oc
