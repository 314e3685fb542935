(** JSON-lines wire protocol for the campaign daemon.

    One request per line, one response line per request — over a
    Unix-domain socket (daemon mode) or stdin/stdout (pipe mode, what
    CI drives).  Every response is an object with ["ok"] and ["cmd"];
    failures carry ["error"].

    Requests:
    {v
    {"cmd":"submit","spec":{...}}      -> {"ok":true,"id":N,"key":...}
    {"cmd":"status"}                   -> {"ok":true,...snapshot...}
    {"cmd":"cancel","id":N}            -> {"ok":bool}
    {"cmd":"drain"}                    -> {"ok":true,"report_digest":...}
    {"cmd":"verify"}                   -> {"ok":bool,...counts...}
    {"cmd":"corpus"}                   -> {"ok":true,"entries":N,...}
    {"cmd":"distill"}                  -> {"ok":true,"before":N,"after":N}
    {"cmd":"corpus-save","path":P}     -> {"ok":true}
    {"cmd":"corpus-load","path":P}     -> {"ok":true,"added":N}
    {"cmd":"shutdown"}                 -> {"ok":true} and the loop ends
    v} *)

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

val request_to_line : request -> string
val request_of_line : string -> (request, string) result

val handle : Server.t -> request -> Iris_telemetry.Json.t * bool
(** Execute one request; [true] means stop serving. *)

val handle_line : Server.t -> string -> string * bool
(** [handle] over encoded lines; parse errors become
    [{"ok":false,"error":...}] responses. *)

val response_ok : string -> bool
(** Whether a response line carries ["ok":true]. *)

val serve_pipe : Server.t -> in_channel -> out_channel -> bool
(** Serve line-by-line until EOF or [shutdown]; returns whether every
    response was ok — the pipe-mode exit status. *)

val serve_socket : Server.t -> path:string -> bool
(** Bind a Unix-domain socket at [path] (replacing any stale file)
    and serve one-request connections until [shutdown].  Between
    connections the server [step]s pending work, so jobs progress
    while the daemon waits.  The process ignores SIGPIPE from then on,
    so a client that hangs up before reading its response loses only
    that response.  Returns whether every response was ok. *)

val call : path:string -> string -> (string, string) result
(** Client side: connect, send one request line, read the response
    line. *)
