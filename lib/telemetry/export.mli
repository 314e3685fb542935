(** Exporters for the registry and the tracer.

    Three formats, per the kAFL/rr practice of always giving both a
    human and a machine a way in:
    - [summary]: plain-text table for terminals;
    - [Registry.to_jsonl] (re-exported here as {!metrics_jsonl}):
      line-delimited JSON for ingestion;
    - [chrome_trace_string]: the Chrome [trace_event] JSON-array format that
      [about://tracing] and {{:https://ui.perfetto.dev}Perfetto} load
      directly. *)

val summary : ?title:string -> Registry.snapshot -> string

val metrics_jsonl : Registry.snapshot -> string

val status_line :
  ?extra:(string * Json.t) list -> seq:int -> Registry.snapshot -> string
(** One JSONL status snapshot:
    [{"seq":N, <extra fields>, "metrics":{...}}] — what the service
    daemon streams to its status sink, one object per line. *)

val chrome_trace_string : Tracer.t -> string
(** Complete ("ph":"X") events for closed spans, instant ("ph":"i")
    events for zero-duration ones, plus the process-name metadata
    (["iris"]).  Timestamps convert from virtual cycles to microseconds
    at 3600 cycles per microsecond, the model's 3.6 GHz testbed. *)

val write_file : path:string -> string -> unit
