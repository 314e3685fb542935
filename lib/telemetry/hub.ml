type t = {
  registry : Registry.t;
  tracer : Tracer.t;
}

let create () = { registry = Registry.create (); tracer = Tracer.create () }

let merge_into ~into t = Registry.merge_into ~into:into.registry t.registry

let snapshot t = Registry.snapshot t.registry

let summary ?title t = Export.summary ?title (snapshot t)

let chrome_trace_string t = Export.chrome_trace_string t.tracer
