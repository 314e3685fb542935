module R = Iris_vtx.Exit_reason
module T = Iris_telemetry

let max_code =
  List.fold_left (fun acc r -> max acc (R.code r)) 0 R.all

let reason_labels =
  Array.init (max_code + 1) (fun code ->
      match R.of_code code with
      | Some r -> R.short_name r
      | None -> Printf.sprintf "RSVD%d" code)

let attach hub ctx =
  let tid = T.Tracer.alloc_tid hub.T.Hub.tracer in
  let probe = T.Probe.create ~tid ~labels:reason_labels hub in
  ctx.Ctx.hooks.Hooks.probe <- Some probe;
  Iris_vtx.Engine.set_exit_counters ctx.Ctx.dom.Domain.engine
    (T.Registry.counter_vec hub.T.Hub.registry "engine.exits"
       ~labels:reason_labels);
  probe

let probe ctx = ctx.Ctx.hooks.Hooks.probe
