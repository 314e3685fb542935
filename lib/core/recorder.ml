module Ctx = Iris_hv.Ctx
module Hooks = Iris_hv.Hooks
module Cov = Iris_coverage.Cov
module F = Iris_vmcs.Field
module Gpr = Iris_x86.Gpr

type pending = {
  mutable p_gprs : (Gpr.reg * int64) list;
  mutable p_reads : (F.t * int64) list; (* reversed *)
  mutable p_writes : (F.t * int64) list; (* reversed *)
  mutable p_start_cycles : int64;
  mutable p_open : bool;
}

type t = {
  ctx : Ctx.t;
  store_seeds : bool;
  store_metrics : bool;
  pending : pending;
  mutable seeds : Seed.t list; (* reversed *)
  mutable metrics : Metrics.t list; (* reversed *)
  mutable count : int;
  start_wall : int64;
}

let fresh_pending () =
  { p_gprs = [];
    p_reads = [];
    p_writes = [];
    p_start_cycles = 0L;
    p_open = false }

let on_exit_start t () =
  let p = t.pending in
  p.p_open <- true;
  p.p_reads <- [];
  p.p_writes <- [];
  p.p_start_cycles <- Iris_vtx.Clock.now (Ctx.clock t.ctx);
  (* GPRs are captured once, at handler start, exactly as the paper's
     callback "at the start of the VM exit handler execution". *)
  let regs = Ctx.regs t.ctx in
  p.p_gprs <-
    Array.to_list (Array.map (fun r -> (r, Gpr.get regs r)) Gpr.all);
  if t.store_metrics then Cov.span_begin t.ctx.Ctx.cov

let on_vmread t field value =
  let p = t.pending in
  if p.p_open then p.p_reads <- (field, value) :: p.p_reads

let on_vmwrite t field value =
  let p = t.pending in
  if p.p_open then p.p_writes <- (field, value) :: p.p_writes

let reason_of_reads reads =
  (* The first recorded read of the exit-reason field names the
     exit. *)
  match List.assoc_opt F.vm_exit_reason reads with
  | Some v -> Iris_vtx.Exit_reason.of_reason_field v
  | None -> None

let on_exit_end t () =
  let p = t.pending in
  if p.p_open then begin
    p.p_open <- false;
    let reads = List.rev p.p_reads in
    let writes = List.rev p.p_writes in
    let reason =
      match reason_of_reads reads with
      | Some r -> r
      | None -> Iris_vtx.Exit_reason.Preemption_timer
    in
    if t.store_seeds then begin
      let seed =
        { Seed.index = t.count;
          reason;
          gprs = p.p_gprs;
          reads;
          writes }
      in
      t.seeds <- seed :: t.seeds
    end;
    if t.store_metrics then begin
      let coverage = Cov.span_end t.ctx.Ctx.cov in
      let now = Iris_vtx.Clock.now (Ctx.clock t.ctx) in
      let m =
        { Metrics.coverage;
          writes;
          handler_cycles = Int64.sub now p.p_start_cycles }
      in
      t.metrics <- m :: t.metrics
    end;
    t.count <- t.count + 1
  end

let start ?(store_seeds = true) ?(store_metrics = true) ctx =
  let t =
    { ctx;
      store_seeds;
      store_metrics;
      pending = fresh_pending ();
      seeds = [];
      metrics = [];
      count = 0;
      start_wall = Iris_vtx.Clock.now (Ctx.clock ctx) }
  in
  let hooks = ctx.Ctx.hooks in
  hooks.Hooks.on_exit_start <- Some (on_exit_start t);
  hooks.Hooks.on_exit_end <- Some (on_exit_end t);
  hooks.Hooks.on_vmread <- Some (on_vmread t);
  hooks.Hooks.on_vmwrite <- Some (on_vmwrite t);
  (match Iris_hv.Observe.probe ctx with
  | None -> ()
  | Some p ->
      let hub = Iris_telemetry.Probe.hub p in
      Iris_telemetry.Tracer.begin_span hub.Iris_telemetry.Hub.tracer
        ~cat:"phase" ~tid:(Iris_telemetry.Probe.tid p) ~name:"record"
        ~ts:t.start_wall);
  t

let stop t ~workload ~prng_seed =
  let hooks = t.ctx.Ctx.hooks in
  hooks.Hooks.on_exit_start <- None;
  hooks.Hooks.on_exit_end <- None;
  hooks.Hooks.on_vmread <- None;
  hooks.Hooks.on_vmwrite <- None;
  let now = Iris_vtx.Clock.now (Ctx.clock t.ctx) in
  let wall = Int64.sub now t.start_wall in
  (match Iris_hv.Observe.probe t.ctx with
  | None -> ()
  | Some p ->
      (* A handler that panicked mid-recording leaves its exit span
         open; unwind before closing the phase. *)
      Iris_telemetry.Probe.unwind p ~now;
      let hub = Iris_telemetry.Probe.hub p in
      Iris_telemetry.Registry.add
        (Iris_telemetry.Registry.counter hub.Iris_telemetry.Hub.registry
           "record.seeds")
        (List.length t.seeds);
      Iris_telemetry.Tracer.end_span hub.Iris_telemetry.Hub.tracer
        ~name:"record"
        ~args:[ ("workload", workload); ("exits", string_of_int t.count) ]
        ~ts:now);
  { Trace.workload;
    prng_seed;
    seeds = Array.of_list (List.rev t.seeds);
    metrics = Array.of_list (List.rev t.metrics);
    wall_cycles = wall }
