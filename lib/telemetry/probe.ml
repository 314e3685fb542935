type t = {
  hub : Hub.t;
  labels : string array;
  tid : int;
  exits : Registry.vec;
  exit_cycles : Registry.vec;
  handler_hist : Registry.histogram;
  reason_hist : Registry.hist_vec;
  vmreads : Registry.counter;
  vmwrites : Registry.counter;
  mutable start : int64;
  mutable in_exit : bool;
  mutable base_depth : int; (* tracer depth outside any exit span *)
}

let create ?(tid = 1) ~labels hub =
  let reg = hub.Hub.registry in
  { hub;
    labels;
    tid;
    exits = Registry.counter_vec reg "hv.exits" ~labels;
    exit_cycles = Registry.counter_vec reg "hv.exit_cycles" ~labels;
    handler_hist = Registry.histogram reg "hv.handler_cycles";
    reason_hist = Registry.histogram_vec reg "hv.handler_cycles_by_reason" ~labels;
    vmreads = Registry.counter reg "hv.vmreads";
    vmwrites = Registry.counter reg "hv.vmwrites";
    start = 0L;
    in_exit = false;
    base_depth = 0 }

let hub t = t.hub

let tid t = t.tid

let unwind t ~now =
  (* A handler that panicked mid-exit never reached [exit_end]; close
     its dangling spans (handler + exit) so the stack cannot grow
     without bound.  The aborted exit yields no metrics. *)
  if t.in_exit then begin
    t.in_exit <- false;
    while Tracer.depth t.hub.Hub.tracer > t.base_depth do
      Tracer.end_span t.hub.Hub.tracer ~name:"aborted" ~ts:now
    done
  end

let exit_begin t ~now =
  unwind t ~now;
  t.start <- now;
  t.in_exit <- true;
  t.base_depth <- Tracer.depth t.hub.Hub.tracer;
  Tracer.begin_span t.hub.Hub.tracer ~cat:"exit" ~tid:t.tid ~name:"exit"
    ~ts:now

let exit_end t ~now ~reason =
  if t.in_exit then begin
    t.in_exit <- false;
    let dur = Int64.max 0L (Int64.sub now t.start) in
    Registry.vec_incr t.exits reason;
    Registry.vec_add64 t.exit_cycles reason dur;
    Registry.observe t.handler_hist dur;
    Registry.hist_observe t.reason_hist reason dur;
    let name =
      if reason >= 0 && reason < Array.length t.labels then t.labels.(reason)
      else "unknown"
    in
    Tracer.end_span t.hub.Hub.tracer ~name ~ts:now
  end

let handler_begin t ~now =
  Tracer.begin_span t.hub.Hub.tracer ~cat:"handler" ~tid:t.tid
    ~name:"handler" ~ts:now

let handler_end t ~now ~name = Tracer.end_span t.hub.Hub.tracer ~name ~ts:now

let on_vmread t = Registry.incr t.vmreads

let on_vmwrite t = Registry.incr t.vmwrites

let instant t ~name ~now =
  Tracer.instant t.hub.Hub.tracer ~cat:"event" ~tid:t.tid ~name ~ts:now
