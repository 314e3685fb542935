module Ctx = Iris_hv.Ctx
module Hooks = Iris_hv.Hooks
module F = Iris_vmcs.Field
module Gpr = Iris_x86.Gpr

type t = {
  ctx : Ctx.t;
  shim : (F.t, int64 Queue.t) Hashtbl.t;
  mutable shim_enabled : bool;
  mutable entry_checks : bool;
  mutable trigger : [ `Preemption_timer | `Hlt ];
  mutable batched : bool;
      (** seeds were staged by a batch hypercall: skip the per-seed
          fixed submission cost *)
}

let injection_cycles_base = 58_000

let injection_cycles_per_record = 900

let create ctx =
  assert ctx.Ctx.dom.Iris_hv.Domain.dummy;
  let t =
    { ctx;
      shim = Hashtbl.create 32;
      shim_enabled = true;
      entry_checks = true;
      trigger = `Preemption_timer;
      batched = false }
  in
  (* The read filter stays installed for the replayer's lifetime; it
     only rewrites fields with queued seed values. *)
  ctx.Ctx.hooks.Hooks.vmread_filter <-
    Some
      (fun field raw ->
        match Hashtbl.find_opt t.shim field with
        | Some q when not (Queue.is_empty q) -> Queue.pop q
        | Some _ | None -> raw);
  t

let ctx t = t.ctx

let set_shim_enabled t b = t.shim_enabled <- b

let set_entry_checks t b = t.entry_checks <- b

let set_trigger t trig = t.trigger <- trig

type outcome =
  | Replayed
  | Vm_crashed of string

let charge t n = Iris_vtx.Clock.advance (Ctx.clock t.ctx) n

(* Set up the hypervisor context per the seed (§IV-B): GPRs into the
   saved register file; writable read fields VMWRITten (first
   occurrence wins — later occurrences reflect the handler's own
   updates); read-only fields queued for the VMREAD shim. *)
let inject t (seed : Seed.t) =
  Hashtbl.reset t.shim;
  let records = ref 0 in
  let regs = Ctx.regs t.ctx in
  List.iter
    (fun (r, v) ->
      incr records;
      Gpr.set regs r v)
    seed.Seed.gprs;
  let written = Hashtbl.create 16 in
  List.iter
    (fun (f, v) ->
      incr records;
      if F.readonly f then begin
        if t.shim_enabled then begin
          let q =
            match Hashtbl.find_opt t.shim f with
            | Some q -> q
            | None ->
                let q = Queue.create () in
                Hashtbl.replace t.shim f q;
                q
          in
          Queue.push v q
        end
      end
      else if not (Hashtbl.mem written f) then begin
        Hashtbl.replace written f ();
        Iris_hv.Access.vmwrite_raw t.ctx f v
      end)
    seed.Seed.reads;
  let fixed = if t.batched then 0 else injection_cycles_base in
  charge t (fixed + (injection_cycles_per_record * !records))

let crashed_reason dom =
  match dom.Iris_hv.Domain.crashed with
  | Some r -> r
  | None -> "unknown"

let probe t = Iris_hv.Observe.probe t.ctx

let now t = Iris_vtx.Clock.now (Ctx.clock t.ctx)

(* Mark dummy-VM crashes on the trace track: a seed that kills the
   dummy is the signal the fuzzer triages (§IV-B). *)
let note_outcome t outcome =
  (match (outcome, probe t) with
  | Vm_crashed _, Some p ->
      Iris_telemetry.Probe.instant p ~name:"vm_crash" ~now:(now t)
  | (Replayed | Vm_crashed _), _ -> ());
  outcome

(* The dummy VM's fetch stream is empty: the timer fires before any
   fetch.  One shared closure, not one per submit. *)
let no_fetch () = None

let submit_inner t seed =
  let dom = t.ctx.Ctx.dom in
  if Iris_hv.Domain.crashed dom then Vm_crashed (crashed_reason dom)
  else begin
    (* Trigger the next preemption-timer exit of the dummy VM. *)
    (match
       Iris_vtx.Engine.run_until_exit dom.Iris_hv.Domain.engine
         ~fetch:no_fetch
     with
    | Iris_vtx.Engine.Exit _ -> ()
    | Iris_vtx.Engine.Program_done ->
        invalid_arg
          "Replayer.submit: dummy VM did not exit (preemption timer not \
           armed)");
    (* An HLT-triggered dummy pays the halt handler, the wakeup
       injection and the event delivery per seed. *)
    if t.trigger = `Hlt then
      charge t (400 + Iris_vtx.Cost.event_injection + 1200);
    inject t seed;
    Iris_hv.Exitpath.handle t.ctx;
    Hashtbl.reset t.shim;
    (* The dummy vCPU is never allowed to block: replay must keep
       consuming seeds at full rate (§IV-B). *)
    dom.Iris_hv.Domain.blocked <- false;
    if Iris_hv.Domain.crashed dom then Vm_crashed (crashed_reason dom)
    else if not t.entry_checks then begin
      (* Ablation: stay in root mode between seeds (the alternative
         §IV-B rejects) — load guest state without the architectural
         checks. *)
      Iris_vtx.Engine.complete_entry dom.Iris_hv.Domain.engine;
      Replayed
    end
    else begin
      match Iris_hv.Xen.enter t.ctx with
      | Ok () -> Replayed
      | Error msg -> Vm_crashed msg
    end
  end

let submit t seed = note_outcome t (submit_inner t seed)

let submit_all t seeds =
  let n = Array.length seeds in
  (match probe t with
  | None -> ()
  | Some p ->
      let hub = Iris_telemetry.Probe.hub p in
      Iris_telemetry.Tracer.begin_span hub.Iris_telemetry.Hub.tracer
        ~cat:"phase" ~tid:(Iris_telemetry.Probe.tid p) ~name:"replay"
        ~args:[ ("seeds", string_of_int n) ]
        ~ts:(now t));
  let rec loop i =
    if i >= n then (n, Replayed)
    else
      match submit t seeds.(i) with
      | Replayed -> loop (i + 1)
      | Vm_crashed _ as out -> (i, out)
  in
  let result =
    match loop 0 with
    | r -> r
    | exception e ->
        (* A hypervisor panic mid-replay must not leave the phase span
           open. *)
        (match probe t with
        | None -> ()
        | Some p ->
            Iris_telemetry.Probe.unwind p ~now:(now t);
            Iris_telemetry.Tracer.end_span
              (Iris_telemetry.Probe.hub p).Iris_telemetry.Hub.tracer
              ~name:"replay" ~ts:(now t));
        raise e
  in
  (match probe t with
  | None -> ()
  | Some p ->
      Iris_telemetry.Probe.unwind p ~now:(now t);
      Iris_telemetry.Tracer.end_span
        (Iris_telemetry.Probe.hub p).Iris_telemetry.Hub.tracer ~name:"replay"
        ~args:[ ("submitted", string_of_int (fst result)) ]
        ~ts:(now t));
  result

let batch_overhead_cycles = 70_000

let submit_batch t seeds =
  (* One hypercall stages the whole buffer: copy_from_guest of
     [total seed bytes], then the replay loop consumes seeds without
     further manager round trips. *)
  let bytes =
    Array.fold_left (fun acc s -> acc + Seed.size_bytes s) 0 seeds
  in
  charge t (batch_overhead_cycles + (bytes / 16));
  t.batched <- true;
  let result = submit_all t seeds in
  t.batched <- false;
  result
