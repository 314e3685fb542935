(* Layer spans for the traced run.

   The benchmark brackets each of its own calls into a library layer
   with [enter]/[leave].  Every span's self time (its duration minus
   the part its child spans cover) is summed per layer on the fly, so
   per-layer totals stay exact however many spans are taken.  The
   spans themselves (layer, start, stop, parent, request id) go to a
   buffer allocated once at start-up and written out at exit; spans
   past its capacity are counted but not kept.  Only the main domain
   records spans. *)

let layer_names = ref [||]

let layer name =
  let id = Array.length !layer_names in
  layer_names := Array.append !layer_names [| name |];
  id

let name l = !layer_names.(l)

(* The layers, named after the library function the span brackets. *)
let manager_record = layer "manager.record"
let trace_encode = layer "trace.encode"
let trace_decode = layer "trace.decode"
let manager_replay = layer "manager.replay"
let manager_make_dummy = layer "manager.make_dummy"
let replayer_submit = layer "replayer.submit"
let checkpoint_rewind = layer "checkpoint.rewind"
let cov_span = layer "cov.span"
let mutation_apply = layer "mutation.apply"
let campaign_plan = layer "campaign.plan"
let campaign_anchor = layer "campaign.anchor"
let campaign_execute_case = layer "campaign.execute_case"
let campaign_finalize = layer "campaign.finalize"
let orchestrator_boot_universe = layer "orchestrator.boot_universe"
let corpus_admit_plan = layer "corpus.admit_plan"
let provenance_build = layer "provenance.build"
let provenance_devices = layer "provenance.devices"
let triage_note = layer "triage.note"
let bisect_minimize = layer "bisect.minimize"

let layers () = List.init (Array.length !layer_names) Fun.id

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let self_ns = Array.make (Array.length !layer_names) 0
let calls = Array.make (Array.length !layer_names) 0

(* Open spans, innermost at [depth - 1]. *)
let max_depth = 16
let depth = ref 0
let st_layer = Array.make max_depth 0
let st_start = Array.make max_depth 0
let st_child = Array.make max_depth 0
let st_slot = Array.make max_depth (-1)

let capacity = 1 lsl 18
let b_layer = Array.make capacity 0
let b_start = Array.make capacity 0
let b_stop = Array.make capacity 0
let b_parent = Array.make capacity (-1)
let b_req = Array.make capacity 0
let used = ref 0
let dropped = ref 0

(* The request (campaign case or service job) spans are charged to. *)
let request = ref 0

(* When off, [enter]/[leave] do nothing: the same code then runs as its
   own untraced baseline.  Flip it only outside every span. *)
let active = ref true

let enter l =
  if !active then begin
    let d = !depth in
    let slot =
      if !used < capacity then begin
        let s = !used in
        used := s + 1;
        b_layer.(s) <- l;
        b_parent.(s) <- (if d > 0 then st_slot.(d - 1) else -1);
        b_req.(s) <- !request;
        s
      end
      else begin
        incr dropped;
        -1
      end
    in
    st_layer.(d) <- l;
    st_child.(d) <- 0;
    st_slot.(d) <- slot;
    depth := d + 1;
    st_start.(d) <- now_ns ()
  end

let leave () =
  if !active then begin
    let stop = now_ns () in
    let d = !depth - 1 in
    depth := d;
    let l = st_layer.(d) in
    let dur = stop - st_start.(d) in
    self_ns.(l) <- self_ns.(l) + dur - st_child.(d);
    calls.(l) <- calls.(l) + 1;
    if d > 0 then st_child.(d - 1) <- st_child.(d - 1) + dur;
    let s = st_slot.(d) in
    if s >= 0 then begin
      b_start.(s) <- st_start.(d);
      b_stop.(s) <- stop
    end
  end

let span l f =
  enter l;
  match f () with
  | v ->
      leave ();
      v
  | exception e ->
      leave ();
      raise e

let reset_totals () =
  Array.fill self_ns 0 (Array.length self_ns) 0;
  Array.fill calls 0 (Array.length calls) 0

(* Sum of every layer's self time: the traced time the layers explain. *)
let attributed_ns () = Array.fold_left ( + ) 0 self_ns

(* One line per kept span: layer, start ns, stop ns, parent span index
   (-1 at top level), request id. *)
let write path =
  let oc = open_out path in
  Printf.fprintf oc "# layer\tstart_ns\tstop_ns\tparent\trequest\n";
  for s = 0 to !used - 1 do
    Printf.fprintf oc "%s\t%d\t%d\t%d\t%d\n" (name b_layer.(s)) b_start.(s)
      b_stop.(s) b_parent.(s) b_req.(s)
  done;
  if !dropped > 0 then
    Printf.fprintf oc "# %d spans past the buffer capacity were not kept\n"
      !dropped;
  close_out oc
