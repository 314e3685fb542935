(* Generic domain pool: the only place the libraries spawn domains.

   [run] executes [total] indexed tasks on [jobs] OCaml 5 domains.
   Each task is a pure function of its index (paper §VII: a test case
   depends only on S_R and its seed), so scheduling only has to hand
   out every index once: workers claim the next index from one shared
   atomic cursor until it passes [total].  Each worker owns opaque
   state built by [init] and writes each task's result into its own
   slot of a shared result array (distinct slots, one writer each:
   data-race free; the results become visible to the caller via the
   happens-before edge of [Domain.join]).  The orchestrator's workers
   own a fully isolated hypervisor + dummy VM; the campaign service
   runs one scheduling round's job quanta, one task per picked job.

   Panic containment: an exception escaping [task] does not take the
   campaign down.  The worker reports [on_crash exn index] as that
   task's result, rebuilds its universe with [init] (respawn), and
   keeps claiming indices.  An exception escaping [init] or
   [on_crash] itself is a harness bug and propagates out of [run].

   At most [total] workers start: one without an index to claim would
   only build its state.  Worker 0 runs on the calling domain and only
   workers 1..jobs-1 are spawned, so [jobs = 1] runs the whole schedule
   inline, in index order: a sequential run is the parallel machinery
   with N = 1, not a separate implementation. *)

type stats = {
  mutable executed : int;    (* tasks this worker completed *)
  mutable respawns : int;    (* times the worker state was rebuilt *)
}

let run (type w r) ~jobs ~total ~(init : int -> w)
    ~(task : w -> int -> r) ~(on_crash : exn -> int -> r) :
    r array * stats array =
  let jobs = max 1 (min jobs total) in
  let results : r option array = Array.make total None in
  let cursor = Atomic.make 0 in
  let stats = Array.init jobs (fun _ -> { executed = 0; respawns = 0 }) in
  let worker w =
    let st = stats.(w) in
    let state = ref (init w) in
    let rec loop () =
      let i = Atomic.fetch_and_add cursor 1 in
      if i < total then begin
        let r =
          match task !state i with
          | r -> r
          | exception e ->
              let r = on_crash e i in
              state := init w;
              st.respawns <- st.respawns + 1;
              r
        in
        st.executed <- st.executed + 1;
        results.(i) <- Some r;
        loop ()
      end
    in
    loop ()
  in
  let spawned =
    Array.init (jobs - 1) (fun k -> Domain.spawn (fun () -> worker (k + 1)))
  in
  let failed = ref (match worker 0 with () -> None | exception e -> Some e) in
  (* Join every spawned worker whatever worker 0 did; the first
     exception, worker 0's before the others', propagates. *)
  Array.iter
    (fun d ->
      match Domain.join d with
      | () -> ()
      | exception e -> if Option.is_none !failed then failed := Some e)
    spawned;
  Option.iter raise !failed;
  (* The cursor hands out every index below [total] once, so when no
     worker raised every slot is set. *)
  (Array.map Option.get results, stats)
