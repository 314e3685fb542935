(* Generic work-stealing domain pool: the only place the libraries
   spawn domains.

   [run] executes [total] indexed tasks on [jobs] OCaml 5 domains.
   Each worker owns opaque state built by [init] and writes each
   task's result into its own slot of a shared result array (distinct
   slots, one writer each: data-race free; the results become visible
   to the caller via the happens-before edge of [Domain.join]).  The
   orchestrator's workers own a fully isolated hypervisor + dummy VM;
   the campaign service runs one scheduling round's job quanta, one
   task per picked job.

   Panic containment: an exception escaping [task] does not take the
   campaign down.  The worker reports [on_crash exn index] as that
   task's result, rebuilds its universe with [init] (respawn), and
   keeps draining the queue.  An exception escaping [init] or
   [on_crash] itself is a harness bug and propagates out of [run].

   [jobs = 1] runs the whole schedule inline on the calling domain —
   same code path, no spawn — so a sequential run is the parallel
   machinery with N = 1, not a separate implementation. *)

type stats = {
  mutable executed : int;    (* tasks this worker completed *)
  mutable steals : int;      (* chunks stolen from other deques *)
  mutable respawns : int;    (* times the worker state was rebuilt *)
  mutable busy_seconds : float;  (* host wall time inside [task] *)
}

let run (type w r) ~jobs ~total ~(init : int -> w)
    ~(task : w -> int -> r) ~(on_crash : exn -> int -> r) :
    r array * stats array * int array =
  let jobs = max 1 jobs in
  let results : r option array = Array.make total None in
  let who = Array.make total (-1) in
  let sched = Shard.create ~total ~workers:jobs in
  let stats =
    Array.init jobs (fun _ ->
        { executed = 0; steals = 0; respawns = 0; busy_seconds = 0.0 })
  in
  let worker w =
    let st = stats.(w) in
    let state = ref (init w) in
    let run_one i =
      let t0 = Unix.gettimeofday () in
      let r =
        match task !state i with
        | r -> r
        | exception e ->
            let r = on_crash e i in
            state := init w;
            st.respawns <- st.respawns + 1;
            r
      in
      st.busy_seconds <- st.busy_seconds +. (Unix.gettimeofday () -. t0);
      st.executed <- st.executed + 1;
      results.(i) <- Some r;
      who.(i) <- w
    in
    let rec loop () =
      match Shard.take sched w with
      | Shard.Empty -> ()
      | Shard.Own i -> run_one i; loop ()
      | Shard.Stolen i ->
          st.steals <- st.steals + 1;
          run_one i;
          loop ()
    in
    loop ()
  in
  if jobs = 1 then worker 0
  else begin
    let domains = Array.init jobs (fun w -> Domain.spawn (fun () -> worker w)) in
    Array.iter Domain.join domains
  end;
  (* [Shard] hands out every index once and [Domain.join] re-raises a
     worker's uncaught exception, so after the joins every slot is set. *)
  (Array.map Option.get results, stats, who)
