module Comp = Iris_coverage.Component
module Cov = Iris_coverage.Cov

type source = Pt_pit | Pt_lapic | Pt_rtc

(* Timers are immutable: [process] replaces the ones that fire, so a
   copy or restore shares the list instead of rebuilding it.  Each
   source has at most one timer: [arm] replaces it and [disarm] drops
   it, and [next_deadline] is the earliest deadline over all sources.

   The [hit] probes below are coverage points keyed by [__LINE__]:
   moving one changes every recorded coverage set and digest, so an
   edit above them must keep the line count. *)
type timer = {
  src : source;
  vector : int;
  period : int64;
  deadline : int64;
}

type t = {
  cov : Cov.t;
  mutable timers : timer list;
}

let create ~cov = { cov; timers = [] }

let copy t = { t with timers = t.timers }

let restore t ~from = t.timers <- from.timers

let hit t line = Cov.hit t.cov Comp.Vpt_c line

let arm t ~source ~vector ~period_cycles ~now =
  assert (period_cycles > 0);
  hit t __LINE__;
  let timers = List.filter (fun tm -> tm.src <> source) t.timers in
  let period = Int64.of_int period_cycles in
  t.timers <-
    { src = source; vector; period; deadline = Int64.add now period }
    :: timers

let disarm t ~source =
  hit t __LINE__;
  t.timers <- List.filter (fun tm -> tm.src <> source) t.timers

let armed t source = List.exists (fun tm -> tm.src = source) t.timers

let next_deadline t =
  List.fold_left
    (fun acc tm ->
      match acc with
      | None -> Some tm.deadline
      | Some d -> Some (Int64.min d tm.deadline))
    None t.timers

(* [tm] as [process] at [now] leaves it: a timer that fired moves to
   its next deadline, any other is returned unchanged. *)
let tick t ~now tm =
  if tm.deadline > now then tm
  else begin
    hit t __LINE__;
    (* No-missed-ticks policy: skip whole periods we slept through,
       deliver one interrupt. *)
    let missed =
      Int64.div (Int64.sub now tm.deadline) tm.period
    in
    hit t __LINE__;
    if missed > 0L then hit t __LINE__;
    { tm with
      deadline =
        Int64.add tm.deadline (Int64.mul (Int64.add missed 1L) tm.period) }
  end

let process t ~now =
  if List.for_all (fun tm -> tm.deadline > now) t.timers then []
  else begin
    let fired = List.filter (fun tm -> tm.deadline <= now) t.timers in
    t.timers <- List.map (tick t ~now) t.timers;
    List.map (fun tm -> (tm.src, tm.vector)) fired
  end

let pending_intr t =
  let overdue =
    List.filter (fun tm -> tm.deadline <= Int64.max_int) t.timers
  in
  match
    List.sort (fun a b -> compare a.deadline b.deadline) overdue
  with
  | [] -> None
  | tm :: _ -> Some (tm.src, tm.vector)
