type flow = {
  f_tenant : string;
  mutable f_deficit : int;
  mutable f_queue : int list;  (* head = next to run *)
}

type t = {
  q : int;
  mutable flows : flow list;  (* sorted by tenant name *)
  mutable cursor : int;       (* rotation start into [flows] *)
  mutable rounds : int;
  weights : (int, int) Hashtbl.t;        (* job id -> weight *)
  tenants : (int, string) Hashtbl.t;     (* job id -> tenant *)
  deferred : (int, int) Hashtbl.t;       (* job id -> eligible round *)
  inflight : (int, unit) Hashtbl.t;
}

let create ?(quantum = 256) () =
  { q = max 1 quantum;
    flows = [];
    cursor = 0;
    rounds = 0;
    weights = Hashtbl.create 16;
    tenants = Hashtbl.create 16;
    deferred = Hashtbl.create 16;
    inflight = Hashtbl.create 16 }

let find_flow t tenant = List.find_opt (fun f -> f.f_tenant = tenant) t.flows

let flow_of t tenant =
  match find_flow t tenant with
  | Some f -> f
  | None ->
      let f = { f_tenant = tenant; f_deficit = 0; f_queue = [] } in
      t.flows <-
        List.sort (fun a b -> compare a.f_tenant b.f_tenant) (f :: t.flows);
      f

let submit t ~id ~tenant ~weight =
  let f = flow_of t tenant in
  f.f_queue <- f.f_queue @ [ id ];
  Hashtbl.replace t.weights id (max 1 weight);
  Hashtbl.replace t.tenants id tenant

let forget t id =
  Hashtbl.remove t.weights id;
  Hashtbl.remove t.tenants id;
  Hashtbl.remove t.deferred id

let cancel t id =
  match Hashtbl.find_opt t.tenants id with
  | None -> false
  | Some _ when Hashtbl.mem t.inflight id -> false
  | Some tenant -> (
      match find_flow t tenant with
      | None -> false
      | Some f ->
          let before = List.length f.f_queue in
          f.f_queue <- List.filter (fun j -> j <> id) f.f_queue;
          let removed = List.length f.f_queue < before in
          if removed then forget t id;
          removed)

let defer t id ~rounds = Hashtbl.replace t.deferred id (t.rounds + max 1 rounds)

let eligible t id =
  match Hashtbl.find_opt t.deferred id with
  | Some until -> until <= t.rounds
  | None -> true

(* An idle flow forfeits its deficit (classic DRR: credit must not
   accumulate while there is nothing to send). *)
let deficit_cap t w = 4 * t.q * w

let next t ~max:max_picks =
  t.rounds <- t.rounds + 1;
  let flows = Array.of_list t.flows in
  let n = Array.length flows in
  let picks = ref [] in
  let picked = ref 0 in
  if n > 0 then begin
    let start = t.cursor mod n in
    (try
       for k = 0 to n - 1 do
         if !picked >= max_picks then raise Exit;
         let f = flows.((start + k) mod n) in
         match List.find_opt (eligible t) f.f_queue with
         | None -> if f.f_queue = [] then f.f_deficit <- 0
         | Some id ->
             let w =
               match Hashtbl.find_opt t.weights id with
               | Some w -> w
               | None -> 1
             in
             f.f_deficit <- min (f.f_deficit + (t.q * w)) (deficit_cap t w);
             f.f_queue <- List.filter (fun j -> j <> id) f.f_queue;
             Hashtbl.replace t.inflight id ();
             picks := (id, max 1 f.f_deficit) :: !picks;
             incr picked
       done
     with Exit -> ());
    t.cursor <- (start + 1) mod n
  end;
  List.rev !picks

let complete t ~id ~consumed ~finished =
  Hashtbl.remove t.inflight id;
  (match Hashtbl.find_opt t.tenants id with
  | None -> ()
  | Some tenant -> (
      match find_flow t tenant with
      | None -> ()
      | Some f ->
          f.f_deficit <- max 0 (f.f_deficit - consumed);
          if not finished then f.f_queue <- id :: f.f_queue));
  if finished then forget t id

let round t = t.rounds

let pending t = List.concat_map (fun f -> f.f_queue) t.flows

let in_flight t =
  Hashtbl.fold (fun id () acc -> id :: acc) t.inflight [] |> List.sort compare

let is_idle t = pending t = [] && Hashtbl.length t.inflight = 0
