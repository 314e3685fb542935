module Replayer = Iris_core.Replayer
module Seed = Iris_core.Seed
module Checkpoint = Iris_hv.Checkpoint

type t = {
  rep : Replayer.t;
  seeds : Seed.t array;
  every : int;
  cps : Checkpoint.t;
  marks : Checkpoint.mark option array;
      (** slot [k] holds the mark at position [k * every]; the stack is
          contiguous from 0, so only the first [Checkpoint.depth cps]
          slots are live *)
  mutable position : int;
  mutable finished : bool;
  mutable crashed_at : (int * string) option;
  mutable seeds_forward : int;
  mutable reverts : int;
}

(* A mark captures the state *before* seed [position] runs.  After a
   rewind the target mark stays live, so the forward replay only
   pushes at multiples of [every] above the live stack. *)
let submit_one t =
  let p = t.position in
  if p mod t.every = 0 && p / t.every = Checkpoint.depth t.cps then
    t.marks.(p / t.every) <- Some (Checkpoint.push t.cps);
  t.position <- p + 1;
  t.seeds_forward <- t.seeds_forward + 1;
  Replayer.submit t.rep t.seeds.(p)

let start ?(every = 64) ~replayer ~seeds () =
  if every <= 0 then invalid_arg "Session.start: every must be positive";
  let n = Array.length seeds in
  let t =
    { rep = replayer;
      seeds;
      every;
      cps = Checkpoint.start (Replayer.ctx replayer).Iris_hv.Ctx.dom;
      marks = Array.make ((n + every - 1) / every) None;
      position = 0;
      finished = false;
      crashed_at = None;
      seeds_forward = 0;
      reverts = 0 }
  in
  (* Detection pass: uninstrumented, full speed, marks every [every]
     seeds.  Stops at a crash — positions beyond it don't exist. *)
  let rec loop () =
    if t.position < n then
      match submit_one t with
      | Replayer.Replayed -> loop ()
      | Replayer.Vm_crashed msg -> t.crashed_at <- Some (t.position - 1, msg)
  in
  loop ();
  t

let length t = Array.length t.seeds

let every t = t.every

let position t = t.position

let crashed_at t = t.crashed_at

let replayer t = t.rep

let limit t =
  match t.crashed_at with
  | Some (c, _) -> c
  | None -> Array.length t.seeds

let goto t i =
  if t.finished then invalid_arg "Session.goto: session finished";
  if i < 0 || i > limit t then
    invalid_arg
      (Printf.sprintf "Session.goto: position %d outside reachable 0..%d" i
         (limit t));
  if i < t.position then begin
    (* Every multiple of [every] below the position has a live mark. *)
    let k = i / t.every in
    t.reverts <- t.reverts + 1;
    ignore (Checkpoint.rewind t.cps (Option.get t.marks.(k)));
    t.position <- k * t.every
  end;
  let rec forward () =
    let p = t.position in
    if p < i then
      match submit_one t with
      | Replayer.Replayed -> forward ()
      | Replayer.Vm_crashed msg ->
          (* Replay is deterministic: a crash strictly below the known
             crash boundary means the marks were tampered with. *)
          t.crashed_at <- Some (p, msg);
          invalid_arg
            (Printf.sprintf
               "Session.goto: unexpected crash at seed %d (%s) before \
                position %d"
               p msg i)
  in
  forward ()

let vmread t f = Iris_hv.Access.vmread_raw (Replayer.ctx t.rep) f

let reverse_continue_to ?access t prov f =
  match Provenance.last_touch_before ?access prov f (position t) with
  | None -> None
  | Some touch ->
      goto t touch.Provenance.t_index;
      Some touch

let seeds_forward t = t.seeds_forward

let reverts t = t.reverts

let checkpoints t = Checkpoint.depth t.cps

(* Innermost first: [Checkpoint.pop] only accepts the innermost live
   mark. *)
let finish t =
  for k = Checkpoint.depth t.cps - 1 downto 0 do
    Checkpoint.pop t.cps (Option.get t.marks.(k))
  done;
  t.finished <- true
