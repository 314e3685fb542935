(** Multi-tenant deficit-round-robin job queue.

    Each tenant is a DRR flow (Shreedhar & Varghese, SIGCOMM '95):
    per scheduling round an eligible flow's deficit grows by
    [quantum x weight], and the flow may run its head job for up to
    that many test cases before yielding.  Consumed cases are charged
    back against the deficit, so over time each tenant's share of the
    domain pool is proportional to its weight regardless of job
    sizes.

    The queue is purely bookkeeping — deterministic given the
    submission sequence and the [next]/[complete] call pattern.  Flows
    are visited in tenant-name order from a rotating cursor; a job
    put back unfinished returns to the head of its flow (run-to-
    completion FIFO within a tenant). *)

type t

val create : ?quantum:int -> unit -> t
(** [quantum] is the base case budget per round (default 256). *)

val submit : t -> id:int -> tenant:string -> weight:int -> unit
(** Enqueue job [id] on [tenant]'s flow.  [weight] (>= 1) scales the
    flow's per-round deficit increment while this job is queued. *)

val cancel : t -> int -> bool
(** Remove a *queued* job; [false] if unknown or in flight (in-flight
    cancellation is the server's concern). *)

val defer : t -> int -> rounds:int -> unit
(** Backoff: make the job ineligible for the next [rounds] scheduling
    rounds (worker-panic containment). *)

val next : t -> max:int -> (int * int) list
(** Start a scheduling round: pick up to [max] eligible jobs, each
    paired with its case budget, and mark them in flight.  May return
    fewer (or none) when flows are empty or deferred. *)

val complete : t -> id:int -> consumed:int -> finished:bool -> unit
(** Report a picked job back: [consumed] cases are charged against
    its tenant's deficit; unless [finished], the job returns to the
    head of its flow. *)

val round : t -> int
(** Rounds started so far. *)

val pending : t -> int list
(** Queued (not in-flight) job ids, flow order. *)

val in_flight : t -> int list

val is_idle : t -> bool
(** No queued and no in-flight jobs. *)
