(** Ring of reusable, registered send buffers. The real substrate
    transmits from user/library buffers that are pinned once and hit the
    EMP translation cache afterwards (§2); modelling each message as a
    fresh region would charge a pin system call per send. A slot is
    reused once its previous send has been fully acknowledged. *)

type t

val create :
  Uls_host.Node.t -> Uls_emp.Endpoint.t -> slots:int -> size:int -> t
(** Take [slots] ring buffers of [size] bytes each from the node's
    registered pool ({!Uls_host.Os.take_region}). *)

val release : t -> unit
(** The pool's owner is gone (connection closed or reset); no further
    send may be staged on it. Once every posted send has settled
    (acknowledged or failed) and no writer still holds a slot, the
    buffers go back to the node's pool and the pool leaves the leak
    scan's registry — at once, or on a later release in the same
    simulation. Idempotent. *)

val slot_size : t -> int

val slots : t -> int
(** Number of ring slots (batch staging must flush before wrapping). *)

type slot

val stage :
  t ->
  dst:int ->
  tag:int ->
  string ->
  slot * (int * int * Uls_host.Memory.region * int * int)
(** Claim the next ring slot and copy the payload in without posting,
    returning the slot and the [(dst, tag, region, off, len)] spec for
    {!Uls_emp.Endpoint.post_sendv}. Blocks only when the ring wraps onto
    a send that is still in flight. The blit is free of simulated cost:
    it models the application reusing its own (already pinned) buffer,
    not an extra protocol copy. Pair with {!commit} once the batch is
    posted, or {!abandon} if it never is.
    @raise Invalid_argument when the payload exceeds {!slot_size}. *)

val send : t -> dst:int -> tag:int -> string -> Uls_emp.Endpoint.send
(** {!stage} one payload and post it at once
    ({!Uls_emp.Endpoint.post_send}). *)

val commit : slot list -> Uls_emp.Endpoint.send list -> unit
(** Record the posted sends against their staged slots (same order), so
    later slot reuse waits for them. *)

val abandon : slot list -> unit
(** Hand staged slots back without posting them: the batch raised
    before its flush. Without this a writer's claim would keep a
    released pool from ever settling. *)

val in_flight : t -> int
(** Slots whose send is neither acknowledged nor failed. At quiescence a
    non-zero count means acknowledgments can no longer arrive — the
    memory-region leak sanitizer flags it. *)

val pools_for_sim : Uls_engine.Sim.t -> t list
(** The pools of this simulation that can still leak, newest first (for
    the leak scan): every pool not yet released, and every released one
    with a send unsettled or a slot a writer still holds. Held in a
    {!Uls_engine.Sim_table}: when the sim is collected, its pools go
    too. *)

val registered_sims : unit -> int
(** Number of live sims with a pool (dead entries swept first). *)
