(** Per-node operating-system model: traps, interrupts, scheduler wake
    latency, and the page-pinning path with its translation cache (EMP
    §2: the first descriptor post for a memory area pays a system call to
    translate and pin; later posts hit the cache and bypass the OS). *)

type t

val create : Uls_engine.Sim.t -> Cost_model.t -> t

val syscall : t -> unit
(** Trap + return cost, charged to the calling fiber. *)

val interrupt : t -> unit
(** Interrupt entry/dispatch cost (rx path fibers pay this). *)

val context_switch : t -> unit

val wakeup_latency : t -> Uls_engine.Time.ns
(** Delay between an event completing and a process blocked on it
    actually running again. *)

val pin_region : t -> Memory.region -> off:int -> len:int -> unit
(** Translate-and-pin for a descriptor post. First use of a region pays
    the pin system call (per covered page); later uses hit the
    translation cache for free. *)

val prepin : t -> Memory.region -> unit
(** Setup-time registration: enter a region into the translation cache
    without charging the pin cost. Used for buffers registered during
    connection establishment, outside any timed path. *)

val take_region : t -> int -> Memory.region
(** A registered region of exactly [size] bytes from the node's pool:
    one given back earlier, zero-filled so it reads like a fresh one, or
    else a new region pinned now. Either way it is in the translation
    cache, without charging the pin: the library registers its buffers
    once, outside any timed path (EMP §2). *)

val give_region : t -> Memory.region -> unit
(** Return a region taken with {!take_region}. The caller must be sure
    nothing can still touch it: no posted descriptor, no transfer in
    flight, no fiber about to read it. The pool holds it weakly: if no
    take reuses it before the next major collection, the GC reclaims
    it, so a finished run whose cluster is still referenced does not
    keep its connections' buffers. *)

val pinned_regions : t -> int
(** Regions in the translation cache outside the pool's free lists:
    taken and not given back (by a live buffer, or leaked), or pinned
    by a post. With the pool recycling regions, this stays flat across
    connection churn. *)

val translation_cache_hits : t -> int
val translation_cache_misses : t -> int
val flush_translation_cache : t -> unit
val syscalls_made : t -> int
