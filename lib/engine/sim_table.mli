(** Per-simulation side tables.

    Layers that keep one value per simulation (metrics registry, trace,
    invariant monitor, send pools) hold it here instead of threading a
    handle through every constructor. Entries are ephemeron-keyed on the
    sim itself, so a collected simulation takes its entries with it.
    An ephemeron rather than a weak key: the stored values usually
    reference their sim. *)

type 'a t

val create : (Sim.t -> 'a) -> 'a t
(** A table whose entries are built on first use by the given function. *)

val get : 'a t -> Sim.t -> 'a
(** The sim's entry, created on first use. *)

val find : 'a t -> Sim.t -> 'a option
(** The sim's entry if it has one; never creates. *)

val live : 'a t -> int
(** Number of live sims with an entry (dead entries swept first), so
    tests can assert a table does not leak across sims. *)
