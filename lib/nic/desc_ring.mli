(** Per-connection descriptor ring: a growable circular FIFO holding the
    posted descriptors of one match key, so the hashed match engine pays
    O(1) per lookup instead of walking every connection's descriptors.
    Descriptors removed through the global match list are tombstoned
    ([dead] answers true) and reaped when they reach the head, or all at
    once by {!sweep}. *)

type 'a t

val create : dead:('a -> bool) -> unit -> 'a t
val length : 'a t -> int
(** Raw occupancy, dead entries not yet reaped included. *)

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Append at the tail (post order = FIFO match order). *)

val peek : 'a t -> 'a option
(** The oldest live entry, reaping dead heads first. *)

val pop : 'a t -> 'a option
(** Remove and return the oldest live entry. *)

val sweep : 'a t -> unit
(** Drop every dead entry, not just dead heads, keeping the live ones in
    order. O(occupancy). *)

val clear : 'a t -> unit
