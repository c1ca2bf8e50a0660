(** Array-based binary min-heap: the reference the event queue
    ({!Wheel}) is checked and measured against ({!Sim.create_reference}). *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit
val peek : 'a t -> 'a option
val pop : 'a t -> 'a option
