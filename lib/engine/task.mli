(** The event-queue cell of {!Sim}: a task scheduled at [time].

    Cells are mutable and pooled: dispatch recycles a cell onto the
    sim's free list (linked through [free_next]) and drops its closure.
    Dispatch order is (time, pri, seq), a total order since [seq] is
    unique per scheduled task. *)

type t = {
  mutable time : Time.ns;
  mutable pri : int;  (** tie-break priority among same-timestamp tasks *)
  mutable seq : int;  (** scheduling order *)
  mutable run : unit -> unit;
  mutable free_next : t;
}

val nop : unit -> unit

val dummy : t
(** Free-list terminator, filler for vacated queue slots, and the
    "empty" result of {!Wheel.peek} and {!Wheel.pop}. *)

val make : time:Time.ns -> pri:int -> seq:int -> (unit -> unit) -> t

val before : t -> t -> bool
(** [before a b]: [a] dispatches strictly before [b]. *)

val compare : t -> t -> int
(** The same order as a comparator. *)
