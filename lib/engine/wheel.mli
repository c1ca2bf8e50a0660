(** Hierarchical timing wheel of {!Task} cells with an exact
    extraction-order contract: the simulator's event queue.

    A calendar queue (Varghese & Lauck, "Hashed and Hierarchical Timing
    Wheels"): O(1) amortized insert and extract regardless of how many
    timers are pending, four levels of 256 slots each (a level-[l] slot
    spans [2^(8 + 8l)] ns), and an overflow heap for timers
    beyond the top level's range (RTO ceilings, fault windows) that
    migrates down as the cursor approaches.

    Extraction order is {e identical} to a binary heap over
    {!Task.compare}: every task whose time falls inside the current
    cursor slot sits in a near-future heap ordered by the full
    (time, pri, seq) key, so same-slot tasks — in particular
    same-timestamp tasks with tie-break priorities — dispatch in exactly
    that order. Tasks must never be inserted with a time earlier than
    the last extracted task's time (the simulator's
    no-scheduling-in-the-past rule); inserts earlier than the wheel's
    internal cursor but at or after the last extraction are routed into
    the near-future heap and order correctly.

    With [ULS_WHEEL_CHECK] set in the environment, every {!pop} checks
    its result against an exhaustive minimum over every resident task. *)

type t

exception Order_violation of string
(** Raised by {!pop} under [ULS_WHEEL_CHECK] on a misordered pop. *)

val create : unit -> t
(** An empty wheel: 256 ns level-0 slots, so the four levels span
    2^40 ns (~18 min) before the overflow heap takes over. *)

val push : t -> Task.t -> unit

val peek : t -> Task.t
(** The earliest task, or {!Task.dummy} when the wheel is empty. *)

val pop : t -> Task.t
(** Remove and return the earliest task, or {!Task.dummy} when the wheel
    is empty. After a {!peek} it removes exactly the task the peek
    returned, without walking the cursor again. *)
