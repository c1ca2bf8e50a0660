(** Event-core throughput benchmark: events/sec through {!Uls_engine.Sim}
    on synthetic timer workloads shaped like the real benchmarks
    (pingpong, serve-512, fabric at 4096 and 65536 connections), run on
    the simulator's timing wheel and on the reference binary heap
    ({!Uls_engine.Sim.create_reference}) it is measured against.

    Each shape is a pure-engine workload — no protocol stack — so the
    measurement isolates queue cost: every connection runs a fixed number
    of request cycles, each cycle arming a stale retransmission timer
    the way a real stack does, so the standing timer population scales
    with connection count (the regime where the binary heap pays
    O(log n) per operation and the timing wheel does not). Fabric shapes
    additionally arm far-future idle/lease timers that land in the
    wheel's top levels and overflow heap.

    The event structure is a pure function of the shape, so [events] is
    deterministic and identical across schedulers (dispatch parity);
    only [elapsed_s] and [events_per_sec] depend on the machine. *)

type sched = [ `Heap | `Wheel ]

type shape = {
  sh_name : string;
  sh_conns : int;
  sh_cycles : int;  (** request cycles per connection *)
  sh_timeout : Uls_engine.Time.ns;
      (** stale-timer horizon per cycle; with the cycle period this sets
          the standing queue population *)
  sh_far : bool;  (** arm far-future idle/lease timers (top wheel levels) *)
}

val shapes : shape list
(** pingpong, serve-512, fabric-4096, fabric-65536. *)

type row = {
  scenario : string;
  conns : int;
  sched : sched;
  events : int;  (** {!Uls_engine.Sim.events_executed} — deterministic *)
  elapsed_s : float;  (** process CPU seconds *)
  events_per_sec : float;
  minor_words_per_event : float;
      (** [Gc.minor_words] gained across the run divided by events
          dispatched. The steady-state cost is the per-cycle closures the
          workload itself arms; the dispatch loop contributes nothing, so
          a rise here means the engine hot path started allocating (the
          allocation-sanitizer gate in [engine --check] enforces a
          ceiling). *)
}

val samples : int
(** 5 *)

val run_all : unit -> row list
(** Every shape as {!samples} interleaved heap/wheel pairs, so a slow
    phase of a shared host lands on both halves of a pair. *)

val median_by : ('a -> float) -> 'a list -> 'a
(** The element with the median key; the lower middle of an even
    count. Raises on an empty list. *)

type summary = {
  shape : shape;
  pairs : (row * row) list;  (** (heap, wheel), the k-th of each *)
  heap : row;  (** the median pair by wheel/heap speedup *)
  wheel : row;
  lo : float;  (** speedup spread over the pairs *)
  hi : float;
}

val summarize : row list -> summary list

val to_record : row -> Record.t
(** The row as its [BENCH_engine.json] record. *)

val check :
  file:string -> (Record.t list, string) result -> row list -> string list
(** The [engine --check] gates over a {!run_all} result and the records
    read from the baseline [file], as failure messages (none = pass):
    heap/wheel event-count parity in every pair, at most 14.0 minor
    words per dispatched event on every row, and against the baseline an
    event count equal to the baseline's on every row. The wall-clock
    gates read each shape's median pair ({!summarize}): a fabric-65536
    wheel at least 2x the heap's events/sec, and per shape a wheel/heap
    speedup at least 0.8x the baseline's. A baseline that failed to
    read, or lacks a record the gates need, is a failure. *)
