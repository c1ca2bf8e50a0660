(** The invariant suite: closed workloads the race detector perturbs.

    Each scenario builds its own cluster with a chosen same-timestamp
    tie-break policy, enables the invariant monitors, drives a workload
    to quiescence, runs the end-of-run sanitizers, and captures the
    final-state fingerprint. A {e clean} scenario must produce the same
    fingerprint, zero violations, and no deadlock under every tie-break;
    a {e buggy} fixture encodes a known bug class (re-introduced
    deliberately) that the detector must keep catching. *)

type tiebreak = Uls_engine.Sim.tiebreak_spec
(** [`Fifo], [`Seeded_shuffle seed] (the sampling detector), or
    [`Controlled choose] (the systematic explorer's instrument — see
    {!Uls_engine.Sim.set_tiebreak}). *)

type outcome = {
  fingerprint : Fingerprint.t;
  violations : Uls_engine.Invariant.violation list;
      (** everything the in-line monitors and sanitizers recorded *)
  deadlock : Deadlock.report option;
  leaks : Sanitizer.finding list;
  stop : [ `Quiescent | `Time_limit | `Stopped ];
}

type bound = {
  b_runs : int;  (** explorer schedule budget *)
  b_preemptions : int;
      (** max deviations from FIFO per schedule; [max_int] lets the
          explorer drain the whole tree and claim exhaustiveness *)
  b_run : (tiebreak -> outcome) option;
      (** reduced-size variant of the workload for exploration (each of
          hundreds of schedules re-runs the scenario); [None] explores
          [sc_run] itself *)
}
(** A scenario's opt-in to systematic exploration ({!Explore}). *)

type t = {
  sc_name : string;
  sc_descr : string;
  sc_buggy : bool;
      (** fixtures the detector must flag (CI fails if it stops catching
          them) *)
  sc_run : tiebreak -> outcome;
  sc_bound : bound option;
      (** [None]: the scenario is not explorable (e.g. fabric-churn,
          whose fleet driver owns its own sim) and [races --explore]
          skips it *)
}

val clean_suite : t list
(** Scenarios that must stay schedule-independent: streaming echo under
    credit flow control, datagram rendezvous from concurrent clients,
    connection churn, the raw-EMP grant protocol with per-request
    routing, and fleet arrivals over the sharded serving fabric (ring
    placement + completion counts fingerprinted from the fleet
    report). *)

val buggy_suite : t list
(** Seeded regressions: the PR 2 shared-grant-queue bug re-introduced in
    a raw-EMP fixture, and a lost-wakeup fixture whose deadlock exists
    on exactly one of two schedules (the explorer's exhaustive-proof
    demo). *)

val all : t list

val find : string -> t option
