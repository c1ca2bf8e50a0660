(** DPOR-style systematic schedule exploration.

    Where {!Race} samples seeded shuffles, this module enumerates: the
    scenario runs under the engine's [`Controlled] tie-break, every
    same-timestamp tie becomes an explicit decision point, and a
    stateless depth-first search executes every schedule in the bounded
    space exactly once — skipping alternatives it can prove equivalent
    by footprint independence (sleep-set-flavoured pruning over the
    happens-before tracker's per-task sync footprints) and deduplicating
    end states by fingerprint.

    A schedule is named by its decision prefix in sparse form
    ("29:1,38:2": at decision points 29 and 38 take alternatives 1 and
    2, FIFO — index 0 — everywhere else; "fifo" is the empty prefix),
    so every finding replays deterministically. Scenarios opt in via
    {!Scenarios.bound}: micro fixtures use an unbounded preemption cap
    and get a genuine exhaustiveness proof ("all N schedules"); protocol
    scenarios bound preemptions (every schedule within P deviations of
    FIFO — the CHESS regime) and the verdict reports that coverage
    honestly, never claiming more than was run. *)

type finding =
  | Divergent of string  (** first differing fingerprint line *)
  | Violating of string  (** first invariant violation, rendered *)
  | Deadlocked of Deadlock.report

type flagged = {
  fl_schedule : string;
      (** schedule id — feed to [--replay-schedule] / {!replay} *)
  fl_finding : finding;
  fl_preemptions : int;
}

type stats = {
  st_runs : int;
  st_decision_points : int;
  st_max_depth : int;
  st_pruned : int;  (** alternatives proven schedule-equivalent, skipped *)
  st_capped : int;  (** alternatives beyond the preemption cap *)
  st_truncated : int;  (** frontier abandoned at run-budget exhaustion *)
  st_distinct_states : int;  (** distinct end-state fingerprints *)
  st_exhaustive : bool;
      (** the full tree was enumerated (nothing capped or truncated) *)
}

type verdict = {
  e_scenario : Scenarios.t;
  e_baseline : Scenarios.outcome;  (** the all-defaults (FIFO) schedule *)
  e_flagged : flagged list;
  e_pairs : Hb.pair list;
      (** racing pairs from the first flagged schedule — the two
          conflicting operations the divergence hinged on *)
  e_stats : stats;
}

val explore :
  ?max_runs:int ->
  ?max_preemptions:int ->
  Scenarios.t ->
  verdict
(** Systematically explore one scenario. Defaults come from the
    scenario's {!Scenarios.bound}; raises [Invalid_argument] if the
    scenario has none ([sc_bound = None]). Uses the global sim creation
    hook, so explorations must not nest. *)

val clean : verdict -> bool
val flagged : verdict -> bool

val replay :
  Scenarios.t ->
  schedule:string ->
  Scenarios.outcome * Hb.pair list
(** Re-run exactly one schedule by id (deterministic reproduction of an
    explorer finding), returning its outcome and the racing pairs
    observed along it. *)

val schedule_id : int array -> string
val parse_schedule_id : string -> int array option

val render : ?verbose:bool -> verdict -> string
(** Coverage line (exhaustive vs bounded, schedule and state counts)
    plus flagged schedules, racing pairs, and the replay hint. *)
