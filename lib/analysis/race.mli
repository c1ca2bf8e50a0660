(** Schedule-perturbation race detector.

    Runs a scenario once under FIFO same-timestamp dispatch (the
    baseline) and [seeds] more times under seeded-shuffled dispatch
    ({!Uls_engine.Sim.set_tiebreak}), then compares final-state
    fingerprints and collects invariant violations and deadlock reports.
    The perturbation model reorders {e same-timestamp} tasks only —
    event timestamps never move — so it explores exactly the
    nondeterminism a real scheduler is allowed, and every finding
    replays deterministically from its seed. *)

type run = {
  r_seed : int option;  (** [None] is the FIFO baseline *)
  r_outcome : Scenarios.outcome;
}

type verdict = {
  v_scenario : Scenarios.t;
  v_baseline : run;
  v_perturbed : run list;
  v_divergent : (int * string) list;
      (** seeds whose fingerprint differs from the baseline, with the
          first differing fingerprint line *)
  v_violating : (int * string) list;
      (** seeds that recorded invariant violations ([-1] = baseline),
          with the first violation *)
  v_deadlocked : int list;
      (** seeds whose run left non-daemon fibers parked *)
}

val run_scenario : ?seeds:int -> Scenarios.t -> verdict
(** Default 16 perturbed runs (seeds [0 .. 15]). *)

val run_until_flagged : ?max_seeds:int -> Scenarios.t -> verdict
(** Like {!run_scenario} but stops adding seeds as soon as the verdict
    is {!flagged} — the smoke-mode driver for buggy fixtures, which only
    need one catching seed. *)

val clean : verdict -> bool
(** No divergence, no violations, no deadlock — what every clean
    scenario must satisfy. *)

val flagged : verdict -> bool
(** [not (clean v)] — what every buggy fixture must satisfy (the
    detector still catches it). *)

val replay : Scenarios.t -> seed:int -> Scenarios.outcome
(** Re-run one scenario under one seed (deterministic reproduction). *)

val render : ?verbose:bool -> verdict -> string
