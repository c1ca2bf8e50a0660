(* Tests for the analysis layer: invariant monitor mechanics, the three
   sanitizers against seeded known-bad scenarios, the deadlock
   diagnoser's wait-for report, and the schedule-perturbation race
   detector (clean scenario stays clean; the re-introduced
   shared-grant-queue bug is caught). *)
open Uls_engine
module Cluster = Uls_bench.Cluster
module Sub = Uls_substrate.Substrate
module Conn = Uls_substrate.Conn
module An = Uls_analysis

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let contains ~affix s =
  let n = String.length affix and l = String.length s in
  let rec go i = i + n <= l && (String.sub s i n = affix || go (i + 1)) in
  go 0

(* --- Sim accounting regression ----------------------------------------- *)

(* A suspend whose register function raises used to leave the fiber
   counted as blocked forever (stale [blocked] accounting). The fiber
   must be accounted dead, and the failure must escape as
   Fiber_failure. *)
let test_register_raises_accounting () =
  let sim = Sim.create () in
  Sim.spawn sim ~name:"boom" (fun () ->
      Sim.suspend sim ~label:"exploding-register" (fun _resume ->
          failwith "register exploded"));
  (match Sim.run sim with
  | exception Sim.Fiber_failure ("boom", Failure _) -> ()
  | exception e -> raise e
  | (_ : [ `Quiescent | `Time_limit | `Stopped ]) ->
    Alcotest.fail "expected Fiber_failure out of run");
  check_int "no stale blocked fiber" 0 (Sim.blocked_fibers sim);
  check_int "no parked entries" 0 (List.length (Sim.blocked_report sim));
  (* The simulator survives: later fibers still run. *)
  let ran = ref false in
  Sim.spawn sim ~name:"after" (fun () -> ran := true);
  ignore (Sim.run sim);
  check_bool "sim still usable" true !ran

(* --- Invariant monitor mechanics --------------------------------------- *)

let test_invariant_disabled_is_free () =
  let sim = Sim.create () in
  let inv = Invariant.create sim in
  let forced = ref false in
  Invariant.check inv ~name:"x" false (fun () ->
      forced := true;
      "detail");
  check_bool "detail not forced when disabled" false !forced;
  check_int "nothing recorded" 0 (Invariant.count inv)

let test_invariant_records_and_names () =
  let sim = Sim.create () in
  let inv = Invariant.create sim in
  Invariant.enable inv;
  Sim.spawn sim ~name:"offender" (fun () ->
      Sim.delay sim (Time.us 3);
      Invariant.check inv ~name:"test.rule" false (fun () -> "broke it"));
  ignore (Sim.run sim);
  match Invariant.violations inv with
  | [ v ] ->
    check_str "name" "test.rule" v.Invariant.v_name;
    check_str "fiber" "offender" v.Invariant.v_fiber;
    check_int "time" (Time.us 3) v.Invariant.v_time;
    check_str "detail" "broke it" v.Invariant.v_detail
  | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs)

let test_invariant_strict_raises () =
  let sim = Sim.create () in
  let inv = Invariant.create sim in
  Invariant.enable ~strict:true inv;
  match Invariant.check inv ~name:"strict.rule" false (fun () -> "boom") with
  | exception Invariant.Violation _ -> ()
  | () -> Alcotest.fail "strict mode must raise at the violation"

(* --- sanitizers against seeded known-bad scenarios ---------------------- *)

let connected_pair cluster =
  (* One established connection pair, both ends returned. *)
  let server = Cluster.substrate cluster 0 in
  let client = Cluster.substrate cluster 1 in
  let sconn = ref None and cconn = ref None in
  let sim = Cluster.sim cluster in
  Sim.spawn sim ~name:"pair-server" (fun () ->
      let l = Sub.listen server ~port:80 ~backlog:1 in
      let conn, _ = Sub.accept server l in
      sconn := Some conn;
      Sub.close_listener server l);
  Sim.spawn sim ~name:"pair-client" (fun () ->
      Sim.delay sim (Time.us 10);
      cconn := Some (Sub.connect client { Uls_api.Sockets_api.node = 0; port = 80 }));
  ignore (Cluster.run cluster);
  (Option.get !sconn, Option.get !cconn)

let find_check name findings =
  List.filter (fun f -> f.An.Sanitizer.f_check = name) findings

let test_sanitizer_descriptor_leak () =
  let cluster = Cluster.create ~n:2 () in
  let sim = Cluster.sim cluster in
  Invariant.enable (Invariant.for_sim sim);
  let sconn, cconn = connected_pair cluster in
  Sim.spawn sim ~name:"leaker" (fun () ->
      Conn.close cconn;
      Conn.close sconn;
      (* Re-post one receive slot on the closed server conn: the bug this
         scan exists to catch (close missing an unpost). *)
      Conn.debug_leak_slot sconn);
  ignore (Cluster.run cluster);
  let conns = [ (0, sconn); (1, cconn) ] in
  match find_check "sub.desc_leak" (An.Sanitizer.scan ~conns cluster) with
  | [ f ] ->
    check_int "attributed to the server node" 0 f.An.Sanitizer.f_node;
    check_bool "detail names the conn"
      true
      (contains ~affix:"still posted" f.An.Sanitizer.f_detail);
    (* The finding is also recorded as an invariant violation (so it
       reaches race-detector fingerprints). *)
    check_bool "recorded in the monitor" true
      (List.exists
         (fun v -> v.Invariant.v_name = "sub.desc_leak")
         (Invariant.violations (Invariant.for_sim sim)))
  | fs -> Alcotest.failf "expected 1 desc-leak finding, got %d" (List.length fs)

let test_sanitizer_clean_pair () =
  (* Control: a properly closed pair produces zero findings. *)
  let cluster = Cluster.create ~n:2 () in
  let sim = Cluster.sim cluster in
  Invariant.enable (Invariant.for_sim sim);
  let sconn, cconn = connected_pair cluster in
  Sim.spawn sim ~name:"closer" (fun () ->
      Conn.write cconn "ping";
      check_str "data" "ping" (Conn.read sconn 4);
      Conn.close cconn;
      Conn.close sconn);
  ignore (Cluster.run cluster);
  let conns = [ (0, sconn); (1, cconn) ] in
  check_int "no findings" 0 (List.length (An.Sanitizer.scan ~conns cluster));
  check_int "no violations" 0 (Invariant.count (Invariant.for_sim sim))

let test_sanitizer_sendpool_leak () =
  (* A send-pool slot still in flight when the scan runs is a finding,
     also after its pool was released: a released pool stays in the
     registry until its sends settle, and only then leaves it. *)
  let cluster = Cluster.create ~n:2 () in
  let sim = Cluster.sim cluster in
  Invariant.enable (Invariant.for_sim sim);
  let e1 = Cluster.emp cluster 1 in
  let pool =
    Uls_substrate.Sendpool.create (Cluster.node cluster 0) (Cluster.emp cluster 0)
      ~slots:2 ~size:64
  in
  Sim.spawn sim ~name:"receiver" (fun () ->
      let r =
        Uls_emp.Endpoint.post_recv e1 ~src:0 ~tag:5 (Uls_host.Memory.alloc 64) ~off:0
          ~len:64
      in
      ignore (Uls_emp.Endpoint.wait_recv e1 r));
  Sim.spawn sim ~name:"sender" (fun () ->
      ignore (Uls_substrate.Sendpool.send pool ~dst:1 ~tag:5 "in flight"));
  (* Stop after the post, before the acknowledgment can return. *)
  ignore (Cluster.run ~until:(Time.us 2) cluster);
  check_int "one send in flight" 1 (Uls_substrate.Sendpool.in_flight pool);
  let leaks () = find_check "sub.sendpool_leak" (An.Sanitizer.scan cluster) in
  check_int "live pool flagged" 1 (List.length (leaks ()));
  Uls_substrate.Sendpool.release pool;
  check_int "released pool still flagged" 1 (List.length (leaks ()));
  ignore (Cluster.run cluster);
  check_int "settled" 0 (Uls_substrate.Sendpool.in_flight pool);
  check_int "no finding once settled" 0 (List.length (leaks ()));
  check_int "released pool left the registry" 0
    (List.length (Uls_substrate.Sendpool.pools_for_sim sim))

let test_credit_double_grant_detected () =
  let cluster = Cluster.create ~n:2 () in
  let sim = Cluster.sim cluster in
  Invariant.enable (Invariant.for_sim sim);
  let _sconn, cconn = connected_pair cluster in
  Sim.spawn sim ~name:"double-granter" (fun () ->
      (* A fresh connection holds its full credit window; one more grant
         is exactly the double-granted ack the monitor watches for. *)
      Conn.add_credits cconn 1);
  ignore (Cluster.run cluster);
  match
    List.filter
      (fun v -> v.Invariant.v_name = "sub.credit_range")
      (Invariant.violations (Invariant.for_sim sim))
  with
  | v :: _ ->
    check_str "offending fiber" "double-granter" v.Invariant.v_fiber;
    check_bool "detail points at a double grant" true
      (contains ~affix:"double grant" v.Invariant.v_detail)
  | [] -> Alcotest.fail "credit-range monitor missed the double grant"

(* --- deadlock diagnoser ------------------------------------------------- *)

let test_deadlock_named_report () =
  let sim = Sim.create () in
  let lock_a = Cond.create ~label:"lock-a" sim in
  let lock_b = Cond.create ~label:"lock-b" sim in
  (* The classic two-lock cycle: each fiber holds one lock and waits
     forever for the other's. *)
  Sim.spawn sim ~name:"worker-1" (fun () ->
      Sim.delay sim (Time.us 1);
      Cond.wait lock_b);
  Sim.spawn sim ~name:"worker-2" (fun () ->
      Sim.delay sim (Time.us 1);
      Cond.wait lock_a);
  (* A daemon service fiber parks too — it must NOT appear in the
     report. *)
  Sim.spawn sim ~name:"service" ~daemon:true (fun () ->
      Cond.wait (Cond.create ~label:"service-idle" sim));
  check_str "run quiesces instead of hanging" "q"
    (match Sim.run sim with `Quiescent -> "q" | _ -> "other");
  match An.Deadlock.check sim with
  | None -> Alcotest.fail "deadlock not detected"
  | Some rep ->
    check_int "two stuck fibers" 2 (List.length rep.An.Deadlock.rep_stuck);
    let rendered = An.Deadlock.render rep in
    List.iter
      (fun needle ->
        check_bool (needle ^ " in report") true
          (contains ~affix:needle rendered))
      [ "worker-1"; "worker-2"; "lock-a"; "lock-b"; "DEADLOCK" ];
    check_bool "daemon fiber not reported" false
      (contains ~affix:"service" rendered)

let test_no_deadlock_on_clean_run () =
  let sim = Sim.create () in
  Sim.spawn sim ~name:"worker" (fun () -> Sim.delay sim (Time.us 5));
  Sim.spawn sim ~name:"service" ~daemon:true (fun () ->
      Cond.wait (Cond.create ~label:"idle" sim));
  ignore (Sim.run sim);
  check_bool "daemon parked fibers are not a deadlock" true
    (An.Deadlock.check sim = None)

(* --- race detector ------------------------------------------------------ *)

let scenario name =
  match An.Scenarios.find name with
  | Some sc -> sc
  | None -> Alcotest.failf "scenario %s not registered" name

let test_race_clean_scenario () =
  let v = An.Race.run_scenario ~seeds:4 (scenario "rendezvous-grants") in
  check_bool "clean across seeds" true (An.Race.clean v);
  check_int "all seeds ran" 4 (List.length v.An.Race.v_perturbed)

let test_race_catches_shared_grant_queue () =
  let v = An.Race.run_until_flagged ~max_seeds:16 (scenario "shared-grant-queue") in
  check_bool "flagged" true (An.Race.flagged v);
  (* The detector reports both signals: fingerprint divergence and the
     named invariant violation, each with its offending seed. *)
  check_bool "fingerprint divergence" true (v.An.Race.v_divergent <> []);
  (match v.An.Race.v_violating with
  | (seed, first) :: _ ->
    check_bool "seed recorded for replay" true (seed >= 0);
    check_bool "violation names the grant-routing invariant" true
      (contains ~affix:"scenario.grant_routing" first);
    (* Determinism: replaying the offending seed reproduces the bug. *)
    let replayed = An.Race.replay (scenario "shared-grant-queue") ~seed in
    check_bool "replay reproduces the violation" true
      (List.exists
         (fun viol -> viol.Invariant.v_name = "scenario.grant_routing")
         replayed.An.Scenarios.violations)
  | [] -> Alcotest.fail "no violation recorded");
  check_bool "FIFO baseline itself is quiet (the bug needs perturbation)"
    true
    (v.An.Race.v_baseline.An.Race.r_outcome.An.Scenarios.violations = [])

let test_fingerprint_stability () =
  (* Same scenario, same seed, twice: byte-identical fingerprints. *)
  let sc = scenario "connect-churn" in
  let a = An.Race.replay sc ~seed:7 and b = An.Race.replay sc ~seed:7 in
  check_str "deterministic digest"
    (An.Fingerprint.digest a.An.Scenarios.fingerprint)
    (An.Fingerprint.digest b.An.Scenarios.fingerprint);
  check_bool "fingerprint carries content" true
    (An.Fingerprint.lines a.An.Scenarios.fingerprint <> [])

(* --- systematic explorer ------------------------------------------------ *)

let test_explore_schedule_id_roundtrip () =
  let roundtrip a =
    match An.Explore.parse_schedule_id (An.Explore.schedule_id a) with
    | Some b -> check_bool "roundtrip" true (a = b)
    | None -> Alcotest.fail "id failed to parse back"
  in
  roundtrip [||];
  roundtrip [| 0; 0; 1 |];
  roundtrip [| 0; 4; 0; 0; 1 |];
  check_str "empty prefix is fifo" "fifo" (An.Explore.schedule_id [||]);
  check_str "sparse form" "2:1" (An.Explore.schedule_id [| 0; 0; 1 |]);
  check_bool "garbage rejected" true
    (An.Explore.parse_schedule_id "2:x" = None)

(* Satellite: a deadlock that exists only on a non-FIFO interleaving,
   found exhaustively, reported with named wait-for edges. *)
let test_explore_lost_signal_exhaustive () =
  let v = An.Explore.explore (scenario "lost-signal") in
  check_bool "explorer flags the lost wakeup" true (An.Explore.flagged v);
  check_bool "coverage is exhaustive" true v.An.Explore.e_stats.An.Explore.st_exhaustive;
  check_int "the space is exactly two schedules" 2
    v.An.Explore.e_stats.An.Explore.st_runs;
  check_bool "FIFO baseline itself is quiet" true
    (v.An.Explore.e_baseline.An.Scenarios.deadlock = None);
  match v.An.Explore.e_flagged with
  | [ f ] ->
    check_bool "found on a non-FIFO schedule" true
      (f.An.Explore.fl_schedule <> "fifo");
    (match f.An.Explore.fl_finding with
    | An.Explore.Deadlocked rep ->
      let rendered = An.Deadlock.render rep in
      check_bool "wait-for edge names the fiber" true
        (contains ~affix:"ls-waiter" rendered);
      check_bool "wait-for edge names the condition" true
        (contains ~affix:"lost-signal-ready" rendered)
    | _ -> Alcotest.fail "expected a deadlock finding")
  | fs -> Alcotest.failf "expected exactly one flagged schedule, got %d"
            (List.length fs)

(* The headline acceptance: shared-grant-queue found deterministically —
   every explore call, not 11/16 seeds — with the racing pair named. *)
let test_explore_catches_shared_grant_queue () =
  let v = An.Explore.explore (scenario "shared-grant-queue") in
  check_bool "flagged deterministically" true (An.Explore.flagged v);
  let violating =
    List.filter_map
      (fun f ->
        match f.An.Explore.fl_finding with
        | An.Explore.Violating msg -> Some (f.An.Explore.fl_schedule, msg)
        | _ -> None)
      v.An.Explore.e_flagged
  in
  (match violating with
  | (sched, msg) :: _ ->
    check_bool "violation names the grant-routing invariant" true
      (contains ~affix:"scenario.grant_routing" msg);
    check_bool "schedule id recorded for replay" true (sched <> "");
    (* Satellite: the schedule id carried by the finding reproduces it. *)
    let outcome, _ =
      An.Explore.replay (scenario "shared-grant-queue") ~schedule:sched
    in
    check_bool "replay by schedule id reproduces the violation" true
      (List.exists
         (fun viol -> viol.Invariant.v_name = "scenario.grant_routing")
         outcome.An.Scenarios.violations);
    (* And twice: schedule ids are deterministic coordinates. *)
    let again, _ =
      An.Explore.replay (scenario "shared-grant-queue") ~schedule:sched
    in
    check_str "replay is deterministic"
      (An.Fingerprint.digest outcome.An.Scenarios.fingerprint)
      (An.Fingerprint.digest again.An.Scenarios.fingerprint)
  | [] -> Alcotest.fail "no violating schedule recorded");
  (* The racing pair: the two conflicting operations with no
     happens-before edge, by name. *)
  check_bool "racing pair names the two writers on the shared queue" true
    (List.exists
       (fun (p : An.Hb.pair) ->
         p.An.Hb.p_label = "shared-grant-queue"
         && p.An.Hb.p_a_op = "Mailbox.recv"
         && p.An.Hb.p_b_op = "Mailbox.recv"
         && contains ~affix:"grant-writer" p.An.Hb.p_a_fiber
         && contains ~affix:"grant-writer" p.An.Hb.p_b_fiber)
       v.An.Explore.e_pairs)

let test_explore_clean_scenario () =
  (* A correct protocol scenario: every explored schedule converges to
     the one fingerprint, no violations, no deadlock. *)
  let v = An.Explore.explore ~max_runs:24 (scenario "rings-firehose") in
  check_bool "clean" true (An.Explore.clean v);
  check_int "all schedules reach the same end state" 1
    v.An.Explore.e_stats.An.Explore.st_distinct_states

let test_explore_controlled_fifo_parity () =
  (* The all-defaults Controlled schedule (the explorer's baseline, with
     happens-before tracking attached) must reproduce the plain Fifo
     fingerprint bit-for-bit: instrumentation observes, never perturbs. *)
  let sc = scenario "lost-signal" in
  let plain = sc.An.Scenarios.sc_run `Fifo in
  let v = An.Explore.explore sc in
  check_str "controlled fifo == plain fifo"
    (An.Fingerprint.digest plain.An.Scenarios.fingerprint)
    (An.Fingerprint.digest v.An.Explore.e_baseline.An.Scenarios.fingerprint)

let suites =
  [
    ( "analysis",
      [
        Alcotest.test_case "register-raise keeps blocked accounting" `Quick
          test_register_raises_accounting;
        Alcotest.test_case "disabled monitor is free" `Quick
          test_invariant_disabled_is_free;
        Alcotest.test_case "violation records name/fiber/time" `Quick
          test_invariant_records_and_names;
        Alcotest.test_case "strict mode raises" `Quick
          test_invariant_strict_raises;
        Alcotest.test_case "sanitizer finds leaked descriptor" `Quick
          test_sanitizer_descriptor_leak;
        Alcotest.test_case "sanitizer clean on proper close" `Quick
          test_sanitizer_clean_pair;
        Alcotest.test_case "sanitizer finds in-flight send-pool slot" `Quick
          test_sanitizer_sendpool_leak;
        Alcotest.test_case "credit monitor catches double grant" `Quick
          test_credit_double_grant_detected;
        Alcotest.test_case "deadlock produces named wait-for report" `Quick
          test_deadlock_named_report;
        Alcotest.test_case "quiescent daemons are not deadlock" `Quick
          test_no_deadlock_on_clean_run;
        Alcotest.test_case "race: clean scenario stays clean" `Quick
          test_race_clean_scenario;
        Alcotest.test_case "race: shared grant queue caught + replays" `Quick
          test_race_catches_shared_grant_queue;
        Alcotest.test_case "race: fingerprints deterministic per seed" `Quick
          test_fingerprint_stability;
        Alcotest.test_case "explore: schedule ids roundtrip" `Quick
          test_explore_schedule_id_roundtrip;
        Alcotest.test_case "explore: lost signal found exhaustively" `Quick
          test_explore_lost_signal_exhaustive;
        Alcotest.test_case "explore: shared grant queue deterministic" `Quick
          test_explore_catches_shared_grant_queue;
        Alcotest.test_case "explore: clean scenario converges" `Quick
          test_explore_clean_scenario;
        Alcotest.test_case "explore: controlled fifo parity" `Quick
          test_explore_controlled_fifo_parity;
      ] );
  ]
