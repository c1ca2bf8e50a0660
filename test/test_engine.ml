(* Unit + property tests for the discrete-event core. *)
open Uls_engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Vec --- *)

let test_vec_push_pop () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v i
  done;
  check_int "length" 100 (Vec.length v);
  check_int "get" 42 (Vec.get v 42);
  check_int "pop" 99 (Vec.pop v);
  check_int "length after pop" 99 (Vec.length v)

let test_vec_bounds () =
  let v = Vec.create () in
  Vec.push v 1;
  Alcotest.check_raises "oob get" (Invalid_argument "Vec: index out of bounds")
    (fun () -> ignore (Vec.get v 1));
  ignore (Vec.pop v);
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop: empty") (fun () ->
      ignore (Vec.pop v))

let test_vec_sort () =
  let v = Vec.create () in
  List.iter (Vec.push v) [ 3; 1; 2 ];
  Vec.sort compare v;
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3 ]
    (Array.to_list (Vec.to_array v))

(* --- Heap --- *)

let test_heap_ordering () =
  let h = Heap.create ~cmp:compare in
  List.iter (Heap.push h) [ 5; 1; 4; 1; 3; 9; 2 ];
  let rec drain acc =
    match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  Alcotest.(check (list int)) "sorted drain" [ 1; 1; 2; 3; 4; 5; 9 ] (drain [])

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains sorted" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Heap.create ~cmp:compare in
      List.iter (Heap.push h) xs;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort compare xs)

(* --- Wheel --- *)

(* Elements are task cells; [key] reads back their (time, pri, seq)
   triple — the exact shape of the sim's tie-break contract. *)
let ev time pri seq = Task.make ~time ~pri ~seq Task.nop
let key (x : Task.t) = (x.time, x.pri, x.seq)
let wheel_create () = Wheel.create ()

let wheel_drain w =
  let rec go acc =
    let x = Wheel.pop w in
    if x == Task.dummy then List.rev acc else go (key x :: acc)
  in
  go []

let test_wheel_ordering () =
  let w = wheel_create () in
  List.iter (fun t -> Wheel.push w (ev t 0 t)) [ 5; 1; 4; 3; 9; 2 ];
  Alcotest.(check (list int))
    "sorted drain" [ 1; 2; 3; 4; 5; 9 ]
    (List.map (fun (t, _, _) -> t) (wheel_drain w));
  check_bool "empty after drain" true (Wheel.peek w == Task.dummy)

let test_wheel_overflow () =
  (* 256 ns grain: four levels cover 2^40 ns; anything beyond
     sits in the overflow heap and must migrate back in order *)
  let times =
    [ 0; 300; (1 lsl 41) + 5; 1 lsl 50; 700; (1 lsl 40) - 1; 1 lsl 40 ]
  in
  let w = wheel_create () in
  List.iteri (fun i t -> Wheel.push w (ev t 0 i)) times;
  Alcotest.(check (list int))
    "overflow timers drain in time order"
    (List.sort compare times)
    (List.map (fun (t, _, _) -> t) (wheel_drain w))

let test_wheel_late_insert_after_peek () =
  let w = wheel_create () in
  Wheel.push w (ev 1_000_000 0 1);
  (match key (Wheel.peek w) with
  | 1_000_000, _, _ -> ()
  | _ -> Alcotest.fail "peek");
  (* the peek advanced the internal cursor to the far slot; an insert
     below it (but at/after the last extraction, per the Sim contract)
     must still dispatch first *)
  Wheel.push w (ev 10 0 2);
  Alcotest.(check (list int))
    "earlier late insert dispatches first" [ 10; 1_000_000 ]
    (List.map (fun (t, _, _) -> t) (wheel_drain w))

(* Regression: a window-exhausted crossing whose new base coincides with
   slot boundaries at several levels at once. The cursor enters a new
   level-2 slot exactly when a level-0 window ends at the 2^24 edge;
   cascading only the immediate parent left the level-2 slot's contents
   parked until the wheel wrapped (~seconds late), and a higher cascade
   feeding [cur] directly could end the advance before the wrapped,
   now-due level-0 cursor-slot entries were scanned. Observed as
   out-of-order dispatch in the serve smoke on the wheel. *)
let test_wheel_coincident_boundary () =
  let w = wheel_create () in
  let m = 1 lsl 24 in
  (* parked early in level-2 slot 1 *)
  Wheel.push w (ev (m + 100) 0 1);
  (* walk the cursor to the last level-0 window before the 2^24 edge *)
  Wheel.push w (ev (m - 512) 0 2);
  (match key (Wheel.pop w) with
  | t, _, _ when t = m - 512 -> ()
  | _ -> Alcotest.fail "setup pop 1");
  Wheel.push w (ev (m - 256) 0 3);
  (match key (Wheel.pop w) with
  | t, _, _ when t = m - 256 -> ()
  | _ -> Alcotest.fail "setup pop 2");
  (* a wrapped level-0 entry just past the edge, and a level-1 entry
     further out that would pull the cursor over the parked element *)
  Wheel.push w (ev (m + 16) 0 4);
  Wheel.push w (ev (m + (5 * 65536)) 0 5);
  Alcotest.(check (list int))
    "crossing the 2^24 edge dispatches every level in order"
    [ m + 16; m + 100; m + (5 * 65536) ]
    (List.map (fun (t, _, _) -> t) (wheel_drain w))

(* Regression: crossing out of the top level's window. An overflow
   entry migrated into level 0 at the crossing used to end the advance
   before the top cursor slot was cascaded, leaving a wrapped entry
   parked there for a whole revolution (~18 min of virtual time) while
   later entries dispatched ahead of it. Found by the dispatch-order
   model below under a Controlled tie-break. *)
let test_wheel_top_level_crossing () =
  let w = wheel_create () in
  let r = 1 lsl 40 in
  (* beyond the top level's range from base 0: the overflow heap *)
  Wheel.push w (ev (r + 440) 0 1);
  (* move the cursor off the top-level boundary *)
  Wheel.push w (ev 100_000 0 2);
  (match key (Wheel.pop w) with
  | 100_000, _, _ -> ()
  | _ -> Alcotest.fail "setup pop 1");
  (* in range now, but wrapped into top-level slot 0 *)
  Wheel.push w (ev (r + 50_000) 0 3);
  (match key (Wheel.pop w) with
  | t, _, _ when t = r + 440 -> ()
  | _ -> Alcotest.fail "setup pop 2");
  Wheel.push w (ev (r + 100_000) 0 4);
  Alcotest.(check (list int))
    "the wrapped top-slot entry dispatches first" [ r + 50_000; r + 100_000 ]
    (List.map (fun (t, _, _) -> t) (wheel_drain w))

(* Pinned-seed heap-vs-wheel parity: random schedule/cancel/advance ops
   must yield identical dispatch sequences on both structures, under
   FIFO (pri always 0) and shuffled (random pri) tie-breaks. Cancelled
   elements stay queued (the sim cancels by defusing the closure) and
   are filtered from the dispatch log on extraction. *)
let wheel_heap_parity ~shuffled seed =
  let rng = Rng.create ~seed in
  let h = Heap.create ~cmp:Task.compare in
  let w = wheel_create () in
  let seqr = ref 0 in
  let nowr = ref 0 in
  let live = ref [] in
  let cancelled = Hashtbl.create 64 in
  let dispatched_h = ref [] in
  let dispatched_w = ref [] in
  let pop_both () =
    match (Heap.pop h, Wheel.pop w) with
    | None, b when b == Task.dummy -> ()
    | Some a, b when b != Task.dummy ->
      let a = key a and b = key b in
      if a <> b then
        Alcotest.failf "seed %d: heap %s vs wheel %s" seed
          (let t, p, s = a in Printf.sprintf "(%d,%d,%d)" t p s)
          (let t, p, s = b in Printf.sprintf "(%d,%d,%d)" t p s);
      let t, _, s = a in
      nowr := t;
      live := List.filter (fun s' -> s' <> s) !live;
      if not (Hashtbl.mem cancelled s) then begin
        dispatched_h := a :: !dispatched_h;
        dispatched_w := b :: !dispatched_w
      end
    | _ -> Alcotest.failf "seed %d: one structure drained early" seed
  in
  for _ = 1 to 3000 do
    let op = Rng.int rng 100 in
    if op < 60 || Heap.length h = 0 then begin
      (* schedule at/after the last dispatch time (the Sim contract),
         spread from same-slot to overflow-level deltas *)
      let delta =
        match Rng.int rng 10 with
        | 0 -> 0
        | 1 | 2 | 3 -> Rng.int rng 1_000
        | 4 | 5 | 6 -> Rng.int rng 1_000_000
        | 7 | 8 -> Rng.int rng (1 lsl 30)
        | _ -> (1 lsl 40) + Rng.int rng (1 lsl 44)
      in
      incr seqr;
      let pri = if shuffled then Rng.int rng 0x4000_0000 else 0 in
      let e = ev (!nowr + delta) pri !seqr in
      Heap.push h e;
      Wheel.push w e;
      live := !seqr :: !live
    end
    else if op < 70 && !live <> [] then
      (* cancel a random outstanding element *)
      let victim = List.nth !live (Rng.int rng (List.length !live)) in
      Hashtbl.replace cancelled victim ()
    else if op < 75 then begin
      (* peek (advances the wheel cursor) without extracting *)
      match (Heap.peek h, Wheel.peek w) with
      | None, b when b == Task.dummy -> ()
      | Some a, b when a == b -> ()
      | _ -> Alcotest.failf "seed %d: peek mismatch" seed
    end
    else pop_both ()
  done;
  while Heap.length h > 0 || Wheel.peek w != Task.dummy do
    pop_both ()
  done;
  check_bool "identical dispatch sequences" true
    (!dispatched_h = !dispatched_w);
  check_bool "both drained" true (Wheel.peek w == Task.dummy)

let test_wheel_parity_fifo () =
  List.iter (wheel_heap_parity ~shuffled:false) [ 1; 2; 3; 4; 5 ]

let test_wheel_parity_shuffled () =
  List.iter (wheel_heap_parity ~shuffled:true) [ 11; 12; 13; 14; 15 ]

(* --- Retention regressions --- *)

let weak_of x =
  let w = Weak.create 1 in
  Weak.set w 0 (Some x);
  w

let test_vec_pop_retention () =
  let v = Vec.create () in
  (* pop-to-empty: the regression — the last element used to stay
     pinned by the backing array forever *)
  let w1 =
    let x = Bytes.create 32 in
    Vec.push v x;
    weak_of x
  in
  ignore (Sys.opaque_identity (Vec.pop v));
  Gc.full_major ();
  check_bool "pop-to-empty releases element" false (Weak.check w1 0);
  (* ordinary pop: the vacated slot must not retain either *)
  let w2 =
    let x = Bytes.create 32 in
    Vec.push v (Bytes.create 1);
    Vec.push v x;
    weak_of x
  in
  ignore (Sys.opaque_identity (Vec.pop v));
  Gc.full_major ();
  check_bool "pop releases vacated slot" false (Weak.check w2 0);
  (* keep the vec reachable across the GC, or the checks test nothing *)
  check_int "survivor count" 1 (Vec.length v)

let test_vec_truncate_retention () =
  let v = Vec.create () in
  let ws =
    Array.init 4 (fun _ ->
        let x = Bytes.create 8 in
        Vec.push v x;
        weak_of x)
  in
  Vec.truncate v 1;
  Gc.full_major ();
  check_bool "kept element survives" true (Weak.check ws.(0) 0);
  for i = 1 to 3 do
    check_bool "truncated tail released" false (Weak.check ws.(i) 0)
  done;
  (* keep the vec reachable across the GC, or the checks test nothing *)
  check_int "survivor count" 1 (Vec.length v)

let test_sim_task_release () =
  (* a dispatched task's closure (and its captures) must be collectable
     on the wheel and on the reference heap: the pooled cell defuses
     [run] on dispatch and queue storage overwrites vacated slots *)
  List.iter
    (fun create ->
      let sim = create () in
      let w =
        let payload = Bytes.create 64 in
        Sim.at sim 5 (fun () -> ignore (Sys.opaque_identity payload));
        weak_of payload
      in
      ignore (Sim.run sim);
      Gc.full_major ();
      check_bool "dispatched closure released" false (Weak.check w 0))
    [ Sim.create; Sim.create_reference ]

(* Every cluster builds a sim, and with it a wheel: building one must
   stay cheap. A wheel level's slot arrays appear on its first use, so
   creation allocates none of them; a record per slot would cost over
   4000 words per sim. Minor words are counted exactly, so the bound is
   deterministic; words allocated straight into the major heap (any
   array over 256 words) count too. *)
let test_sim_create_alloc () =
  ignore (Sys.opaque_identity (Sim.create ()));
  let minor0 = Gc.minor_words () in
  let _, promoted0, major0 = Gc.counters () in
  let sim = Sim.create () in
  let _, promoted1, major1 = Gc.counters () in
  let words =
    Gc.minor_words () -. minor0 +. (major1 -. major0 -. (promoted1 -. promoted0))
  in
  ignore (Sys.opaque_identity sim);
  check_bool
    (Printf.sprintf "Sim.create: %.0f words allocated <= 128" words)
    true (words <= 128.)

(* --- Sim basics --- *)

let test_sim_delay_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.spawn sim (fun () ->
      Sim.delay sim 100;
      log := ("a", Sim.now sim) :: !log);
  Sim.spawn sim (fun () ->
      Sim.delay sim 50;
      log := ("b", Sim.now sim) :: !log;
      Sim.delay sim 100;
      log := ("c", Sim.now sim) :: !log);
  ignore (Sim.run sim);
  Alcotest.(check (list (pair string int)))
    "event order"
    [ ("b", 50); ("a", 100); ("c", 150) ]
    (List.rev !log)

let test_sim_same_time_fifo () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Sim.at sim 10 (fun () -> log := i :: !log)
  done;
  ignore (Sim.run sim);
  Alcotest.(check (list int)) "fifo at same timestamp" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_sim_until () =
  let sim = Sim.create () in
  let fired = ref false in
  Sim.at sim 1_000 (fun () -> fired := true);
  let r = Sim.run ~until:500 sim in
  check_bool "not yet" false !fired;
  check_int "clock at limit" 500 (Sim.now sim);
  (match r with
  | `Time_limit -> ()
  | _ -> Alcotest.fail "expected `Time_limit");
  ignore (Sim.run sim);
  check_bool "fires on resume" true !fired

let test_sim_stop () =
  let sim = Sim.create () in
  let count = ref 0 in
  Sim.spawn sim (fun () ->
      for _ = 1 to 100 do
        incr count;
        if !count = 10 then Sim.stop sim;
        Sim.delay sim 1
      done);
  (match Sim.run sim with
  | `Stopped -> ()
  | _ -> Alcotest.fail "expected `Stopped");
  check_int "stopped early" 10 !count

let test_sim_fiber_failure () =
  let sim = Sim.create () in
  Sim.spawn sim ~name:"boom" (fun () -> failwith "bang");
  (try
     ignore (Sim.run sim);
     Alcotest.fail "expected Fiber_failure"
   with Sim.Fiber_failure (name, Failure msg) ->
     Alcotest.(check string) "fiber name" "boom" name;
     Alcotest.(check string) "payload" "bang" msg)

let test_sim_past_scheduling_rejected () =
  let sim = Sim.create () in
  Sim.spawn sim (fun () -> Sim.delay sim 100);
  ignore (Sim.run sim);
  Alcotest.check_raises "past" (Invalid_argument "Sim: scheduling in the past")
    (fun () -> Sim.at sim 50 (fun () -> ()))

(* --- Cond --- *)

let test_cond_signal_fifo () =
  let sim = Sim.create () in
  let c = Cond.create sim in
  let log = ref [] in
  for i = 1 to 3 do
    Sim.spawn sim (fun () ->
        Cond.wait c;
        log := i :: !log)
  done;
  Sim.spawn sim (fun () ->
      Sim.delay sim 10;
      Cond.signal c;
      Sim.delay sim 10;
      Cond.broadcast c);
  ignore (Sim.run sim);
  Alcotest.(check (list int)) "fifo wakeups" [ 1; 2; 3 ] (List.rev !log)

let test_cond_timeout () =
  let sim = Sim.create () in
  let c = Cond.create sim in
  let outcome = ref `Ok in
  Sim.spawn sim (fun () -> outcome := Cond.wait_timeout c 100);
  ignore (Sim.run sim);
  check_bool "timed out" true (!outcome = `Timeout);
  check_int "time advanced" 100 (Sim.now sim)

let test_cond_signal_beats_timeout () =
  let sim = Sim.create () in
  let c = Cond.create sim in
  let outcome = ref `Timeout in
  Sim.spawn sim (fun () -> outcome := Cond.wait_timeout c 100);
  Sim.spawn sim (fun () ->
      Sim.delay sim 50;
      Cond.signal c);
  ignore (Sim.run sim);
  check_bool "signalled" true (!outcome = `Ok)

let test_cond_timeout_not_double_woken () =
  (* A waiter cancelled by timeout must not steal a later signal. *)
  let sim = Sim.create () in
  let c = Cond.create sim in
  let second_woke = ref false in
  Sim.spawn sim (fun () -> ignore (Cond.wait_timeout c 10));
  Sim.spawn sim (fun () ->
      Cond.wait c;
      second_woke := true);
  Sim.spawn sim (fun () ->
      Sim.delay sim 50;
      Cond.signal c);
  ignore (Sim.run sim);
  check_bool "live waiter got the signal" true !second_woke

(* --- Mailbox --- *)

let test_mailbox_fifo () =
  let sim = Sim.create () in
  let mb = Mailbox.create sim in
  let got = ref [] in
  Sim.spawn sim (fun () ->
      for _ = 1 to 3 do
        got := Mailbox.recv mb :: !got
      done);
  Sim.spawn sim (fun () ->
      Sim.delay sim 5;
      Mailbox.send mb 1;
      Mailbox.send mb 2;
      Sim.delay sim 5;
      Mailbox.send mb 3);
  ignore (Sim.run sim);
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !got)

let test_mailbox_timeout () =
  let sim = Sim.create () in
  let mb : int Mailbox.t = Mailbox.create sim in
  let got = ref (Some 0) in
  Sim.spawn sim (fun () -> got := Mailbox.recv_timeout mb 100);
  ignore (Sim.run sim);
  check_bool "timeout is None" true (!got = None)

let test_mailbox_timeout_delivery () =
  let sim = Sim.create () in
  let mb = Mailbox.create sim in
  let got = ref None in
  Sim.spawn sim (fun () -> got := Mailbox.recv_timeout mb 100);
  Sim.spawn sim (fun () ->
      Sim.delay sim 30;
      Mailbox.send mb 9);
  ignore (Sim.run sim);
  check_bool "delivered before deadline" true (!got = Some 9)

(* --- Resource --- *)

let test_resource_fifo_serialization () =
  let sim = Sim.create () in
  let r = Resource.create sim ~name:"cpu" in
  let finish = Array.make 3 0 in
  for i = 0 to 2 do
    Sim.spawn sim (fun () ->
        Resource.use r 100;
        finish.(i) <- Sim.now sim)
  done;
  ignore (Sim.run sim);
  Alcotest.(check (array int)) "back to back" [| 100; 200; 300 |] finish;
  check_int "busy" 300 (Resource.busy_time r);
  check_int "jobs" 3 (Resource.jobs r);
  check_int "queue delay" 300 (Resource.queue_delay_total r)

let test_resource_idle_gap () =
  let sim = Sim.create () in
  let r = Resource.create sim ~name:"cpu" in
  Sim.spawn sim (fun () ->
      Resource.use r 10;
      Sim.delay sim 100;
      Resource.use r 10);
  ignore (Sim.run sim);
  check_int "no queueing across idle gap" 0 (Resource.queue_delay_total r);
  check_int "finish time" 120 (Sim.now sim)

let prop_resource_fifo =
  QCheck.Test.make ~name:"resource completions are FIFO and disjoint" ~count:100
    QCheck.(list_of_size Gen.(1 -- 20) (int_range 1 1000))
    (fun durations ->
      let sim = Sim.create () in
      let r = Resource.create sim ~name:"x" in
      let finishes = ref [] in
      List.iter
        (fun d ->
          Sim.spawn sim (fun () ->
              Resource.use r d;
              finishes := Sim.now sim :: !finishes))
        durations;
      ignore (Sim.run sim);
      let f = List.rev !finishes in
      let total = List.fold_left ( + ) 0 durations in
      f = List.sort compare f && List.nth f (List.length f - 1) = total)

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    check_bool "same stream" true (Rng.int64 a = Rng.int64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  check_bool "different" true (Rng.int64 a <> Rng.int64 b)

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"rng int within bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let r = Rng.create ~seed in
      let x = Rng.int r bound in
      x >= 0 && x < bound)

let prop_rng_float_unit =
  QCheck.Test.make ~name:"rng float in [0,1)" ~count:500 QCheck.small_int
    (fun seed ->
      let r = Rng.create ~seed in
      let x = Rng.float r in
      x >= 0. && x < 1.)

(* --- Stats --- *)

let test_summary_basics () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 1.; 2.; 3.; 4. ];
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.Summary.mean s);
  Alcotest.(check (float 1e-9)) "min" 1. (Stats.Summary.min s);
  Alcotest.(check (float 1e-9)) "max" 4. (Stats.Summary.max s);
  Alcotest.(check (float 1e-9)) "median" 3. (Stats.Summary.percentile s 0.5)

let test_summary_stddev () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  Alcotest.(check (float 1e-6)) "sample stddev" 2.13809 (Stats.Summary.stddev s)

let test_percentile_edges () =
  let s = Stats.Summary.create () in
  Alcotest.(check (float 0.)) "empty summary" 0. (Stats.Summary.percentile s 0.5);
  Stats.Summary.add s 42.;
  Alcotest.(check (float 0.)) "single sample p=0" 42. (Stats.Summary.percentile s 0.0);
  Alcotest.(check (float 0.)) "single sample p=1" 42. (Stats.Summary.percentile s 1.0);
  List.iter (Stats.Summary.add s) [ 7.; 99.; 13. ];
  Alcotest.(check (float 0.)) "p=0 is min" 7. (Stats.Summary.percentile s 0.0);
  Alcotest.(check (float 0.)) "p=1 is max" 99. (Stats.Summary.percentile s 1.0);
  (* adds after a percentile query must invalidate the sorted order *)
  Stats.Summary.add s 1.;
  Alcotest.(check (float 0.)) "re-sorts after add" 1. (Stats.Summary.percentile s 0.0);
  Stats.Summary.clear s;
  Alcotest.(check (float 0.)) "cleared summary" 0. (Stats.Summary.percentile s 1.0)

let test_counter_reset () =
  let c = Stats.Counter.create () in
  Stats.Counter.incr c;
  Stats.Counter.add c 9;
  check_int "accumulated" 10 (Stats.Counter.value c);
  Stats.Counter.reset c;
  check_int "reset" 0 (Stats.Counter.value c);
  Stats.Counter.incr c;
  check_int "counts again after reset" 1 (Stats.Counter.value c)

let prop_percentile_bounded =
  QCheck.Test.make ~name:"percentile lies within samples" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.))
    (fun xs ->
      let s = Stats.Summary.create () in
      List.iter (Stats.Summary.add s) xs;
      let p = Stats.Summary.percentile s 0.9 in
      p >= Stats.Summary.min s && p <= Stats.Summary.max s)

(* --- Metrics --- *)

let test_metrics_counters () =
  let m = Metrics.create () in
  Metrics.incr m "x";
  Metrics.add m "x" 4;
  Metrics.incr m ~node:1 "x";
  check_int "global counter" 5 (Metrics.counter_value m "x");
  check_int "per-node counter is distinct" 1 (Metrics.counter_value m ~node:1 "x");
  check_int "unknown counter reads 0" 0 (Metrics.counter_value m "y");
  Metrics.set_gauge m "g" 2.5;
  Alcotest.(check (float 0.)) "gauge" 2.5 (Metrics.gauge_value m "g")

let test_metrics_histogram_percentiles () =
  let m = Metrics.create () in
  for i = 1 to 100 do
    Metrics.observe m "lat" (float_of_int i)
  done;
  let h = Metrics.histogram m "lat" in
  check_int "count" 100 (Stats.Summary.count h);
  Alcotest.(check (float 1e-9)) "mean" 50.5 (Stats.Summary.mean h);
  Alcotest.(check (float 1.0)) "p50" 50. (Stats.Summary.percentile h 0.5);
  Alcotest.(check (float 1.0)) "p95" 95. (Stats.Summary.percentile h 0.95);
  Alcotest.(check (float 0.)) "max" 100. (Stats.Summary.max h)

let test_metrics_reset () =
  let m = Metrics.create () in
  Metrics.add m ~node:0 "c" 7;
  Metrics.set_gauge m "g" 3.;
  Metrics.observe m "h" 1.;
  Metrics.reset m;
  check_int "counter zeroed" 0 (Metrics.counter_value m ~node:0 "c");
  Alcotest.(check (float 0.)) "gauge zeroed" 0. (Metrics.gauge_value m "g");
  check_int "histogram cleared" 0 (Stats.Summary.count (Metrics.histogram m "h"));
  Metrics.incr m ~node:0 "c";
  check_int "counts again after reset" 1 (Metrics.counter_value m ~node:0 "c")

let test_metrics_per_sim_registry () =
  let a = Sim.create () and b = Sim.create () in
  Metrics.incr (Metrics.for_sim a) "only-a";
  check_int "same sim, same registry" 1
    (Metrics.counter_value (Metrics.for_sim a) "only-a");
  check_int "other sim unaffected" 0
    (Metrics.counter_value (Metrics.for_sim b) "only-a")

(* --- typed Trace --- *)

let test_trace_event_ordering () =
  let sim = Sim.create () in
  let tr = Trace.create sim in
  Trace.enable tr;
  Sim.spawn sim (fun () ->
      Trace.instant tr ~layer:Trace.App ~node:0 "first";
      Sim.delay sim 100;
      Trace.instant tr ~layer:Trace.Nic ~node:1 "second");
  ignore (Sim.run sim);
  match Trace.events tr with
  | [ a; b ] ->
    Alcotest.(check string) "names in time order" "first" a.Trace.ev_name;
    Alcotest.(check string) "second event" "second" b.Trace.ev_name;
    check_int "first timestamp" 0 a.Trace.ev_time;
    check_int "second timestamp" 100 b.Trace.ev_time;
    check_bool "layer recorded" true (b.Trace.ev_layer = Trace.Nic)
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

let test_trace_disabled_records_nothing () =
  let sim = Sim.create () in
  let tr = Trace.create sim in
  Sim.spawn sim (fun () ->
      Trace.instant tr ~layer:Trace.App "dropped";
      let id = Trace.span_begin tr ~layer:Trace.App "dropped-span" in
      check_int "span id 0 while disabled" 0 id;
      Trace.span_end tr ~layer:Trace.App "dropped-span" id);
  ignore (Sim.run sim);
  check_int "nothing recorded" 0 (List.length (Trace.events tr))

let test_trace_span_totals () =
  let sim = Sim.create () in
  let tr = Trace.create sim in
  Trace.enable tr;
  Sim.spawn sim (fun () ->
      for _ = 1 to 3 do
        Trace.span tr ~layer:Trace.Substrate "op" (fun () -> Sim.delay sim 50)
      done);
  ignore (Sim.run sim);
  match Trace.span_totals tr with
  | [ (layer, name, count, total_ns) ] ->
    check_bool "layer" true (layer = Trace.Substrate);
    Alcotest.(check string) "name" "op" name;
    check_int "count" 3 count;
    check_int "total" 150 total_ns
  | l -> Alcotest.failf "expected 1 aggregate, got %d" (List.length l)

let test_trace_chrome_json_shape () =
  let sim = Sim.create () in
  let tr = Trace.create sim in
  Trace.enable tr;
  Sim.spawn sim (fun () ->
      Trace.span tr ~layer:Trace.Emp ~node:1 ~conn:3 "emp.send"
        ~args:[ ("len", "4") ]
        (fun () -> Sim.delay sim 1_000);
      Trace.instant tr ~layer:Trace.Nic ~node:0 "nic.rx \"quoted\"");
  ignore (Sim.run sim);
  let json = Trace.to_chrome_json tr in
  check_bool "array brackets" true
    (String.length json > 2 && json.[0] = '[');
  let contains needle =
    let n = String.length needle and h = String.length json in
    let rec go i = i + n <= h && (String.sub json i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "begin phase" true (contains {|"ph":"b"|});
  check_bool "end phase" true (contains {|"ph":"e"|});
  check_bool "instant phase" true (contains {|"ph":"i"|});
  check_bool "category is layer" true (contains {|"cat":"emp"|});
  check_bool "args survive" true (contains {|"len":"4"|});
  check_bool "quotes escaped" true (contains {|\"quoted\"|})

let test_trace_overlapping_spans_by_id () =
  (* Two in-flight spans of the same name must keep distinct ids so a
     viewer can pair begin/end correctly. *)
  let sim = Sim.create () in
  let tr = Trace.create sim in
  Trace.enable tr;
  Sim.spawn sim (fun () ->
      let a = Trace.span_begin tr ~layer:Trace.Emp "msg" in
      let b = Trace.span_begin tr ~layer:Trace.Emp "msg" in
      check_bool "distinct ids" true (a <> b);
      Sim.delay sim 10;
      Trace.span_end tr ~layer:Trace.Emp "msg" b;
      Sim.delay sim 10;
      Trace.span_end tr ~layer:Trace.Emp "msg" a);
  ignore (Sim.run sim);
  match Trace.span_totals tr with
  | [ (_, "msg", 2, total) ] -> check_int "total 10+20" 30 total
  | _ -> Alcotest.fail "expected one aggregate over 2 spans"

(* --- Time --- *)

let test_time_units () =
  check_int "us" 5_000 (Time.us 5);
  check_int "ms" 7_000_000 (Time.ms 7);
  check_int "us_f" 1_500 (Time.us_f 1.5);
  Alcotest.(check (float 1e-9)) "to_us" 2.5 (Time.to_us 2_500)

let test_time_mbps () =
  (* 1250 bytes in 10 us = 1000 Mb/s *)
  Alcotest.(check (float 1e-6)) "mbps" 1000.
    (Time.mbps ~bytes_transferred:1250 ~elapsed:10_000)

(* --- Per-sim registry eviction --- *)

(* In its own function so the sim is unreachable when it returns. *)
let make_dead_sim () =
  let c = Uls_bench.Cluster.create ~n:1 () in
  let sim = Uls_bench.Cluster.sim c in
  Metrics.incr (Metrics.for_sim sim) "dead.counter";
  ignore (Trace.for_sim sim);
  ignore (Invariant.for_sim sim);
  ignore
    (Uls_substrate.Sendpool.create (Uls_bench.Cluster.node c 0)
       (Uls_bench.Cluster.emp c 0) ~slots:2 ~size:64)

let test_registry_eviction () =
  Gc.full_major ();
  let bm = Metrics.registered_sims () in
  let bt = Trace.registered_sims () in
  let bi = Invariant.registered_sims () in
  let bs = Uls_substrate.Sendpool.registered_sims () in
  for _ = 1 to 32 do
    make_dead_sim ()
  done;
  Gc.full_major ();
  Gc.full_major ();
  check_int "metrics entries evicted" bm (Metrics.registered_sims ());
  check_int "trace entries evicted" bt (Trace.registered_sims ());
  check_int "invariant entries evicted" bi (Invariant.registered_sims ());
  check_int "send-pool entries evicted" bs
    (Uls_substrate.Sendpool.registered_sims ());
  (* while a sim is live its registry must survive collection *)
  let sim = Sim.create () in
  Metrics.incr (Metrics.for_sim sim) "keep";
  Gc.full_major ();
  check_int "live sim keeps its registry" 1
    (Metrics.counter_value (Metrics.for_sim sim) "keep")

(* --- Sim heap-vs-wheel dispatch parity --- *)

(* A program with same-time collisions, fiber suspends, a time-limited
   run/resume, and a far-future timer (the wheel's overflow level).
   The full dispatch log must be byte-identical across schedulers for
   both tie-break policies. *)
let sim_parity_run create ~tiebreak =
  let sim = create () in
  Sim.set_tiebreak sim tiebreak;
  let log = Buffer.create 1024 in
  for i = 1 to 8 do
    Sim.spawn sim
      ~name:(Printf.sprintf "f%d" i)
      (fun () ->
        for j = 1 to 40 do
          Sim.delay sim (i * j mod 7);
          Buffer.add_string log (Printf.sprintf "%d.%d@%d;" i j (Sim.now sim))
        done)
  done;
  Sim.at sim 100 (fun () -> Buffer.add_string log "at100;");
  Sim.at sim (1 lsl 42) (fun () -> Buffer.add_string log "far;");
  (match Sim.run ~until:50 sim with
  | `Time_limit -> Buffer.add_string log "limit;"
  | _ -> Alcotest.fail "expected `Time_limit");
  (* schedule below the peeked-ahead horizon, then resume *)
  Sim.at sim (Sim.now sim + 1) (fun () -> Buffer.add_string log "mid;");
  (match Sim.run sim with
  | `Quiescent -> ()
  | _ -> Alcotest.fail "expected `Quiescent");
  (Buffer.contents log, Sim.events_executed sim)

let test_sim_sched_parity () =
  List.iter
    (fun tiebreak ->
      let lh, eh = sim_parity_run Sim.create_reference ~tiebreak in
      let lw, ew = sim_parity_run Sim.create ~tiebreak in
      Alcotest.(check string) "dispatch log identical" lh lw;
      check_int "events executed identical" eh ew)
    [ `Fifo; `Seeded_shuffle 42 ]

(* --- Model-based dispatch order --- *)

(* A random program over the public Sim/Cond API — delays, plain
   callbacks, nested spawns, signals, broadcasts and waits with
   timeouts — checked against a model that shares no code with either
   queue. The dispatch hook logs every task's (seq, pri, time) and how
   many tasks had been scheduled when it started; the model then
   replays the run from the log alone: at each dispatch, the pending set
   is every scheduled task not yet dispatched, and the dispatched task
   must be its (time, pri, seq) minimum — under [Controlled], the
   chooser must have been offered exactly the pending tasks at the
   minimum time, in seq order, and the dispatched task must be the one
   it chose. Every scheduled task must run exactly once, and every
   plain callback at the time it was scheduled for. *)

type dispatch = {
  d_seq : int;
  d_pri : int;
  d_time : int;
  d_scheduled : int;  (* tasks scheduled before this dispatch *)
  d_offer : (int array * int) option;  (* the Controlled tie and choice *)
}

let model_program sim rng =
  let conds =
    Array.init 3 (fun i -> Cond.create ~label:(Printf.sprintf "model-%d" i) sim)
  in
  let late = ref 0 and callbacks = ref 0 and ran = ref 0 in
  let pick_delay () =
    match Rng.int rng 6 with
    | 0 -> 0
    | 1 | 2 -> Rng.int rng 8
    | 3 -> Rng.int rng 2_000
    | 4 -> Rng.int rng 300_000
    | _ -> (1 lsl 40) + Rng.int rng 1_000
  in
  let callback due =
    incr callbacks;
    Sim.at sim due (fun () ->
        incr ran;
        if Sim.now sim <> due then incr late)
  in
  let rec fiber depth steps () =
    for _ = 1 to steps do
      match Rng.int rng 7 with
      | 0 | 1 ->
        let d = pick_delay () and t0 = Sim.now sim in
        Sim.delay sim d;
        if Sim.now sim <> t0 + d then incr late
      | 2 ->
        ignore (Cond.wait_timeout conds.(Rng.int rng 3) (1 + Rng.int rng 5_000))
      | 3 -> Cond.signal conds.(Rng.int rng 3)
      | 4 -> Cond.broadcast conds.(Rng.int rng 3)
      | 5 -> callback (Sim.now sim + pick_delay ())
      | _ ->
        if depth < 2 then
          Sim.spawn sim ~name:"model-child" (fiber (depth + 1) (1 + Rng.int rng 4))
    done
  in
  for i = 1 to 2 + Rng.int rng 5 do
    Sim.spawn sim ~name:(Printf.sprintf "model-%d" i) (fiber 0 (2 + Rng.int rng 10))
  done;
  for _ = 1 to Rng.int rng 6 do
    callback (pick_delay ())
  done;
  fun () -> (!late, !callbacks, !ran)

let model_run ~seed policy =
  let sim = Sim.create () in
  let offer = ref None in
  let choose = Rng.create ~seed:(seed + 1) in
  (match policy with
  | `Fifo -> Sim.set_tiebreak sim `Fifo
  | `Shuffle -> Sim.set_tiebreak sim (`Seeded_shuffle seed)
  | `Controlled ->
    Sim.set_tiebreak sim
      (`Controlled
        (fun tie ->
          let c = Rng.int choose (Array.length tie) in
          offer := Some (Array.copy tie, c);
          c)));
  let log = ref [] in
  Sim.set_hooks sim
    (Some
       {
         Sim.on_op = (fun _ _ _ -> ());
         on_spawn = (fun ~parent:_ ~child:_ ~name:_ -> ());
         on_dispatch =
           (fun ~seq ~pri ~time ->
             log :=
               { d_seq = seq; d_pri = pri; d_time = time;
                 d_scheduled = Sim.tasks_scheduled sim; d_offer = !offer }
               :: !log;
             offer := None);
       });
  let counts = model_program sim (Rng.create ~seed) in
  (match Sim.run sim with
  | `Quiescent -> ()
  | _ -> Alcotest.fail "model program did not quiesce");
  (Array.of_list (List.rev !log), Sim.tasks_scheduled sim, counts ())

let model_check ~seed policy =
  let log, scheduled, (late, callbacks, ran) = model_run ~seed policy in
  let failf fmt =
    Printf.ksprintf (fun m -> Alcotest.failf "seed %d: %s" seed m) fmt
  in
  check_int "plain callbacks ran once each" callbacks ran;
  check_int "callbacks and delays on time" 0 late;
  (* exactly once: the dispatched seqs are 1..scheduled, no repeats *)
  let at = Array.make (scheduled + 1) (-1) in
  Array.iteri
    (fun k d ->
      if d.d_seq < 1 || d.d_seq > scheduled then failf "unknown seq %d" d.d_seq;
      if at.(d.d_seq) >= 0 then failf "seq %d dispatched twice" d.d_seq;
      at.(d.d_seq) <- k)
    log;
  check_int "every scheduled task dispatched" scheduled (Array.length log);
  let key s =
    let d = log.(at.(s)) in
    (d.d_time, d.d_pri, s)
  in
  Array.iteri
    (fun k d ->
      (* pending: scheduled before this dispatch and not dispatched yet *)
      let pending =
        List.filter (fun s -> at.(s) >= k) (List.init d.d_scheduled succ)
      in
      if not (List.mem d.d_seq pending) then
        failf "seq %d dispatched before it was scheduled" d.d_seq;
      let least = List.fold_left (fun m s -> min m (key s)) (key d.d_seq) pending in
      match policy with
      | `Fifo | `Shuffle ->
        if key d.d_seq <> least then
          failf "dispatch %d ran seq %d, not the pending minimum" k d.d_seq
      | `Controlled ->
        let t, _, _ = least in
        let tie =
          Array.of_list (List.filter (fun s -> (let ts, _, _ = key s in ts) = t) pending)
        in
        (match d.d_offer with
        | None ->
          if Array.length tie <> 1 || tie.(0) <> d.d_seq then
            failf "dispatch %d: ran seq %d at %d, but %d task(s) due at %d"
              k d.d_seq d.d_time (Array.length tie) t
        | Some (offered, c) ->
          if offered <> tie then
            failf "dispatch %d: offered tie is not the due set" k;
          if offered.(c) <> d.d_seq then
            failf "dispatch %d: ran seq %d, chooser picked %d" k d.d_seq
              offered.(c)))
    log

let test_dispatch_model policy () =
  for seed = 1 to 40 do
    model_check ~seed policy
  done

let qsuite = List.map QCheck_alcotest.to_alcotest

let suites =
  [
    ( "engine.vec",
      [
        Alcotest.test_case "push/pop" `Quick test_vec_push_pop;
        Alcotest.test_case "bounds" `Quick test_vec_bounds;
        Alcotest.test_case "sort" `Quick test_vec_sort;
        Alcotest.test_case "pop retention" `Quick test_vec_pop_retention;
        Alcotest.test_case "truncate retention" `Quick
          test_vec_truncate_retention;
      ] );
    ( "engine.heap",
      Alcotest.test_case "ordering" `Quick test_heap_ordering
      :: qsuite [ prop_heap_sorts ] );
    ( "engine.wheel",
      [
        Alcotest.test_case "ordering" `Quick test_wheel_ordering;
        Alcotest.test_case "overflow far-future timers" `Quick
          test_wheel_overflow;
        Alcotest.test_case "late insert after peek" `Quick
          test_wheel_late_insert_after_peek;
        Alcotest.test_case "coincident multi-level boundary crossing" `Quick
          test_wheel_coincident_boundary;
        Alcotest.test_case "top-level window crossing" `Quick
          test_wheel_top_level_crossing;
        Alcotest.test_case "heap parity (fifo)" `Quick test_wheel_parity_fifo;
        Alcotest.test_case "heap parity (shuffled)" `Quick
          test_wheel_parity_shuffled;
      ] );
    ( "engine.sim",
      [
        Alcotest.test_case "delay ordering" `Quick test_sim_delay_ordering;
        Alcotest.test_case "same-time FIFO" `Quick test_sim_same_time_fifo;
        Alcotest.test_case "until" `Quick test_sim_until;
        Alcotest.test_case "stop" `Quick test_sim_stop;
        Alcotest.test_case "fiber failure" `Quick test_sim_fiber_failure;
        Alcotest.test_case "no past scheduling" `Quick
          test_sim_past_scheduling_rejected;
        Alcotest.test_case "heap/wheel dispatch parity" `Quick
          test_sim_sched_parity;
        Alcotest.test_case "dispatch order model (fifo)" `Quick
          (test_dispatch_model `Fifo);
        Alcotest.test_case "dispatch order model (seeded shuffle)" `Quick
          (test_dispatch_model `Shuffle);
        Alcotest.test_case "dispatch order model (controlled)" `Quick
          (test_dispatch_model `Controlled);
        Alcotest.test_case "task cells released" `Quick test_sim_task_release;
        Alcotest.test_case "create allocation bound" `Quick
          test_sim_create_alloc;
      ] );
    ( "engine.cond",
      [
        Alcotest.test_case "signal FIFO" `Quick test_cond_signal_fifo;
        Alcotest.test_case "timeout" `Quick test_cond_timeout;
        Alcotest.test_case "signal beats timeout" `Quick
          test_cond_signal_beats_timeout;
        Alcotest.test_case "timeout waiter not rewoken" `Quick
          test_cond_timeout_not_double_woken;
      ] );
    ( "engine.mailbox",
      [
        Alcotest.test_case "fifo" `Quick test_mailbox_fifo;
        Alcotest.test_case "recv timeout empty" `Quick test_mailbox_timeout;
        Alcotest.test_case "recv timeout delivery" `Quick
          test_mailbox_timeout_delivery;
      ] );
    ( "engine.resource",
      Alcotest.test_case "fifo serialization" `Quick
        test_resource_fifo_serialization
      :: Alcotest.test_case "idle gap" `Quick test_resource_idle_gap
      :: qsuite [ prop_resource_fifo ] );
    ( "engine.rng",
      Alcotest.test_case "deterministic" `Quick test_rng_deterministic
      :: Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ
      :: qsuite [ prop_rng_int_bounds; prop_rng_float_unit ] );
    ( "engine.stats",
      Alcotest.test_case "summary basics" `Quick test_summary_basics
      :: Alcotest.test_case "stddev" `Quick test_summary_stddev
      :: Alcotest.test_case "percentile edge cases" `Quick test_percentile_edges
      :: Alcotest.test_case "counter reset" `Quick test_counter_reset
      :: qsuite [ prop_percentile_bounded ] );
    ( "engine.metrics",
      [
        Alcotest.test_case "counters and gauges" `Quick test_metrics_counters;
        Alcotest.test_case "histogram percentiles" `Quick
          test_metrics_histogram_percentiles;
        Alcotest.test_case "reset" `Quick test_metrics_reset;
        Alcotest.test_case "per-sim registry" `Quick
          test_metrics_per_sim_registry;
        Alcotest.test_case "dead-sim registry eviction" `Quick
          test_registry_eviction;
      ] );
    ( "engine.trace-events",
      [
        Alcotest.test_case "event ordering" `Quick test_trace_event_ordering;
        Alcotest.test_case "disabled records nothing" `Quick
          test_trace_disabled_records_nothing;
        Alcotest.test_case "span totals" `Quick test_trace_span_totals;
        Alcotest.test_case "chrome json shape" `Quick
          test_trace_chrome_json_shape;
        Alcotest.test_case "overlapping span ids" `Quick
          test_trace_overlapping_spans_by_id;
      ] );
    ( "engine.time",
      [
        Alcotest.test_case "units" `Quick test_time_units;
        Alcotest.test_case "mbps" `Quick test_time_mbps;
      ] );
  ]
