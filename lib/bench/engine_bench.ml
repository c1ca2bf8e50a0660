(* Event-core throughput shapes. See the .mli for what each models. *)

open Uls_engine

type sched = [ `Heap | `Wheel ]

type shape = {
  sh_name : string;
  sh_conns : int;
  sh_cycles : int;
  sh_timeout : Time.ns;
  sh_far : bool;
}

(* Cycle counts are sized so every run executes a few hundred thousand
   to a million events — long enough that Sys.time's resolution is
   noise, short enough that the whole matrix runs in seconds. *)
let shapes =
  [
    { sh_name = "pingpong"; sh_conns = 1; sh_cycles = 200_000;
      sh_timeout = Time.us 100; sh_far = false };
    { sh_name = "serve-512"; sh_conns = 512; sh_cycles = 400;
      sh_timeout = Time.ms 50; sh_far = false };
    { sh_name = "fabric-4096"; sh_conns = 4_096; sh_cycles = 64;
      sh_timeout = Time.ms 50; sh_far = true };
    { sh_name = "fabric-65536"; sh_conns = 65_536; sh_cycles = 8;
      sh_timeout = Time.ms 50; sh_far = true };
  ]

type row = {
  scenario : string;
  conns : int;
  sched : sched;
  events : int;
  elapsed_s : float;
  events_per_sec : float;
  minor_words_per_event : float;
}

let sched_name = function `Heap -> "heap" | `Wheel -> "wheel"

(* Per-connection request loop, callbacks only (no fibers, so the
   measurement is queue cost plus dispatch, nothing else). Each cycle
   dispatches one activity event, arms one stale retransmission timer
   (fires as a no-op [sh_timeout] later — the cancelled-timer pattern
   every stack generates), and schedules the next cycle one jittered
   period ahead. All connections run concurrently, so the standing
   population peaks near conns x cycles stale timers. *)
let install sim sh =
  let nop () = () in
  for i = 0 to sh.sh_conns - 1 do
    (* deterministic per-conn jitter decorrelates same-slot bursts *)
    let period = Time.us 20 + ((i * 37) land 0xfff) in
    let rec cycle k t =
      Sim.at sim t (fun () ->
          Sim.at sim (t + sh.sh_timeout) nop;
          if k + 1 < sh.sh_cycles then cycle (k + 1) (t + period))
    in
    cycle 0 (Time.us 1 + i);
    if sh.sh_far then begin
      (* idle-close horizon: seconds out, top wheel levels *)
      Sim.at sim (Time.s 2 + (i * 977)) nop;
      (* sparse lease timers past the wheel's top range: overflow heap *)
      if i land 1023 = 0 then Sim.at sim ((1 lsl 41) + i) nop
    end
  done

let run_shape ~sched sh =
  let sim =
    match sched with `Heap -> Sim.create_reference () | `Wheel -> Sim.create ()
  in
  install sim sh;
  let t0 = Sys.time () in
  let g0 = Gc.minor_words () in
  (match Sim.run sim with
  | `Quiescent -> ()
  | `Time_limit | `Stopped -> failwith "Engine_bench: run did not quiesce");
  let gained = Gc.minor_words () -. g0 in
  let elapsed = Sys.time () -. t0 in
  let events = Sim.events_executed sim in
  {
    scenario = sh.sh_name;
    conns = sh.sh_conns;
    sched;
    events;
    elapsed_s = elapsed;
    events_per_sec =
      (if elapsed > 0. then float_of_int events /. elapsed else 0.);
    minor_words_per_event =
      (if events > 0 then gained /. float_of_int events else 0.);
  }

let samples = 5

let run_all () =
  List.concat_map
    (fun sh ->
      List.concat
        (List.init samples (fun _ ->
             [ run_shape ~sched:`Heap sh; run_shape ~sched:`Wheel sh ])))
    shapes

let median_by key xs =
  let sorted = List.stable_sort (fun a b -> Float.compare (key a) (key b)) xs in
  List.nth sorted ((List.length sorted - 1) / 2)

type summary = {
  shape : shape;
  pairs : (row * row) list;
  heap : row;
  wheel : row;
  lo : float;
  hi : float;
}

let speedup (h, w) =
  if h.events_per_sec > 0. then w.events_per_sec /. h.events_per_sec else 0.

(* The k-th heap row of a shape pairs with its k-th wheel row: the two
   ran back to back. *)
let summarize rows =
  List.map
    (fun sh ->
      let of_sched s =
        List.filter (fun r -> r.scenario = sh.sh_name && r.sched = s) rows
      in
      let pairs = List.combine (of_sched `Heap) (of_sched `Wheel) in
      let heap, wheel = median_by speedup pairs in
      let ratios = List.map speedup pairs in
      {
        shape = sh;
        pairs;
        heap;
        wheel;
        lo = List.fold_left Float.min infinity ratios;
        hi = List.fold_left Float.max neg_infinity ratios;
      })
    shapes

(* --- records and gates -------------------------------------------------- *)

let to_record r =
  Record.
    [
      ("bench", Str "engine");
      ("scenario", Str r.scenario);
      ("sched", Str (sched_name r.sched));
      ("conns", Int r.conns);
      ("events", Int r.events);
      ("elapsed_s", Float r.elapsed_s);
      ("events_per_sec", Float r.events_per_sec);
      ("minor_words_per_event", Float r.minor_words_per_event);
    ]

(* The steady-state cost is the workload's own per-cycle closures
   (measured 9-12.2 minor words/event across shapes); the dispatch loop,
   including the analysis hooks when no tracker is attached, must add
   nothing. 14.0 leaves noise headroom yet trips on a single boxed
   allocation per event on the heavier shapes. *)
let alloc_ceiling = 14.0

let check ~file baseline rows =
  let failures = ref [] in
  (* Samples of one shape fail alike; say so once. *)
  let fail fmt =
    Printf.ksprintf
      (fun m -> if not (List.mem m !failures) then failures := m :: !failures)
      fmt
  in
  let summaries = summarize rows in
  (* Dispatch parity: the wheel must execute exactly the reference
     heap's events, in every sample. *)
  List.iter
    (fun (h, w) ->
      if h.events <> w.events then
        fail "%s: heap dispatched %d events, wheel %d" h.scenario h.events
          w.events)
    (List.concat_map (fun s -> s.pairs) summaries);
  List.iter
    (fun r ->
      if r.minor_words_per_event > alloc_ceiling then
        fail
          "%s/%s: %.2f minor words/event exceeds the %.1f allocation \
           ceiling (engine hot path started allocating)"
          r.scenario (sched_name r.sched) r.minor_words_per_event alloc_ceiling)
    rows;
  (* The wheel's claim: O(1) queue ops must show at fleet scale. Wall
     clock gates read the median pair, never one sample. *)
  let s = List.find (fun s -> s.shape.sh_name = "fabric-65536") summaries in
  if s.wheel.events_per_sec < 2.0 *. s.heap.events_per_sec then
    fail "fabric-65536: wheel %.0f ev/s < 2x heap %.0f ev/s"
      s.wheel.events_per_sec s.heap.events_per_sec;
  (* Baseline gates. Event counts are deterministic, so they must match
     the committed records exactly; raw events/sec is machine-dependent,
     so the regression gate runs on the median wheel-vs-heap speedup
     ratio (machine-independent to first order): each scenario's must
     reach 80% of the baseline's. *)
  (match baseline with
  | Error e -> fail "%s" e
  | Ok recs ->
    let base sched name key =
      Record.last recs key
        ~where:
          [
            ("bench", Str "engine");
            ("scenario", Str name);
            ("sched", Str (sched_name sched));
          ]
    in
    List.iter
      (fun s ->
        let name = s.shape.sh_name in
        List.iter
          (fun r ->
            match base r.sched name "events" with
            | Some (Int v) when v = r.events -> ()
            | Some (Int v) ->
              fail
                "%s/%s: %d events, baseline %d (event structure changed — \
                 recapture the baseline deliberately)"
                name (sched_name r.sched) r.events v
            | _ ->
              fail "%s/%s: no baseline event count in %s" name
                (sched_name r.sched) file)
          (List.filter (fun r -> r.scenario = name) rows);
        match
          (base `Heap name "events_per_sec", base `Wheel name "events_per_sec")
        with
        | Some (Float bh), Some (Float bw) ->
          if bh > 0. && s.heap.events_per_sec > 0. then begin
            let base_ratio = bw /. bh in
            let ratio = speedup (s.heap, s.wheel) in
            if ratio < 0.8 *. base_ratio then
              fail
                "%s: wheel/heap speedup %.2fx regressed more than 20%% from \
                 baseline %.2fx"
                name ratio base_ratio
          end
        | _ -> fail "%s: no baseline heap and wheel events/sec in %s" name file)
      summaries);
  List.rev !failures
