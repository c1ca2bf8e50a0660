(* The benchmark: one workload per invocation, every end-to-end metric
   by name with its unit, self-checks, and a final JSON line.

   Virtual-clock metrics come from the first run of the workload's main
   leg (plus its capacity ladder and the Figure 13 reference, each run
   once); they are deterministic, and every later repetition must
   reproduce them exactly. Host-clock metrics are the median over
   repetitions of the main leg for the requested number of seconds,
   each in a fresh child process. With [--trace 1] the repetitions
   alternate untraced and traced, and the per-layer metrics are printed
   instead. *)

open Uls_engine
module Opt = Uls_substrate.Options

let fi = float_of_int

(* --- workloads ----------------------------------------------------------------- *)

(* The main leg's virtual-clock figures, plus every leg it ran. *)
type main = { figures : (string * float) list; legs : Legs.t list }

let lat_limit_us = 500.

let lat_figures (l : Legs.t) =
  let sorted = Derive.sorted_of_list l.lat_ns in
  List.map
    (fun (name, p) -> (name, Derive.percentile sorted p))
    [ ("lat_p50_us", 0.5); ("lat_p99_us", 0.99); ("lat_p999_us", 0.999) ]

let rate_figures (l : Legs.t) =
  [
    ("msgs_per_s", fi l.msgs /. (fi l.elapsed_ns /. 1e9));
    ("goodput_mbps", Time.mbps ~bytes_transferred:l.bytes ~elapsed:l.elapsed_ns);
  ]

let pct_figures (l : Legs.t) =
  List.map (fun (n, (p : Derive.pct)) -> (n, p.value /. 1e3)) (lat_figures l)

(* A rung passes when the p99 it measured is supported and within the
   limit and every operation completed. *)
let rung_ok (l : Legs.t) =
  let p = Derive.percentile (Derive.sorted_of_list l.lat_ns) 0.99 in
  p.supported && p.value /. 1e3 <= lat_limit_us && l.failed = 0

module Churn = struct
  let rate = 100_000.

  let main ~seed =
    let l = Legs.Churn.run ~seed ~rate ~n:11_000 ~warmup:1_000 ~until:(Time.s 60) in
    { figures = rate_figures l @ pct_figures l; legs = [ l ] }

  let rungs = Derive.ladder ~lo:120_000. ~hi:200_000. ~step:1.025

  (* 3500 sampled sessions per rung keep the p99 each rung measures
     within a few µs across seeds. A rung past the knee is cut off 20 ms
     after its last arrival instead of being run to quiescence. *)
  let rung ~seed rate =
    rung_ok
      (Legs.Churn.run ~seed ~rate ~n:4_000 ~warmup:500
         ~until:(Time.ms 22 + int_of_float (4_000. *. 1e9 /. rate)))
end

module Firehose = struct
  let cfg =
    {
      Legs.Spray.sinks = 4;
      per_sink = 3_000;
      size = 64;
      batch = 32;
      opts = { Opt.datagram with Opt.rx_ring = true; credits = 64 };
      rate = None;
    }

  let main ~seed =
    let l = Legs.Spray.run ~seed cfg in
    { figures = rate_figures l @ pct_figures l; legs = [ l ] }

  let rungs = Derive.ladder ~lo:50_000. ~hi:250_000. ~step:1.02

  let rung ~seed rate =
    rung_ok (Legs.Spray.run ~seed { cfg with rate = Some rate })
end

module Fig13 = struct
  let ds_iters = 12_000
  let tcp_iters = 2_000
  let msg = 65_536

  let stream_count = 192

  (* The model has no jitter, so with a fixed size every seed would time
     the same ping-pong: the seed picks the message size from 2..6 B
     (mean 4 B, the paper's point; latency moves ~6 ns per byte). *)
  let size ~seed = 2 + Rng.int (Rng.create ~seed:(seed lxor 0x5eed)) 5

  type t = { ds_pp : Legs.t; ds_st : Legs.t; tcp_pp : Legs.t; tcp_st : Legs.t }

  let run ~seed =
    let open Legs.Fig13 in
    let size = size ~seed and count = stream_count in
    let ds_pp = ping_pong ~seed ~stack:Ds ~iters:ds_iters ~size in
    let ds_st = stream ~seed ~stack:Ds ~count ~msg in
    let tcp_pp = ping_pong ~seed ~stack:Tcp ~iters:tcp_iters ~size in
    let tcp_st = stream ~seed ~stack:Tcp ~count ~msg in
    { ds_pp; ds_st; tcp_pp; tcp_st }

  let mbps (l : Legs.t) = Time.mbps ~bytes_transferred:l.bytes ~elapsed:l.elapsed_ns
  let mean_us (l : Legs.t) = Derive.mean l.lat_ns /. 1e3

  (* The paper's statistics: mean one-way latency and stream goodput. *)
  let reference f =
    let tcp_p50 = Derive.percentile (Derive.sorted_of_list f.tcp_pp.lat_ns) 0.5 in
    [
      ("tcp_lat_p50_us", tcp_p50.value /. 1e3);
      ("tcp_goodput_mbps", mbps f.tcp_st);
      ( "paper_err_pct",
        Derive.paper_err_pct ~ds_lat_us:(mean_us f.ds_pp) ~tcp_lat_us:(mean_us f.tcp_pp)
          ~tcp_mbps:(mbps f.tcp_st) ~ds_mbps:(mbps f.ds_st) );
    ]

  let main ~seed =
    let f = run ~seed in
    let ds_msgs = f.ds_pp.msgs + f.ds_st.msgs in
    let ds_elapsed = f.ds_pp.elapsed_ns + f.ds_st.elapsed_ns in
    {
      figures =
        [
          ("msgs_per_s", fi ds_msgs /. (fi ds_elapsed /. 1e9)); ("goodput_mbps", mbps f.ds_st);
        ]
        @ pct_figures f.ds_pp @ reference f;
      legs = [ f.ds_pp; f.ds_st; f.tcp_pp; f.tcp_st ];
    }

  let rungs = Derive.ladder ~lo:20_000. ~hi:200_000. ~step:1.02

  let rung ~seed rate =
    rung_ok
      (Legs.Spray.run ~seed
         {
           Legs.Spray.sinks = 1;
           per_sink = 12_000;
           size = 4;
           batch = 1;
           opts = Opt.data_streaming_enhanced;
           rate = Some rate;
         })
end

type workload = {
  name : string;
  main : seed:int -> main;
  rungs : float array;
  rung : seed:int -> float -> bool;
  own_reference : bool;  (** the main leg already holds Figure 13 *)
}

let workloads =
  [
    { name = "fabric-churn"; main = Churn.main; rungs = Churn.rungs; rung = Churn.rung;
      own_reference = false };
    { name = "firehose-64"; main = Firehose.main; rungs = Firehose.rungs;
      rung = Firehose.rung; own_reference = false };
    { name = "paper-fig13"; main = Fig13.main; rungs = Fig13.rungs; rung = Fig13.rung;
      own_reference = true };
  ]

(* --- measurement ---------------------------------------------------------------- *)

let e2e_units =
  [
    ("msgs_per_s", "msg/s"); ("goodput_mbps", "Mb/s"); ("lat_p50_us", "us");
    ("lat_p99_us", "us"); ("lat_p999_us", "us"); ("capacity_per_s", "op/s");
    ("tcp_lat_p50_us", "us"); ("tcp_goodput_mbps", "Mb/s"); ("paper_err_pct", "%");
    ("wall_s", "s"); ("setup_s", "s");
  ]

(* Every leg runs in a forked child that returns a plain summary over a
   pipe. The library retains each simulation it builds (the substrate's
   send-pool registry is keyed by simulation id and never evicted), so
   in one process memory would grow with every leg run; a child also
   starts each repetition from the same small heap, which keeps host
   times comparable. The result must not contain closures. *)
let in_child (f : unit -> 'a) : 'a =
  flush_all ();
  Gc.compact ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let v = try Ok (f ()) with e -> Error (Printexc.to_string e) in
    let oc = Unix.out_channel_of_descr w in
    Marshal.to_channel oc (v : ('a, string) result) [];
    close_out oc;
    Unix._exit 0
  | pid -> (
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let v : ('a, string) result =
      try Marshal.from_channel ic with End_of_file -> Error "child died"
    in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    match v with Ok v -> v | Error e -> failwith ("perfbench child: " ^ e))

(* What the parent keeps of one run of the main leg. *)
type rep = {
  figures : (string * float) list;
  host : Legs.host;
  attempted : int;
  failed : int;
  events : int;
  pcts : (string * Derive.pct) list;
  checks : (string * bool) list;
  layers : Layers.metric list;  (** traced runs only *)
  cal : float list;  (** calibration kernel times around this run *)
}

let run_main (w : workload) ~seed ~traced =
  in_child (fun () ->
      let cal_before = [ Calib.run (); Calib.run () ] in
      Spans.enabled := traced;
      let m = w.main ~seed in
      Spans.enabled := false;
      let cal = cal_before @ [ Calib.run (); Calib.run () ] in
      let sum f = List.fold_left (fun a (l : Legs.t) -> a + f l) 0 m.legs in
      let runs = List.concat_map (fun (l : Legs.t) -> l.clusters) m.legs in
      let layers =
        if not traced then []
        else begin
          (try Sys.mkdir ".bench_out" 0o755 with Sys_error _ -> ());
          Spans.write (Printf.sprintf ".bench_out/%s-seed%d.spans.tsv" w.name seed);
          Layers.compute m.legs
        end
      in
      {
        figures = m.figures;
        host = List.fold_left (fun h (l : Legs.t) -> Legs.add_host h l.host) Legs.host_zero m.legs;
        attempted = sum (fun l -> l.attempted);
        failed = sum (fun l -> l.failed);
        events =
          List.fold_left (fun a (c, _) -> a + Sim.events_executed (Uls_bench.Cluster.sim c)) 0 runs;
        pcts = lat_figures (List.hd m.legs);
        checks =
          List.concat_map (fun (l : Legs.t) -> l.checks) m.legs
          @ [ ("resources.busy_within_elapsed", Layers.busy_within_elapsed runs) ];
        layers;
        cal;
      })

(* Repeat the main leg until [seconds] have passed and it has run at
   least three times untraced; with [traced], every other run records
   spans. Returns the untraced and the traced runs, oldest first. *)
let repeat ~seconds ~traced (w : workload) ~seed =
  let t_end = Unix.gettimeofday () +. fi seconds in
  let plain = ref [] and spans = ref [] in
  let i = ref 0 in
  while Unix.gettimeofday () < t_end || List.length !plain < 3 || (traced && !spans = []) do
    let tracing = traced && !i mod 2 = 1 in
    let r = run_main w ~seed ~traced:tracing in
    if tracing then spans := r :: !spans else plain := r :: !plain;
    incr i
  done;
  (List.rev !plain, List.rev !spans)

let median_host f reps = Derive.median (List.map (fun r -> f r.host) reps)

(* Factor taking host seconds measured in these runs to seconds of the
   nominal host (see {!Calib}). *)
let host_scale reps = Calib.nominal_s /. Derive.median (List.concat_map (fun r -> r.cal) reps)

(* --- output ---------------------------------------------------------------------- *)

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit_) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed body

let usage () =
  prerr_endline
    "usage: main.exe --workload fabric-churn|firehose-64|paper-fig13 --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref (-1) and trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "name");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_int seconds, "host seconds of repetitions");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
    ]
    (fun _ -> usage ())
    "perfbench";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None -> usage ()
  in
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then usage ();
  let seed = !seed and seconds = !seconds and traced = !trace = 1 in
  Printf.printf "provenance: ocaml=%s word_size=%d\n" Sys.ocaml_version Sys.word_size;
  Printf.printf "workload %s seed %d seconds %d trace %d\n%!" w.name seed seconds !trace;
  let checks = ref [] in
  let check name ok = checks := (name, ok) :: !checks in
  (* Virtual-only legs run once: the capacity ladder and, where the main
     leg is not Figure 13 itself, the Figure 13 reference. The traced
     run reports per-layer numbers of the main leg only. *)
  let extra =
    if traced then []
    else begin
      let cap, probes = Derive.capacity w.rungs (fun r -> in_child (fun () -> w.rung ~seed r)) in
      List.iter
        (fun (r, ok) -> Printf.printf "  capacity rung %.0f/s: %s\n" r (if ok then "pass" else "fail"))
        probes;
      check "capacity.lowest_rung_passes" (cap <> None);
      let reference =
        if w.own_reference then []
        else begin
          let figures, ref_checks =
            in_child (fun () ->
                let f = Fig13.run ~seed in
                let legs = [ f.ds_pp; f.ds_st; f.tcp_pp; f.tcp_st ] in
                ( Fig13.reference f,
                  ("no_failures", List.for_all (fun (l : Legs.t) -> l.failed = 0) legs)
                  :: List.concat_map (fun (l : Legs.t) -> l.checks) legs ))
          in
          List.iter (fun (n, ok) -> check ("reference." ^ n) ok) ref_checks;
          figures
        end
      in
      ("capacity_per_s", Option.value cap ~default:0.) :: reference
    end
  in
  let plain, traced_reps = repeat ~seconds ~traced w ~seed in
  let first = List.hd plain in
  List.iter
    (fun (n, (p : Derive.pct)) ->
      Printf.printf "  %s: %d samples, %d beyond\n" n p.n p.beyond;
      check (n ^ ".supported") p.supported)
    first.pcts;
  Printf.printf "  fail_frac: %.6f (%d failed / %d attempted)\n"
    (fi first.failed /. fi (max 1 first.attempted))
    first.failed first.attempted;
  List.iter (fun (n, ok) -> check n ok) first.checks;
  List.iter
    (fun r -> check "repeat.identical_virtual_metrics" (r.figures = first.figures))
    (plain @ traced_reps);
  let scale = host_scale plain in
  let raw_wall = median_host (fun h -> h.Legs.wall_s) plain in
  let raw_setup = median_host (fun h -> h.Legs.setup_s) plain in
  let wall = raw_wall *. scale and setup = raw_setup *. scale in
  Printf.printf "  repetitions: %d untraced, %d traced; untraced wall_s %s\n" (List.length plain)
    (List.length traced_reps)
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.4f" r.host.wall_s) plain));
  Printf.printf
    "  host speed: calibration kernel median %.4f s (nominal %.3f s), scale %.4f; raw medians \
     wall %.4f s, setup %.5f s\n"
    (Calib.nominal_s /. scale) Calib.nominal_s scale raw_wall raw_setup;
  let metrics =
    if traced then begin
      let t_wall = median_host (fun h -> h.Legs.wall_s) traced_reps *. host_scale traced_reps in
      let t = List.hd traced_reps in
      let events = fi first.events in
      let layers =
        [
          Layers.m "engine.events" "count" events;
          Layers.m "engine.host_ns_per_event" "ns" (wall *. 1e9 /. events)
            ~note:"scaled untraced median wall / events";
          Layers.ratio "engine.minor_words_per_event" "words" ~num:first.host.minor_words
            ~den:events ~base:"events";
          Layers.m "engine.major_collections" "count" (fi first.host.major_gcs);
        ]
        @ t.layers
        @ [
            Layers.m "trace.overhead_frac" "ratio" ((t_wall /. wall) -. 1.)
              ~note:(Printf.sprintf "traced median wall %.4f s / untraced %.4f s - 1" t_wall wall);
          ]
      in
      Printf.printf "  spans written to .bench_out/%s-seed%d.spans.tsv\n" w.name seed;
      List.iter
        (fun (l : Layers.metric) ->
          Printf.printf "  %-34s %14.4f %-6s %s\n" l.name l.value l.unit_ l.note)
        layers;
      List.map (fun (l : Layers.metric) -> (l.name, l.value, l.unit_)) layers
    end
    else begin
      let all = first.figures @ extra @ [ ("wall_s", wall); ("setup_s", setup) ] in
      List.map
        (fun (name, unit_) ->
          let v = List.assoc name all in
          Printf.printf "  %-18s %16.4f %s\n" name v unit_;
          (name, v, unit_))
        e2e_units
    end
  in
  let failed_checks = List.filter (fun (_, ok) -> not ok) (List.rev !checks) in
  List.iter (fun (n, _) -> Printf.printf "  CHECK FAILED: %s\n" n) failed_checks;
  Printf.printf "  checks: %d run, %d failed\n" (List.length !checks) (List.length failed_checks);
  let correct = failed_checks = [] && first.failed = 0 in
  print_result ~correct ~attempted:first.attempted ~failed:first.failed metrics;
  exit (if correct then 0 else 1)
