(* Command-line driver for the reproduction: run paper experiments or
   one-off micro-benchmarks on the simulated testbed. *)

open Cmdliner

let stack_conv =
  let parse = function
    | "emp" -> Ok `Emp
    | "tcp" -> Ok `Tcp
    | "tcp-tuned" -> Ok `Tcp_tuned
    | "ds" -> Ok `Ds
    | "ds-base" -> Ok `Ds_base
    | "dg" -> Ok `Dg
    | s -> Error (`Msg (Printf.sprintf "unknown stack %S" s))
  in
  let print fmt s =
    Format.pp_print_string fmt
      (match s with
      | `Emp -> "emp"
      | `Tcp -> "tcp"
      | `Tcp_tuned -> "tcp-tuned"
      | `Ds -> "ds"
      | `Ds_base -> "ds-base"
      | `Dg -> "dg")
  in
  Arg.conv (parse, print)

let kind_of_stack = function
  | `Emp -> Uls_bench.Microbench.Emp_raw
  | `Tcp -> Uls_bench.Microbench.Tcp Uls_tcp.Config.default
  | `Tcp_tuned ->
    Uls_bench.Microbench.Tcp Uls_tcp.Config.(with_buffers default 262_144)
  | `Ds -> Uls_bench.Microbench.Sub Uls_substrate.Options.data_streaming_enhanced
  | `Ds_base -> Uls_bench.Microbench.Sub Uls_substrate.Options.data_streaming
  | `Dg -> Uls_bench.Microbench.Sub Uls_substrate.Options.datagram

(* The sockets stacks of chaos, serve and fabric; [ds] is the command's
   preset for `ds`. *)
let sock_kind ~cmd ~ds = function
  | `Emp ->
    Printf.eprintf "ulsbench %s: raw EMP has no sockets stream; use ds/dg\n"
      cmd;
    exit 124
  | `Tcp -> Uls_bench.Chaos.Tcp Uls_tcp.Config.default
  | `Tcp_tuned ->
    Uls_bench.Chaos.Tcp Uls_tcp.Config.(with_buffers default 262_144)
  | `Ds -> Uls_bench.Chaos.Sub ds
  | `Ds_base -> Uls_bench.Chaos.Sub Uls_substrate.Options.data_streaming
  | `Dg -> Uls_bench.Chaos.Sub Uls_substrate.Options.datagram

(* --- figures ----------------------------------------------------------- *)

let figures_cmd =
  let ids =
    Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT"
           ~doc:"Experiment ids (fig11..fig17, connect, abl-*). Default: all.")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Smaller sweeps, faster run.")
  in
  let run ids quick =
    let tables =
      match ids with
      | [] -> Uls_bench.Experiments.all ~quick ()
      | ids ->
        List.map
          (fun id ->
            match List.assoc_opt id Uls_bench.Experiments.by_id with
            | Some f -> f ~quick ()
            | None -> failwith (Printf.sprintf "unknown experiment %S" id))
          ids
    in
    List.iter (Uls_bench.Table.print Format.std_formatter) tables
  in
  Cmd.v
    (Cmd.info "figures" ~doc:"Regenerate the paper's tables and figures")
    Term.(const run $ ids $ quick)

(* --- one-off latency/bandwidth ----------------------------------------- *)

let metrics_flag =
  Arg.(value & flag & info [ "metrics" ]
         ~doc:"Dump the per-node metrics registry after the run.")

let dump_metrics m = Uls_engine.Metrics.dump m Format.std_formatter

(* The pass/fail tally that every --check and --smoke run, chaos and
   races share. [fail] names a failed gate on stderr under the command's
   prefix; [count] tallies one the caller reported itself. [finish]
   exits 1 after [summary] (default "N failure(s)") if any gate failed,
   else prints [ok]. *)
type gates = { prefix : string; mutable failed : int }

let gates prefix = { prefix; failed = 0 }
let count g = g.failed <- g.failed + 1

let fail g fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "%s: %s\n" g.prefix msg;
      count g)
    fmt

let finish ?(summary = Some (Printf.sprintf "%d failure(s)")) ?ok g =
  if g.failed > 0 then begin
    Option.iter
      (fun s -> Printf.eprintf "%s: %s\n" g.prefix (s g.failed))
      summary;
    exit 1
  end;
  Option.iter print_endline ok

(* Kernel TCP takes no NIC tag matching, so its records say "n/a". *)
let match_name kind engine =
  match kind with
  | Uls_bench.Chaos.Tcp _ -> "n/a"
  | Uls_bench.Chaos.Sub _ -> Uls_nic.Match_list.engine_name engine

let match_conv =
  let parse s =
    match Uls_nic.Match_list.engine_of_string s with
    | Some e -> Ok e
    | None -> Error (`Msg (Printf.sprintf "unknown match engine %S" s))
  in
  let print fmt e =
    Format.pp_print_string fmt (Uls_nic.Match_list.engine_name e)
  in
  Arg.conv (parse, print)

let match_engine_flag =
  Arg.(value & opt match_conv Uls_nic.Match_list.Hashed
       & info [ "match" ] ~docv:"ENGINE"
           ~doc:"NIC tag-match engine: $(b,hashed) (per-key descriptor \
                 rings + RSS across both receive cores) or $(b,linear) \
                 (the paper's measured O(descriptors) walk, kept as the \
                 ablation baseline).")

let latency_cmd =
  let stack =
    Arg.(value & opt stack_conv `Ds & info [ "stack" ] ~docv:"STACK"
           ~doc:"emp | tcp | tcp-tuned | ds | ds-base | dg")
  in
  let size =
    Arg.(value & opt int 4 & info [ "size" ] ~docv:"BYTES" ~doc:"Message size.")
  in
  let iters = Arg.(value & opt int 30 & info [ "iters" ] ~doc:"Iterations.") in
  let run stack size iters metrics =
    let us, _, m =
      Uls_bench.Microbench.ping_pong_observed ~iters ~kind:(kind_of_stack stack)
        ~size ()
    in
    Printf.printf "%d-byte one-way latency: %.2f us\n" size us;
    if metrics then dump_metrics m
  in
  Cmd.v
    (Cmd.info "latency" ~doc:"Ping-pong one-way latency on a 2-node cluster")
    Term.(const run $ stack $ size $ iters $ metrics_flag)

let bandwidth_cmd =
  let stack =
    Arg.(value & opt stack_conv `Ds & info [ "stack" ] ~docv:"STACK"
           ~doc:"emp | tcp | tcp-tuned | ds | ds-base | dg")
  in
  let msg =
    Arg.(value & opt int 65_536 & info [ "msg" ] ~docv:"BYTES" ~doc:"Message size.")
  in
  let total =
    Arg.(value & opt int (16 * 1024 * 1024) & info [ "total" ] ~docv:"BYTES"
           ~doc:"Total bytes to stream.")
  in
  let run stack msg total metrics =
    let mbps, _, m =
      Uls_bench.Microbench.bandwidth_observed ~total ~kind:(kind_of_stack stack)
        ~msg ()
    in
    Printf.printf "stream bandwidth (%d-byte messages): %.1f Mb/s\n" msg mbps;
    if metrics then dump_metrics m
  in
  Cmd.v
    (Cmd.info "bandwidth" ~doc:"Unidirectional stream bandwidth")
    Term.(const run $ stack $ msg $ total $ metrics_flag)

(* --- chaos -------------------------------------------------------------- *)

let chaos_cmd =
  let stacks =
    Arg.(value & opt_all stack_conv [ `Ds; `Tcp ] & info [ "stack" ]
           ~docv:"STACK"
           ~doc:"Stack(s) to sweep (repeatable): tcp | tcp-tuned | ds | \
                 ds-base | dg. Default: ds and tcp.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED"
           ~doc:"Fault-engine seed; same seed, same fault sequence.")
  in
  let total =
    Arg.(value & opt int (4 * 1024 * 1024) & info [ "total" ] ~docv:"BYTES"
           ~doc:"Bytes streamed per run.")
  in
  let msg =
    Arg.(value & opt int 16_384 & info [ "msg" ] ~docv:"BYTES"
           ~doc:"Bytes per write.")
  in
  let rates =
    Arg.(value & opt (list float) Uls_bench.Chaos.default_rates
         & info [ "loss" ] ~docv:"P,P,..."
             ~doc:"Frame-loss probabilities to sweep (fractions, not %).")
  in
  let run stacks seed total msg rates =
    let g = gates "ulsbench chaos" in
    List.iter
      (fun stack ->
        let kind =
          sock_kind ~cmd:"chaos"
            ~ds:Uls_substrate.Options.data_streaming_enhanced stack
        in
        let rows = Uls_bench.Chaos.sweep ~seed ~rates ~total ~msg ~kind () in
        Uls_bench.Chaos.print_table Format.std_formatter ~kind rows;
        List.iter
          (fun r ->
            if not (r.Uls_bench.Chaos.completed && r.Uls_bench.Chaos.intact)
            then count g)
          rows)
      stacks;
    finish g ~summary:(Some (Printf.sprintf "%d run(s) hung or corrupted data"))
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Stream a checksummed payload under seeded frame loss and print \
          goodput/retransmission tables per loss rate; exits non-zero if \
          any run hangs or delivers corrupt bytes")
    Term.(const run $ stacks $ seed $ total $ msg $ rates)

(* --- serve -------------------------------------------------------------- *)

let serve_cmd =
  let open Uls_bench in
  let stack =
    Arg.(value & opt stack_conv `Ds & info [ "stack" ] ~docv:"STACK"
           ~doc:"tcp | tcp-tuned | ds | ds-base | dg. For serving, ds maps \
                 to the substrate's server preset (small per-connection \
                 buffers, piggy-backed acks).")
  in
  let workload_conv =
    let parse = function
      | "echo" -> Ok Load.Echo
      | "http" -> Ok Load.Http
      | s -> Error (`Msg (Printf.sprintf "unknown workload %S" s))
    in
    let print fmt w =
      Format.pp_print_string fmt
        (match w with Load.Echo -> "echo" | Load.Http -> "http")
    in
    Arg.conv (parse, print)
  in
  let conns =
    Arg.(value & opt int 64 & info [ "conns" ] ~docv:"N"
           ~doc:"Concurrent client connections.")
  in
  let requests =
    Arg.(value & opt int 8 & info [ "requests" ] ~docv:"N"
           ~doc:"Requests per connection.")
  in
  let size =
    Arg.(value & opt int 512 & info [ "size" ] ~docv:"BYTES"
           ~doc:"Echo payload / HTTP response-body size.")
  in
  let workload =
    Arg.(value & opt workload_conv Load.Echo & info [ "workload" ]
           ~docv:"W" ~doc:"echo | http")
  in
  let open_loop =
    Arg.(value & opt (some float) None & info [ "rate" ] ~docv:"REQ/S"
           ~doc:"Open-loop arrival rate (requests/s, fleet-wide). \
                 Without it the fleet runs closed-loop.")
  in
  let think =
    Arg.(value & opt float 0. & info [ "think" ] ~docv:"US"
           ~doc:"Mean think time between requests (us, closed loop).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED"
                    ~doc:"Rng seed; same seed, same run.") in
  let loss =
    Arg.(value & opt float 0. & info [ "loss" ] ~docv:"P"
           ~doc:"Uniform frame-loss probability (fault engine).")
  in
  let clients =
    Arg.(value & opt int 0 & info [ "clients" ] ~docv:"N"
           ~doc:"Client nodes the fleet spreads over (0 = auto).")
  in
  let backlog =
    Arg.(value & opt int 0 & info [ "backlog" ] ~docv:"N"
           ~doc:"Server listen backlog (0 = auto).")
  in
  let workers =
    Arg.(value & opt int 4 & info [ "workers" ] ~docv:"N"
           ~doc:"Scheduler worker fibers.")
  in
  let max_inflight =
    Arg.(value & opt int 0 & info [ "max-inflight" ] ~docv:"N"
           ~doc:"Admission limit; accepts beyond it are shed with an \
                 explicit reject (0 = unlimited).")
  in
  let smoke =
    Arg.(value & flag & info [ "smoke" ]
           ~doc:"CI mode: pinned-seed runs over ds and tcp, echo and http, \
                 plus a determinism double-run; non-zero exit on any hang, \
                 lost request, mismatch or divergence.")
  in
  let build_config stack workload open_loop ~conns ~requests ~size ~think
      ~seed ~loss ~clients ~backlog ~workers ~max_inflight ~match_engine =
    let kind = sock_kind ~cmd:"serve" ~ds:Uls_substrate.Options.server stack in
    let client_nodes =
      if clients > 0 then clients else max 2 (min 8 ((conns + 511) / 512))
    in
    let backlog = if backlog > 0 then backlog else max 64 (min conns 1024) in
    let sched =
      if workers = Uls_server.Sched.default_config.workers && max_inflight = 0
      then None
      else
        Some
          {
            Uls_server.Sched.default_config with
            workers;
            max_inflight = (if max_inflight = 0 then max_int else max_inflight);
            reject =
              (match workload with
              | Load.Http -> Some Uls_server.Server.http_reject
              | Load.Echo -> None);
          }
    in
    {
      Load.kind;
      workload;
      loop = (match open_loop with None -> Load.Closed | Some r -> Load.Open r);
      conns;
      requests_per_conn = requests;
      size;
      think = think *. 1e3;
      seed;
      loss;
      client_nodes;
      backlog;
      sched;
      match_engine;
    }
  in
  let run_one ?on_metrics cfg =
    let r = Load.run ?on_metrics cfg in
    Load.print_report Format.std_formatter cfg r;
    r
  in
  let serve_json cfg (r : Load.report) =
    Record.emit ~file:"BENCH_serve.json"
      [
        ("bench", Str "serve");
        ("stack", Str (Chaos.kind_name cfg.Load.kind));
        ("workload",
         Str
           (match cfg.Load.workload with
           | Load.Echo -> "echo"
           | Load.Http -> "http"));
        ("loop",
         Str
           (match cfg.Load.loop with
           | Load.Closed -> "closed"
           | Load.Open r -> Printf.sprintf "open@%.0f" r));
        ("match", Str (match_name cfg.Load.kind cfg.Load.match_engine));
        ("conns", Int cfg.Load.conns);
        ("requests_per_conn", Int cfg.Load.requests_per_conn);
        ("size", Int cfg.Load.size);
        ("seed", Int cfg.Load.seed);
        ("loss", Float cfg.Load.loss);
        ("sent", Int r.Load.sent);
        ("completed", Int r.Load.completed);
        ("shed", Int r.Load.shed);
        ("refused", Int r.Load.refused);
        ("errors", Int r.Load.errors);
        ("mismatches", Int r.Load.mismatches);
        ("peak_open", Int r.Load.peak_open);
        ("elapsed_ms", Float r.Load.elapsed_ms);
        ("rps", Float r.Load.rps);
        ("mean_us", Float r.Load.mean_us);
        ("p50_us", Float r.Load.p50_us);
        ("p95_us", Float r.Load.p95_us);
        ("p99_us", Float r.Load.p99_us);
        ("p999_us", Float r.Load.p999_us);
        ("intact", Bool r.Load.intact);
        ("completed_run", Bool r.Load.completed_run);
      ]
  in
  let run stack conns requests size workload open_loop think seed loss clients
      backlog workers max_inflight match_engine smoke metrics json =
    let on_metrics = if metrics then Some dump_metrics else None in
    if smoke then begin
      (* Pinned-seed CI matrix; flags other than --metrics are ignored. *)
      let g = gates "ulsbench serve --smoke" in
      let smoke_config ?(match_engine = Uls_nic.Match_list.Hashed) stack
          workload =
        build_config stack workload None ~conns:128 ~requests:4 ~size:256
          ~think:0. ~seed:42 ~loss:0. ~clients:2 ~backlog:0 ~workers:4
          ~max_inflight:0 ~match_engine
      in
      let check r =
        if
          not
            (r.Load.completed_run && r.Load.intact && r.Load.errors = 0
           && r.Load.shed = 0 && r.Load.refused = 0 && r.Load.mismatches = 0
           && r.Load.completed = r.Load.sent)
        then count g
      in
      List.iter
        (fun (st, w) -> check (run_one ?on_metrics (smoke_config st w)))
        [ (`Ds, Load.Echo); (`Ds, Load.Http); (`Tcp, Load.Echo);
          (`Tcp, Load.Http) ];
      (* Determinism: same seed, byte-identical report. *)
      let cfg = smoke_config `Ds Load.Echo in
      let a = Load.run cfg and b = Load.run cfg in
      check a;
      if a <> b then fail g "seeded runs diverged";
      (* Match-engine ablation at the 512-conn row (where the linear
         walk's O(posted descriptors) cost begins to bite): hashed must
         be at least as fast as linear on both stacks, and the hashed
         row must be schedule-deterministic. *)
      let scale_config stack engine =
        build_config stack Load.Echo None ~conns:512 ~requests:2 ~size:256
          ~think:0. ~seed:42 ~loss:0. ~clients:4 ~backlog:0 ~workers:4
          ~max_inflight:0 ~match_engine:engine
      in
      (* Match-engine ablation only on the substrate stack: TCP takes the
         kernel receive path and never touches the NIC tag matcher, so a
         linear-vs-hashed pair there is the same run counted twice. *)
      let lin = run_one ?on_metrics (scale_config `Ds Uls_nic.Match_list.Linear) in
      let hsh = run_one ?on_metrics (scale_config `Ds Uls_nic.Match_list.Hashed) in
      check lin;
      check hsh;
      if hsh.Load.rps < lin.Load.rps *. 0.999 then
        fail g "hashed slower than linear at 512 conns (%.0f vs %.0f req/s)"
          hsh.Load.rps lin.Load.rps;
      (* TCP at the same 512-conn point, once. *)
      check (run_one ?on_metrics (scale_config `Tcp Uls_nic.Match_list.Hashed));
      let cfg = scale_config `Ds Uls_nic.Match_list.Hashed in
      let a = Load.run cfg and b = Load.run cfg in
      check a;
      if a <> b then fail g "hashed 512-conn seeded runs diverged";
      finish g ~ok:"serve smoke: ok"
    end
    else begin
      let cfg =
        build_config stack workload open_loop ~conns ~requests ~size ~think
          ~seed ~loss ~clients ~backlog ~workers ~max_inflight ~match_engine
      in
      let r = run_one ?on_metrics cfg in
      if json then serve_json cfg r;
      if not (r.Load.completed_run && r.Load.intact) then exit 1
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Event-driven server under a client fleet: echo or keep-alive \
          HTTP over the readiness engine + connection scheduler, driven \
          open- or closed-loop; prints throughput and latency percentiles")
    Term.(const run $ stack $ conns $ requests $ size $ workload $ open_loop
          $ think $ seed $ loss $ clients $ backlog $ workers $ max_inflight
          $ match_engine_flag $ smoke $ metrics_flag
          $ Arg.(value & flag & info [ "json" ]
                   ~doc:"Append a JSON record to BENCH_serve.json."))

(* --- fabric ------------------------------------------------------------- *)

let fabric_cmd =
  let open Uls_bench in
  let stack =
    Arg.(value & opt stack_conv `Ds & info [ "stack" ] ~docv:"STACK"
           ~doc:"tcp | tcp-tuned | ds | ds-base | dg.")
  in
  (* "CELL@MS": cell id and a virtual-time instant in milliseconds. *)
  let cell_at_conv =
    let parse s =
      match String.split_on_char '@' s with
      | [ c; ms ] -> (
        try Ok (int_of_string c, int_of_string ms)
        with _ -> Error (`Msg (Printf.sprintf "bad CELL@MS %S" s)))
      | _ -> Error (`Msg (Printf.sprintf "bad CELL@MS %S" s))
    in
    let print fmt (c, ms) =
      Format.pp_print_string fmt (Printf.sprintf "%d@%d" c ms)
    in
    Arg.conv (parse, print)
  in
  let cells =
    Arg.(value & opt int 4 & info [ "cells" ] ~docv:"K"
           ~doc:"Server cells behind the balancer.")
  in
  let shards =
    Arg.(value & opt int 4 & info [ "shards" ] ~docv:"N"
           ~doc:"SO_REUSEPORT listener shards (schedulers) per cell.")
  in
  let conns =
    Arg.(value & opt int 2048 & info [ "conns" ] ~docv:"N"
           ~doc:"Total connection arrivals over the run.")
  in
  let requests =
    Arg.(value & opt int 2 & info [ "requests" ] ~docv:"N"
           ~doc:"Requests per connection.")
  in
  let size =
    Arg.(value & opt int 256 & info [ "size" ] ~docv:"BYTES"
           ~doc:"Echo payload size.")
  in
  let rate =
    Arg.(value & opt float 4_000. & info [ "rate" ] ~docv:"CONN/S"
           ~doc:"Open-loop connection arrival rate, fleet-wide.")
  in
  let think =
    Arg.(value & opt float 0. & info [ "think" ] ~docv:"US"
           ~doc:"Mean think time between a connection's requests (us); \
                 raises concurrency (rate x lifetime).")
  in
  let clients =
    Arg.(value & opt int 0 & info [ "clients" ] ~docv:"N"
           ~doc:"Client nodes (0 = auto: enough to keep per-node NIC \
                 match walks short).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED"
                    ~doc:"Rng seed; same seed, same run.") in
  let loss =
    Arg.(value & opt float 0. & info [ "loss" ] ~docv:"P"
           ~doc:"Uniform frame-loss probability.")
  in
  let max_inflight =
    Arg.(value & opt int 0 & info [ "max-inflight" ] ~docv:"N"
           ~doc:"Per-shard admission limit (0 = unlimited).")
  in
  let backlog =
    Arg.(value & opt int 128 & info [ "backlog" ] ~docv:"N"
           ~doc:"Per-cell listen backlog. Every posted backlog \
                 descriptor is walked by the cell NIC on each RX \
                 frame; keep it modest.")
  in
  let vnodes =
    Arg.(value & opt int 128 & info [ "vnodes" ] ~docv:"N"
           ~doc:"Consistent-hash virtual nodes per cell.")
  in
  let kill =
    Arg.(value & opt (some cell_at_conv) None & info [ "kill" ] ~docv:"CELL@MS"
           ~doc:"Pause this cell's node (all frames dropped) at this \
                 virtual time; the health checker must heal the ring.")
  in
  let drain =
    Arg.(value & opt (some cell_at_conv) None & info [ "drain" ] ~docv:"CELL@MS"
           ~doc:"Gracefully drain this cell at this virtual time.")
  in
  let smoke =
    Arg.(value & flag & info [ "smoke" ]
           ~doc:"CI mode: pinned-seed cell x stack matrix plus a \
                 kill-failover run and a determinism double-run; non-zero \
                 exit on any hang, mismatch or divergence.")
  in
  let auto_clients cells conns = max 4 (min 64 (max cells ((conns + 2047) / 2048) * 4)) in
  let build ~stack ~cells ~shards ~conns ~requests ~size ~rate ~think ~clients
      ~seed ~loss ~max_inflight ~backlog ~vnodes ~kill ~drain ~match_engine =
    {
      Fleet.default with
      kind = sock_kind ~cmd:"fabric" ~ds:Uls_substrate.Options.server stack;
      match_engine;
      cells;
      shards;
      conns;
      requests_per_conn = requests;
      size;
      rate;
      think = think *. 1e3;
      client_nodes = (if clients > 0 then clients else auto_clients cells conns);
      seed;
      loss;
      max_inflight;
      backlog;
      vnodes;
      kill = Option.map (fun (c, ms) -> (c, Uls_engine.Time.ms ms)) kill;
      drain = Option.map (fun (c, ms) -> (c, Uls_engine.Time.ms ms)) drain;
    }
  in
  let fabric_json (cfg : Fleet.config) (r : Fleet.report) =
    Record.emit ~file:"BENCH_fabric.json"
      [
        ("bench", Str "fabric");
        ("stack", Str (Chaos.kind_name cfg.Fleet.kind));
        ("cells", Int cfg.Fleet.cells);
        ("shards", Int cfg.Fleet.shards);
        ("match", Str (match_name cfg.Fleet.kind cfg.Fleet.match_engine));
        ("conns", Int cfg.Fleet.conns);
        ("requests_per_conn", Int cfg.Fleet.requests_per_conn);
        ("size", Int cfg.Fleet.size);
        ("rate", Float cfg.Fleet.rate);
        ("seed", Int cfg.Fleet.seed);
        ("loss", Float cfg.Fleet.loss);
        ("kill", Bool (cfg.Fleet.kill <> None));
        ("drain", Bool (cfg.Fleet.drain <> None));
        ("established", Int r.Fleet.established);
        ("completed", Int r.Fleet.completed);
        ("shed", Int r.Fleet.shed);
        ("refused", Int r.Fleet.refused);
        ("resets", Int r.Fleet.resets);
        ("errors", Int r.Fleet.errors);
        ("mismatches", Int r.Fleet.mismatches);
        ("remapped", Int r.Fleet.remapped);
        ("peak_open", Int r.Fleet.peak_open);
        ("peak_cell_open", Int r.Fleet.peak_cell_open);
        ("healed_at_ms", Float r.Fleet.healed_at_ms);
        ("drained_at_ms", Float r.Fleet.drained_at_ms);
        ("elapsed_ms", Float r.Fleet.elapsed_ms);
        ("rps", Float r.Fleet.rps);
        ("mean_us", Float r.Fleet.mean_us);
        ("p50_us", Float r.Fleet.p50_us);
        ("p95_us", Float r.Fleet.p95_us);
        ("p99_us", Float r.Fleet.p99_us);
        ("p999_us", Float r.Fleet.p999_us);
        ("intact", Bool r.Fleet.intact);
        ("completed_run", Bool r.Fleet.completed_run);
      ]
  in
  let run stack cells shards conns requests size rate think clients seed loss
      max_inflight backlog vnodes kill drain match_engine smoke metrics json =
    let on_metrics = if metrics then Some dump_metrics else None in
    if smoke then begin
      (* Pinned-seed CI matrix: cells x stacks, plus one kill-failover
         run; flags other than --metrics are ignored. *)
      let g = gates "ulsbench fabric --smoke" in
      let base stack cells =
        build ~stack ~cells ~shards:2 ~conns:256 ~requests:2 ~size:128
          ~rate:8_000. ~think:0. ~clients:4 ~seed:42 ~loss:0. ~max_inflight:0
          ~backlog:128 ~vnodes:64 ~kill:None ~drain:None
          ~match_engine:Uls_nic.Match_list.Hashed
      in
      let check name ?(allow_failures = false) (r : Fleet.report) =
        let ok =
          r.Fleet.completed_run && r.Fleet.intact
          && (allow_failures
             || r.Fleet.refused = 0 && r.Fleet.resets = 0
                && r.Fleet.errors = 0)
        in
        if not ok then fail g "%s failed" name
      in
      List.iter
        (fun (st, cells) ->
          let cfg = base st cells in
          Format.printf "--- fabric smoke: %s cells=%d@."
            (Chaos.kind_name cfg.Fleet.kind) cells;
          let r = Fleet.run ?on_metrics cfg in
          Fleet.print_report Format.std_formatter cfg r;
          check (Printf.sprintf "%s/%d-cell"
                   (Chaos.kind_name cfg.Fleet.kind) cells) r)
        [ (`Ds, 1); (`Ds, 4); (`Tcp, 1); (`Tcp, 4) ];
      (* Kill a cell mid-load on both stacks: the ring must heal and the
         run must complete with failures confined to the killed cell. *)
      List.iter
        (fun st ->
          let cfg =
            { (base st 4) with Fleet.kill = Some (1, Uls_engine.Time.ms 8) }
          in
          Format.printf "--- fabric smoke: %s kill-failover@."
            (Chaos.kind_name cfg.Fleet.kind);
          let r = Fleet.run ?on_metrics cfg in
          Fleet.print_report Format.std_formatter cfg r;
          check
            (Printf.sprintf "%s/kill" (Chaos.kind_name cfg.Fleet.kind))
            ~allow_failures:true r;
          if r.Fleet.healed_at_ms < 0. then fail g "ring never healed")
        [ `Ds; `Tcp ];
      (* Determinism: same seed, byte-identical report. *)
      let cfg = base `Ds 4 in
      let a = Fleet.run cfg and b = Fleet.run cfg in
      check "determinism" a;
      if a <> b then fail g "seeded runs diverged";
      finish g ~ok:"fabric smoke: ok"
    end
    else begin
      let cfg =
        build ~stack ~cells ~shards ~conns ~requests ~size ~rate ~think
          ~clients ~seed ~loss ~max_inflight ~backlog ~vnodes ~kill ~drain
          ~match_engine
      in
      let r = Fleet.run ?on_metrics cfg in
      Fleet.print_report Format.std_formatter cfg r;
      if json then fabric_json cfg r;
      if not (r.Fleet.completed_run && r.Fleet.intact) then exit 1
    end
  in
  Cmd.v
    (Cmd.info "fabric"
       ~doc:
         "Sharded serving fabric: L4-balanced server cells (consistent \
          hashing, SO_REUSEPORT shards) under an open-loop connection \
          fleet, with optional mid-load cell kill or drain")
    Term.(const run $ stack $ cells $ shards $ conns $ requests $ size $ rate
          $ think $ clients $ seed $ loss $ max_inflight $ backlog $ vnodes
          $ kill $ drain $ match_engine_flag $ smoke $ metrics_flag
          $ Arg.(value & flag & info [ "json" ]
                   ~doc:"Append a JSON record to BENCH_fabric.json."))

(* --- trace -------------------------------------------------------------- *)

let trace_cmd =
  let experiment =
    Arg.(value & pos 0 string "pingpong" & info [] ~docv:"EXPERIMENT"
           ~doc:"pingpong | bandwidth | barrier")
  in
  let stack =
    Arg.(value & opt stack_conv `Ds & info [ "stack" ] ~docv:"STACK"
           ~doc:"emp | tcp | tcp-tuned | ds | ds-base | dg")
  in
  let size =
    Arg.(value & opt int 4 & info [ "size" ] ~docv:"BYTES"
           ~doc:"Message size (pingpong).")
  in
  let msg =
    Arg.(value & opt int 65_536 & info [ "msg" ] ~docv:"BYTES"
           ~doc:"Message size (bandwidth).")
  in
  let nodes =
    Arg.(value & opt int 8 & info [ "nodes" ] ~docv:"N"
           ~doc:"Group size (barrier).")
  in
  let iters = Arg.(value & opt int 10 & info [ "iters" ] ~doc:"Iterations.") in
  let out =
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE"
           ~doc:"Write the Chrome-trace JSON here instead of stdout.")
  in
  let run experiment stack size msg nodes iters out metrics =
    let kind = kind_of_stack stack in
    let summary, tr, m =
      match experiment with
      | "pingpong" ->
        let us, tr, m =
          Uls_bench.Microbench.ping_pong_observed ~iters ~kind ~size ()
        in
        (Printf.sprintf "%d-byte one-way latency: %.2f us" size us, tr, m)
      | "bandwidth" ->
        let mbps, tr, m =
          Uls_bench.Microbench.bandwidth_observed ~total:(4 * 1024 * 1024)
            ~kind ~msg ()
        in
        (Printf.sprintf "stream bandwidth: %.1f Mb/s" mbps, tr, m)
      | "barrier" ->
        let us, tr, m =
          Uls_bench.Microbench.barrier_latency_observed ~iters
            ~alg:Uls_collective.Group.Binomial_tree ~nodes ()
        in
        (Printf.sprintf "%d-node barrier: %.2f us" nodes us, tr, m)
      | other ->
        Printf.eprintf "ulsbench trace: unknown experiment %S\n" other;
        exit 124
    in
    let json = Uls_engine.Trace.to_chrome_json tr in
    (* Keep stdout pure JSON when no --out was given, so the output can
       be piped straight into a validator or chrome://tracing. *)
    (match out with
    | None ->
      print_string json;
      Printf.eprintf "%s (%d trace events)\n" summary
        (List.length (Uls_engine.Trace.events tr))
    | Some file ->
      let oc = open_out file in
      output_string oc json;
      close_out oc;
      Printf.printf "%s (%d trace events -> %s)\n" summary
        (List.length (Uls_engine.Trace.events tr))
        file);
    if metrics then dump_metrics m
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a benchmark with structured tracing enabled and emit \
          Chrome-trace JSON (load in chrome://tracing or Perfetto)")
    Term.(const run $ experiment $ stack $ size $ msg $ nodes $ iters $ out
          $ metrics_flag)

(* --- collectives -------------------------------------------------------- *)

let alg_conv =
  let parse = function
    | "linear" -> Ok Uls_collective.Group.Linear
    | "binomial" -> Ok Uls_collective.Group.Binomial_tree
    | "recdbl" -> Ok Uls_collective.Group.Recursive_doubling
    | "nic" -> Ok Uls_collective.Group.Nic_forward
    | s -> Error (`Msg (Printf.sprintf "unknown algorithm %S" s))
  in
  let print fmt a =
    Format.pp_print_string fmt (Uls_collective.Group.algorithm_name a)
  in
  Arg.conv (parse, print)

let coll_op_conv =
  let parse = function
    | "barrier" -> Ok `Barrier
    | "bcast" -> Ok `Bcast
    | "allreduce" -> Ok `Allreduce
    | s -> Error (`Msg (Printf.sprintf "unknown collective op %S" s))
  in
  let print fmt o =
    Format.pp_print_string fmt
      (match o with
      | `Barrier -> "barrier"
      | `Bcast -> "bcast"
      | `Allreduce -> "allreduce")
  in
  Arg.conv (parse, print)

let collective_cmd =
  let op =
    Arg.(value & opt coll_op_conv `Barrier & info [ "op" ] ~docv:"OP"
           ~doc:"barrier | bcast | allreduce")
  in
  let alg =
    Arg.(value & opt alg_conv Uls_collective.Group.Binomial_tree
         & info [ "alg" ] ~docv:"ALG" ~doc:"linear | binomial | recdbl | nic")
  in
  let nodes =
    Arg.(value & opt int 8 & info [ "nodes" ] ~docv:"N" ~doc:"Group size.")
  in
  let size =
    Arg.(value & opt int 65_536 & info [ "size" ] ~docv:"BYTES"
           ~doc:"Payload size (bcast/allreduce only).")
  in
  let iters = Arg.(value & opt int 10 & info [ "iters" ] ~doc:"Iterations.") in
  let run op alg nodes size iters metrics =
    if nodes < 1 then begin
      prerr_endline "ulsbench: --nodes must be at least 1";
      exit 124
    end;
    let alg_name = Uls_collective.Group.algorithm_name alg in
    let m =
      match op with
      | `Barrier ->
        let us, _, m =
          Uls_bench.Microbench.barrier_latency_observed ~iters ~alg ~nodes ()
        in
        Printf.printf "%d-node %s barrier: %.2f us\n" nodes alg_name us;
        m
      | (`Bcast | `Allreduce) as op ->
        let mbps, _, m =
          Uls_bench.Microbench.coll_bandwidth_observed ~iters ~op ~alg ~nodes
            ~size ()
        in
        Printf.printf "%d-node %s %s (%d B): %.1f Mb/s\n" nodes alg_name
          (match op with `Bcast -> "bcast" | `Allreduce -> "allreduce")
          size mbps;
        m
    in
    if metrics then dump_metrics m
  in
  Cmd.v
    (Cmd.info "collective"
       ~doc:"Collective latency/bandwidth over an EMP group")
    Term.(const run $ op $ alg $ nodes $ size $ iters $ metrics_flag)

(* --- engine ------------------------------------------------------------ *)

let engine_cmd =
  let open Uls_bench in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Append one JSON record per (scenario, queue) to \
                 BENCH_engine.json: the median sample pair's.")
  in
  let check =
    Arg.(value & flag & info [ "check" ]
           ~doc:"CI gate: the wheel and the reference heap must dispatch \
                 identical event counts in every sample, no run may \
                 allocate more than 14 minor words per dispatched event \
                 (allocation sanitizer), and against the committed \
                 baseline every event count must match exactly. On the \
                 median of the interleaved samples, the wheel must beat \
                 the heap by at least 2x events/sec on the 65536-conn \
                 fabric shape, and no per-scenario wheel-vs-heap speedup \
                 may regress by more than 20%.")
  in
  let baseline =
    Arg.(value & opt string "BENCH_engine.json"
         & info [ "baseline" ] ~docv:"FILE"
             ~doc:"Committed pinned-seed baseline the --check gate reads.")
  in
  let run json check baseline_file =
    let rows = Engine_bench.run_all () in
    let summaries = Engine_bench.summarize rows in
    Format.printf "host: nproc=%d ocaml=%s; %d interleaved heap/wheel \
                   samples per shape, median pair shown@."
      (Domain.recommended_domain_count ()) Sys.ocaml_version
      Engine_bench.samples;
    Format.printf "%-14s %6s %8s %11s %11s %8s %11s %8s %8s@." "scenario"
      "conns" "events" "heap ev/s" "wheel ev/s" "speedup" "spread" "heap mw"
      "wheel mw";
    List.iter
      (fun s ->
        let open Engine_bench in
        let h = s.heap and w = s.wheel in
        Format.printf "%-14s %6d %8d %11.0f %11.0f %7.2fx %5.2f-%.2fx %8.2f %8.2f@."
          h.scenario h.conns h.events h.events_per_sec w.events_per_sec
          (w.events_per_sec /. h.events_per_sec) s.lo s.hi h.minor_words_per_event
          w.minor_words_per_event)
      summaries;
    if json then
      List.iter
        (fun s ->
          let open Engine_bench in
          List.iter
            (fun r -> Record.emit ~file:"BENCH_engine.json" (to_record r))
            [ s.heap; s.wheel ])
        summaries;
    if check then begin
      let g = gates "ulsbench engine --check" in
      List.iter (fail g "%s")
        (Engine_bench.check ~file:baseline_file (Record.read baseline_file)
           rows);
      finish g ~ok:"engine check: ok"
    end
  in
  Cmd.v
    (Cmd.info "engine"
       ~doc:
         "Event-core throughput: events/sec through the simulator on \
          synthetic timer workloads (pingpong, serve-512, fabric-4096, \
          fabric-65536), hierarchical timing wheel vs the reference \
          binary heap")
    Term.(const run $ json $ check $ baseline)

(* --- rings: firehose + storm ------------------------------------------- *)

let busy_poll_flag =
  Arg.(value & flag & info [ "busy-poll" ]
         ~doc:"Endpoint tx ring in busy-poll mode: the NIC-side fetch \
               loop spins instead of sleeping between doorbells.")

let batch_flag default =
  Arg.(value & opt int default
       & info [ "batch" ] ~docv:"N"
           ~doc:"Submission batch depth: descriptors per doorbell. \
                 $(b,1) is the per-call ablation (byte-identical to the \
                 pre-ring path).")

let firehose_cmd =
  let open Uls_bench in
  let d = Firehose.default in
  let sinks =
    Arg.(value & opt int d.Firehose.sinks
         & info [ "sinks" ] ~docv:"N" ~doc:"Sink nodes (source is node 0).")
  in
  let count =
    Arg.(value & opt int d.Firehose.count
         & info [ "count" ] ~docv:"N" ~doc:"Messages per sink.")
  in
  let size =
    Arg.(value & opt int d.Firehose.size
         & info [ "size" ] ~docv:"BYTES" ~doc:"Payload bytes per message.")
  in
  let seed =
    Arg.(value & opt int d.Firehose.seed & info [ "seed" ] ~doc:"RNG seed.")
  in
  let loss =
    Arg.(value & opt float 0.
         & info [ "loss" ] ~docv:"P"
             ~doc:"Uniform frame-loss probability (the rings chaos leg).")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Append a JSON record to BENCH_rings.json.")
  in
  let check =
    Arg.(value & flag & info [ "check" ]
           ~doc:"CI gate: pinned-seed runs must be intact and \
                 deterministic, batch=32 must reach at least 2x the \
                 batch=1 pps on the small-message shape, the NIC \
                 doorbell/mailbox-fetch audit pair must agree, the 2% \
                 loss chaos leg must stay byte-exact, and pps must not \
                 regress below 80% of the committed baseline.")
  in
  let baseline =
    Arg.(value & opt string "BENCH_rings.json"
         & info [ "baseline" ] ~docv:"FILE"
             ~doc:"Committed pinned-seed baseline the --check gate reads.")
  in
  let run sinks count size batch busy_poll seed loss match_engine metrics json
      check baseline_file =
    let on_metrics = if metrics then Some dump_metrics else None in
    let run_one cfg =
      let r = Firehose.run ?on_metrics cfg in
      Firehose.print_report Format.std_formatter cfg r;
      r
    in
    let cfg =
      {
        Firehose.sinks;
        count;
        size;
        batch;
        busy_poll;
        seed;
        loss;
        match_engine;
      }
    in
    if check then begin
      let g = gates "ulsbench firehose --check" in
      let gate_cfg = { Firehose.default with Firehose.match_engine; batch = 32 } in
      let batch32 = run_one gate_cfg in
      let batch1 = run_one { gate_cfg with Firehose.batch = 1 } in
      let busy_poll_run = run_one { gate_cfg with Firehose.busy_poll = true } in
      let lossy = run_one { gate_cfg with Firehose.loss = 0.02 } in
      let rerun = Firehose.run gate_cfg in
      List.iter (fail g "%s")
        (Firehose.check ~file:baseline_file (Record.read baseline_file)
           { Firehose.batch32; batch1; busy_poll_run; lossy; rerun });
      finish g ~ok:"firehose check: ok"
    end
    else begin
      let r = run_one cfg in
      if json then
        Record.emit ~file:"BENCH_rings.json" (Firehose.to_record cfg r);
      if not (r.Firehose.completed_run && r.Firehose.intact) then exit 1
    end
  in
  Cmd.v
    (Cmd.info "firehose"
       ~doc:
         "Small-message datagram firehose through the ring-based batched \
          I/O subsystem: one source sprays patterned datagrams at N \
          sinks, one doorbell per --batch submissions; prints pps and \
          the NIC doorbell/fetch audit pair")
    Term.(const run $ sinks $ count $ size $ batch_flag d.Firehose.batch
          $ busy_poll_flag $ seed $ loss $ match_engine_flag $ metrics_flag
          $ json $ check $ baseline)

let storm_cmd =
  let open Uls_bench in
  let d = Storm.default in
  let scanners =
    Arg.(value & opt int d.Storm.scanners
         & info [ "scanners" ] ~docv:"N" ~doc:"Scanner (prober) nodes.")
  in
  let targets =
    Arg.(value & opt int d.Storm.targets
         & info [ "targets" ] ~docv:"N" ~doc:"Target (listener) nodes.")
  in
  let window =
    Arg.(value & opt int d.Storm.window
         & info [ "window" ] ~docv:"W"
             ~doc:"Probe slots (concurrent probes) per scanner.")
  in
  let probes =
    Arg.(value & opt int d.Storm.probes
         & info [ "probes" ] ~docv:"N" ~doc:"Probes per scanner.")
  in
  let backlog =
    Arg.(value & opt int d.Storm.backlog
         & info [ "backlog" ] ~docv:"N" ~doc:"Per-target listen backlog.")
  in
  let seed =
    Arg.(value & opt int d.Storm.seed & info [ "seed" ] ~doc:"RNG seed.")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Append a JSON record to BENCH_rings.json.")
  in
  let smoke =
    Arg.(value & flag & info [ "smoke" ]
           ~doc:"CI mode: pinned-seed batch=32 and batch=1 runs plus a \
                 determinism double-run; non-zero exit on any hang, \
                 unanswered probe, refusal or divergence.")
  in
  let storm_json (cfg : Storm.config) (r : Storm.report) =
    Record.emit ~file:"BENCH_rings.json"
      [
        ("bench", Str "storm");
        ("match", Str (Uls_nic.Match_list.engine_name cfg.Storm.match_engine));
        ("scanners", Int cfg.Storm.scanners);
        ("targets", Int cfg.Storm.targets);
        ("window", Int cfg.Storm.window);
        ("probes", Int cfg.Storm.probes);
        ("batch", Int cfg.Storm.batch);
        ("busy_poll", Bool cfg.Storm.busy_poll);
        ("seed", Int cfg.Storm.seed);
        ("attempts", Int r.Storm.attempts);
        ("accepted", Int r.Storm.accepted);
        ("refused", Int r.Storm.refused);
        ("server_accepts", Int r.Storm.server_accepts);
        ("elapsed_ms", Float r.Storm.elapsed_ms);
        ("attempts_per_sec", Float r.Storm.attempts_per_sec);
        ("mpps", Float r.Storm.mpps);
        ("doorbells", Int r.Storm.doorbells);
        ("mailbox_fetches", Int r.Storm.mailbox_fetches);
        ("ring_submitted", Int r.Storm.ring_submitted);
        ("ring_doorbells", Int r.Storm.ring_doorbells);
        ("intact", Bool r.Storm.intact);
        ("completed_run", Bool r.Storm.completed_run);
      ]
  in
  let run_one cfg =
    let r = Storm.run cfg in
    Storm.print_report Format.std_formatter cfg r;
    r
  in
  let run scanners targets window probes batch backlog busy_poll seed
      match_engine json smoke =
    let cfg =
      {
        Storm.scanners;
        targets;
        window;
        probes;
        batch;
        backlog;
        busy_poll;
        seed;
        match_engine;
      }
    in
    if smoke then begin
      let g = gates "ulsbench storm --smoke" in
      let gate_cfg = { Storm.default with Storm.match_engine } in
      let check tag (r : Storm.report) =
        if not (r.Storm.completed_run && r.Storm.intact) then
          fail g "%s incomplete or refused (%d/%d answered, %d refused)" tag
            (r.Storm.accepted + r.Storm.refused)
            r.Storm.attempts r.Storm.refused
      in
      let r32 = run_one { gate_cfg with Storm.batch = 32 } in
      check "batch=32" r32;
      check "batch=1" (run_one { gate_cfg with Storm.batch = 1 });
      let a = Storm.run { gate_cfg with Storm.batch = 32 } in
      if a <> r32 then fail g "seeded runs diverged";
      finish g ~ok:"storm smoke: ok"
    end
    else begin
      let r = run_one cfg in
      if json then storm_json cfg r;
      if not (r.Storm.completed_run && r.Storm.intact) then exit 1
    end
  in
  Cmd.v
    (Cmd.info "storm"
       ~doc:
         "ZMap-style connection storm: windowed raw-EMP probe engines \
          fire batched connection attempts at substrate listeners, one \
          doorbell per --batch probes; prints connect-attempt rate")
    Term.(const run $ scanners $ targets $ window $ probes
          $ batch_flag d.Storm.batch $ backlog $ busy_poll_flag $ seed
          $ match_engine_flag $ json $ smoke)

(* --- races ------------------------------------------------------------- *)

let races_cmd =
  let seeds =
    Arg.(value & opt int 16 & info [ "seeds" ] ~docv:"K"
           ~doc:"Perturbed runs per scenario (seeds 0..K-1) besides the \
                 FIFO baseline.")
  in
  let smoke =
    Arg.(value & flag & info [ "smoke" ]
           ~doc:"CI mode: stop a buggy fixture's seed loop at the first \
                 catching seed instead of running all K.")
  in
  let scenario =
    Arg.(value & opt (some string) None & info [ "scenario" ] ~docv:"NAME"
           ~doc:"Run a single scenario by name.")
  in
  let replay =
    Arg.(value & opt (some int) None & info [ "replay" ] ~docv:"SEED"
           ~doc:"Replay --scenario under one seed and dump its \
                 fingerprint, violations, and any deadlock report.")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ]
           ~doc:"Full divergence/violation listings.")
  in
  let explore_flag =
    Arg.(value & flag & info [ "explore" ]
           ~doc:"Systematic DPOR-style exploration instead of seed \
                 sampling: enumerate same-timestamp schedules for every \
                 scenario with an exploration bound, with independence \
                 pruning and state-fingerprint dedup. Prints honest \
                 coverage (exhaustive vs preemption-bounded) and, for \
                 flagged schedules, the racing operation pair.")
  in
  let replay_schedule =
    Arg.(value & opt (some string) None
         & info [ "replay-schedule" ] ~docv:"ID"
             ~doc:"Replay --scenario under one explorer schedule id \
                   (e.g. 0.4.1, as printed by --explore) and dump its \
                   fingerprint, violations, racing pairs, and any \
                   deadlock report.")
  in
  let max_runs =
    Arg.(value & opt (some int) None & info [ "max-runs" ] ~docv:"N"
           ~doc:"Override the per-scenario explorer run budget.")
  in
  let max_preempt =
    Arg.(value & opt (some int) None & info [ "max-preemptions" ] ~docv:"P"
           ~doc:"Override the per-scenario preemption cap.")
  in
  let module A = Uls_analysis.Race in
  let module X = Uls_analysis.Explore in
  let module S = Uls_analysis.Scenarios in
  let find_or_die name =
    match S.find name with
    | Some sc -> sc
    | None ->
      Printf.eprintf "ulsbench races: unknown scenario %S (have: %s)\n" name
        (String.concat ", " (List.map (fun sc -> sc.S.sc_name) S.all));
      exit 124
  in
  let dump_outcome ?(pairs = []) (o : S.outcome) =
    print_endline (Uls_analysis.Fingerprint.to_string o.S.fingerprint);
    List.iter
      (fun v -> print_endline (Uls_engine.Invariant.string_of_violation v))
      o.S.violations;
    List.iter (fun p -> print_endline (Uls_analysis.Hb.render_pair p)) pairs;
    (match o.S.deadlock with
    | Some rep -> print_endline (Uls_analysis.Deadlock.render rep)
    | None -> ());
    if o.S.violations <> [] || o.S.deadlock <> None then exit 1
  in
  let run seeds smoke scenario replay explore replay_schedule max_runs
      max_preempt verbose =
    match (replay, replay_schedule) with
    | Some _, Some _ ->
      prerr_endline "ulsbench races: --replay and --replay-schedule conflict";
      exit 124
    | Some seed, None ->
      let name =
        match scenario with
        | Some n -> n
        | None ->
          prerr_endline "ulsbench races: --replay requires --scenario";
          exit 124
      in
      dump_outcome (A.replay (find_or_die name) ~seed)
    | None, Some id ->
      let name =
        match scenario with
        | Some n -> n
        | None ->
          prerr_endline "ulsbench races: --replay-schedule requires --scenario";
          exit 124
      in
      let o, pairs = X.replay (find_or_die name) ~schedule:id in
      dump_outcome ~pairs o
    | None, None ->
      let scenarios =
        match scenario with
        | Some name -> [ find_or_die name ]
        | None -> S.all
      in
      let g = gates "ulsbench races" in
      if explore then begin
        (* Systematic mode: scenarios without a bound are skipped (their
           schedule tree is not explorable at useful cost), and that is
           reported rather than silently passed. *)
        List.iter
          (fun sc ->
            match sc.S.sc_bound with
            | None ->
              Printf.printf "%-20s %-7s skipped: no exploration bound\n"
                sc.S.sc_name
                (if sc.S.sc_buggy then "[buggy]" else "[clean]")
            | Some _ ->
              let v = X.explore ?max_runs ?max_preemptions:max_preempt sc in
              print_endline (X.render ~verbose v);
              let ok = if sc.S.sc_buggy then X.flagged v else X.clean v in
              if not ok then begin
                count g;
                Printf.printf "FAIL: %s %s\n" sc.S.sc_name
                  (if sc.S.sc_buggy then
                     "— systematic exploration no longer finds this seeded \
                      regression"
                   else "— not schedule-independent")
              end)
          scenarios;
        finish g ~summary:None ~ok:"races --explore: all scenarios OK"
      end
      else begin
        List.iter
          (fun sc ->
            let v =
              if smoke && sc.S.sc_buggy then
                A.run_until_flagged ~max_seeds:seeds sc
              else A.run_scenario ~seeds sc
            in
            print_endline (A.render ~verbose v);
            let ok = if sc.S.sc_buggy then A.flagged v else A.clean v in
            if not ok then begin
              count g;
              Printf.printf "FAIL: %s %s\n" sc.S.sc_name
                (if sc.S.sc_buggy then
                   "— the detector no longer catches this seeded regression"
                 else "— not schedule-independent")
            end)
          scenarios;
        finish g ~summary:None ~ok:"races: all scenarios OK"
      end
  in
  Cmd.v
    (Cmd.info "races"
       ~doc:"Schedule-perturbation race detection over the invariant suite: \
             seed sampling by default, systematic DPOR-style enumeration \
             with --explore")
    Term.(const run $ seeds $ smoke $ scenario $ replay $ explore_flag
          $ replay_schedule $ max_runs $ max_preempt $ verbose)

let () =
  let doc = "Sockets-over-EMP reproduction benchmarks (simulated testbed)" in
  let info = Cmd.info "ulsbench" ~version:"1.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            figures_cmd;
            latency_cmd;
            bandwidth_cmd;
            collective_cmd;
            chaos_cmd;
            engine_cmd;
            firehose_cmd;
            storm_cmd;
            serve_cmd;
            fabric_cmd;
            trace_cmd;
            races_cmd;
          ]))
