(** Small-message datagram firehose: one source node sprays patterned
    datagrams at [sinks] sink nodes over substrate connections, sweeping
    message size x submission batch depth. [batch = 1] takes exactly the
    legacy per-call path (write/read, one doorbell per operation);
    [batch > 1] drives the ring-based batched I/O subsystem end to end —
    [Conn.writev] staging through the endpoint's tx ring under one
    doorbell per batch, and [Conn.readv] reposting consumed receive
    descriptors through the fill ring ([Options.rx_ring]). Deterministic
    for a given config; the optional fault engine makes it the rings
    chaos leg. *)

open Uls_engine
module Sub = Uls_substrate.Substrate
module Conn = Uls_substrate.Conn
module Options = Uls_substrate.Options
module E = Uls_emp.Endpoint

type config = {
  sinks : int;  (** sink nodes (the source is node 0) *)
  count : int;  (** messages per sink *)
  size : int;  (** payload bytes per message *)
  batch : int;  (** submission batch depth; 1 = per-call ablation *)
  busy_poll : bool;  (** tx ring in wakeup-free busy-poll mode *)
  seed : int;
  loss : float;  (** uniform frame-loss probability (chaos leg) *)
  match_engine : Uls_nic.Match_list.engine;
}

let default =
  {
    sinks = 4;
    count = 2_000;
    size = 64;
    batch = 32;
    busy_poll = false;
    seed = 42;
    loss = 0.;
    match_engine = Uls_nic.Match_list.Hashed;
  }

type report = {
  messages : int;  (** sinks x count *)
  delivered : int;
  mismatches : int;
  bytes : int;
  elapsed_ms : float;
  pps : float;  (** delivered messages per second of virtual time *)
  mbps : float;
  doorbells : int;  (** source-node [nic.doorbells] *)
  mailbox_fetches : int;  (** source-node [nic.mailbox_fetches] *)
  ring_submitted : int;  (** descriptors through the source tx ring *)
  ring_doorbells : int;  (** doorbells the tx ring issued *)
  faults_injected : int;
  retransmits : int;
  intact : bool;
  completed_run : bool;
}

let liveness_bound = Time.s 60

(* Deterministic per-message payload: distinct across sink, index and
   byte offset, so a lost, duplicated or reordered message shows up as a
   mismatch at the receiver. *)
let message cfg ~sink ~index =
  String.init cfg.size (fun b ->
      Char.chr ((cfg.seed + (sink * 131) + (index * 7919) + (b * 13)) land 0xff))

let run ?on_metrics cfg =
  if cfg.sinks < 1 then invalid_arg "Firehose.run: sinks < 1";
  if cfg.batch < 1 then invalid_arg "Firehose.run: batch < 1";
  let c =
    Cluster.create ~match_engine:cfg.match_engine ~n:(cfg.sinks + 1) ()
  in
  let sim = Cluster.sim c in
  let fault = Fault.create ~seed:cfg.seed sim in
  if cfg.loss > 0. then begin
    Fault.set_default_plan fault (Fault.uniform_loss cfg.loss);
    Uls_ether.Network.set_fault (Cluster.network c) fault
  end;
  (* The fill-ring repost path is a property of the receive side, but
     options are per-node and uniform here: the source never reads data
     messages, so setting [rx_ring] everywhere only changes sinks.
     Credits must cover several submission batches or the source
     ping-pongs on the ack round trip in window-sized lockstep — the
     same sizing rule as hardware SQ depth vs completion latency. The
     window is identical across batch depths so the batch=1 ablation
     differs only in submission path, not flow control. *)
  let opts =
    {
      Options.datagram with
      Options.rx_ring = cfg.batch > 1;
      credits = max 32 (2 * cfg.batch);
    }
  in
  let sub = Array.init (cfg.sinks + 1) (fun i -> Cluster.substrate ~opts c i) in
  if cfg.busy_poll then
    ignore
      (E.get_tx_ring ~mode:Uls_rings.Ringpair.Busy_poll (Sub.emp sub.(0)));
  let starts = Array.make cfg.sinks max_int in
  let ends = Array.make cfg.sinks 0 in
  let delivered = ref 0 and mismatches = ref 0 in
  (* Sinks: accept one connection, consume [count] messages (batched
     drain when batch > 1), confirm, then drain to EOF. *)
  for k = 0 to cfg.sinks - 1 do
    Sim.spawn sim
      ~name:(Printf.sprintf "fire-sink-%d" k)
      (fun () ->
        let s = sub.(k + 1) in
        let l = Sub.listen s ~port:80 ~backlog:4 in
        let conn, _ = Sub.accept s l in
        let got = ref 0 in
        let eof = ref false in
        let consume msg =
          if not (String.equal msg (message cfg ~sink:k ~index:!got)) then
            incr mismatches;
          incr got;
          incr delivered
        in
        while !got < cfg.count && not !eof do
          if cfg.batch > 1 then
            match Conn.readv conn ~max:cfg.batch with
            | [] -> eof := true
            | msgs -> List.iter consume msgs
          else begin
            let msg = Conn.read conn cfg.size in
            if msg = "" then eof := true else consume msg
          end
        done;
        ends.(k) <- Sim.now sim;
        if not !eof then begin
          Conn.write conn "k";
          while Conn.read conn 1 <> "" do
            ()
          done
        end;
        Conn.close conn;
        Sub.close_listener s l)
  done;
  (* Source: one fiber per sink, spraying [count] messages in [batch]-
     deep gathered writes. *)
  for k = 0 to cfg.sinks - 1 do
    Sim.spawn sim
      ~name:(Printf.sprintf "fire-src-%d" k)
      (fun () ->
        Sim.delay sim (Time.us 50);
        let conn =
          Sub.connect sub.(0) { Uls_api.Sockets_api.node = k + 1; port = 80 }
        in
        starts.(k) <- Sim.now sim;
        let j = ref 0 in
        while !j < cfg.count do
          let n = min cfg.batch (cfg.count - !j) in
          Conn.writev conn
            (List.init n (fun i -> message cfg ~sink:k ~index:(!j + i)));
          j := !j + n
        done;
        ignore (Conn.read conn 1);
        Conn.close conn)
  done;
  let outcome = Cluster.run ~until:liveness_bound c in
  let metrics = Metrics.for_sim sim in
  (match on_metrics with Some f -> f metrics | None -> ());
  let messages = cfg.sinks * cfg.count in
  let t0 = Array.fold_left min max_int starts in
  let t1 = Array.fold_left max 0 ends in
  let elapsed = if t1 > t0 then t1 - t0 else 1 in
  let src_counter name = Metrics.counter_value metrics ~node:0 name in
  let retransmits = ref 0 in
  for i = 0 to cfg.sinks do
    retransmits :=
      !retransmits + Metrics.counter_value metrics ~node:i "emp.frames_retransmitted"
  done;
  let ring_submitted, ring_doorbells =
    match E.tx_ring_stats (Sub.emp sub.(0)) with
    | Some st ->
      (st.Uls_rings.Ringpair.submitted, st.Uls_rings.Ringpair.doorbells)
    | None -> (0, 0)
  in
  let completed_run = outcome = `Quiescent && !delivered = messages in
  {
    messages;
    delivered = !delivered;
    mismatches = !mismatches;
    bytes = !delivered * cfg.size;
    elapsed_ms = float_of_int elapsed /. 1e6;
    pps =
      (if completed_run then float_of_int !delivered /. (float_of_int elapsed /. 1e9)
       else 0.);
    mbps =
      (if completed_run then
         Time.mbps ~bytes_transferred:(!delivered * cfg.size) ~elapsed
       else 0.);
    doorbells = src_counter "nic.doorbells";
    mailbox_fetches = src_counter "nic.mailbox_fetches";
    ring_submitted;
    ring_doorbells;
    faults_injected = Fault.faults_injected fault;
    retransmits = !retransmits;
    intact = !mismatches = 0 && !delivered = messages;
    completed_run;
  }

let print_report fmt cfg (r : report) =
  Format.fprintf fmt
    "firehose: %d sinks x %d msgs x %d B, batch %d%s%s@." cfg.sinks cfg.count
    cfg.size cfg.batch
    (if cfg.busy_poll then ", busy-poll" else "")
    (if cfg.loss > 0. then Printf.sprintf ", loss %.1f%%" (cfg.loss *. 100.)
     else "");
  Format.fprintf fmt
    "  delivered %d/%d in %.3f ms -> %.0f msg/s (%.1f Mb/s)@." r.delivered
    r.messages r.elapsed_ms r.pps r.mbps;
  Format.fprintf fmt
    "  source NIC: %d doorbells, %d mailbox fetches; tx ring: %d submitted, \
     %d doorbells@."
    r.doorbells r.mailbox_fetches r.ring_submitted r.ring_doorbells;
  if r.faults_injected > 0 || r.retransmits > 0 then
    Format.fprintf fmt "  chaos: %d faults injected, %d frames retransmitted@."
      r.faults_injected r.retransmits;
  Format.fprintf fmt "  %s@."
    (if r.completed_run && r.intact then "ok"
     else if not r.completed_run then "INCOMPLETE"
     else "CORRUPT")

(* --- records and gates -------------------------------------------------- *)

let to_record cfg r =
  Record.
    [
      ("bench", Str "firehose");
      ("match", Str (Uls_nic.Match_list.engine_name cfg.match_engine));
      ("sinks", Int cfg.sinks);
      ("count", Int cfg.count);
      ("size", Int cfg.size);
      ("batch", Int cfg.batch);
      ("busy_poll", Bool cfg.busy_poll);
      ("seed", Int cfg.seed);
      ("loss", Float cfg.loss);
      ("messages", Int r.messages);
      ("delivered", Int r.delivered);
      ("mismatches", Int r.mismatches);
      ("elapsed_ms", Float r.elapsed_ms);
      ("pps", Float r.pps);
      ("mbps", Float r.mbps);
      ("doorbells", Int r.doorbells);
      ("mailbox_fetches", Int r.mailbox_fetches);
      ("ring_submitted", Int r.ring_submitted);
      ("ring_doorbells", Int r.ring_doorbells);
      ("faults", Int r.faults_injected);
      ("retransmits", Int r.retransmits);
      ("intact", Bool r.intact);
      ("completed_run", Bool r.completed_run);
    ]

type gate_runs = {
  batch32 : report;
  batch1 : report;
  busy_poll_run : report;
  lossy : report;
  rerun : report;
}

let check ~file baseline g =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let sane tag r =
    if not (r.completed_run && r.intact) then
      fail "%s: run incomplete or corrupt (%d/%d delivered, %d mismatches)" tag
        r.delivered r.messages r.mismatches
  in
  (* Doorbell audit: once a run drains, every NIC mailbox fetch must be
     explained by a doorbell — the metric pair that caught the TX
     double-charge. At batch depth > 1 a doorbell rung while the
     firmware is mid-fetch coalesces into that fetch, so doorbells may
     lead fetches by a handful; a fetch with no doorbell (or a large
     gap) still fails. Batch=1 serialises doorbell/fetch pairs and must
     agree exactly. *)
  let audit ?(exact = false) tag r =
    let d = r.doorbells and f = r.mailbox_fetches in
    let bad = if exact then d <> f else f > d || d - f > 16 in
    if bad then
      fail "%s: doorbell audit: %d doorbells vs %d mailbox fetches" tag d f
  in
  let r32 = g.batch32 and r1 = g.batch1 in
  sane "batch=32" r32;
  audit "batch=32" r32;
  sane "batch=1" r1;
  audit ~exact:true "batch=1" r1;
  (* The rings' claim: one doorbell per batch must show up as
     small-message throughput. *)
  if r1.pps > 0. && r32.pps < 2.0 *. r1.pps then
    fail "batch=32 pps %.0f < 2x batch=1 pps %.0f" r32.pps r1.pps;
  (* Busy-poll delivers the same bytes without any doorbells. *)
  let rbp = g.busy_poll_run in
  sane "busy-poll" rbp;
  if rbp.ring_doorbells <> 0 then
    fail "busy-poll: tx ring rang %d doorbells" rbp.ring_doorbells;
  if rbp.delivered <> r32.delivered then
    fail "busy-poll delivered %d, wakeup delivered %d" rbp.delivered
      r32.delivered;
  sane "loss=0.02" g.lossy;
  if g.lossy.faults_injected = 0 then
    fail "loss=0.02: fault engine injected nothing";
  if g.rerun <> r32 then fail "batch=32 seeded runs diverged";
  (* Baseline gate: pps is virtual-time throughput — deterministic — so a
     regression below 80% of the committed record is a real cost-model
     or path regression, not machine noise. *)
  (match baseline with
  | Error e -> fail "%s" e
  | Ok recs -> (
    match
      Record.last recs "pps"
        ~where:
          [
            ("bench", Str "firehose");
            ("batch", Int 32);
            ("size", Int default.size);
            ("busy_poll", Bool false);
            ("loss", Float 0.);
          ]
    with
    | Some (Float b) ->
      if b > 0. && r32.pps < 0.8 *. b then
        fail "batch=32 pps %.0f below 80%% of baseline %.0f" r32.pps b
    | _ ->
      fail "no batch=32 size=%d loss-free baseline record in %s" default.size
        file));
  List.rev !failures
