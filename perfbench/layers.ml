(* Per-layer numbers for one traced run, read from outside through each
   layer's public accessors: metric registries ([Metrics.for_sim]),
   resources ([Tigon] cores and DMA engine, [Node] CPU), the switch and
   its links, the tx rings, plus the benchmark's own spans. Layer names
   are the library directories. Counts sum over every node and every
   cluster the workload built; busy and wait figures are the busiest
   node's, as a share of (or in µs over) that cluster's virtual run. *)

open Uls_engine
open Uls_bench

type metric = { name : string; value : float; unit_ : string; note : string }

let m ?(note = "") name unit_ value = { name; value; unit_; note }

(* [num / den], printed with its base. *)
let ratio name unit_ ~num ~den ~base =
  let value = if den = 0. then 0. else num /. den in
  m name unit_ value ~note:(Printf.sprintf "%.0f / %.0f %s" num den base)

let nodes c = List.init (Cluster.size c) Fun.id

let counter c name =
  let mt = Metrics.for_sim (Cluster.sim c) in
  List.fold_left (fun acc i -> acc + Metrics.counter_value mt ~node:i name) 0 (nodes c)

let hist c name =
  let mt = Metrics.for_sim (Cluster.sim c) in
  List.fold_left
    (fun (cnt, sum) i ->
      let h = Metrics.histogram mt ~node:i name in
      (cnt + Stats.Summary.count h, sum +. Stats.Summary.sum h))
    (0, 0.) (nodes c)

let sum_over cs f = List.fold_left (fun acc c -> acc +. f c) 0. cs
let fi = float_of_int

(* Every Tigon resource of every node with its cluster's end time. *)
let nic_resources (c, stop) =
  List.concat_map
    (fun i ->
      let nic = Cluster.nic c i in
      let rx =
        List.init (Uls_nic.Tigon.rx_queues nic) (fun queue ->
            Uls_nic.Tigon.rx_cpu ~queue nic)
      in
      [ (`Rx, rx); (`Tx, [ Uls_nic.Tigon.tx_cpu nic ]); (`Dma, [ Uls_nic.Tigon.dma_engine nic ]) ]
      |> List.map (fun (k, rs) -> (k, rs, stop)))
    (nodes c)

(* Busiest node's share of the run on one resource kind (several rx
   queues on a node are averaged, so the figure stays within 0..1), and
   that node's total queueing delay in µs. *)
let busiest runs kind =
  List.fold_left
    (fun (frac, wait) (k, rs, stop) ->
      if k <> kind then (frac, wait)
      else
        let busy = List.fold_left (fun a r -> a + Resource.busy_time r) 0 rs in
        let f = fi busy /. fi (List.length rs) /. fi (max 1 stop) in
        if f > frac then
          (f, fi (List.fold_left (fun a r -> a + Resource.queue_delay_total r) 0 rs) /. 1e3)
        else (frac, wait))
    (0., 0.)
    (List.concat_map nic_resources runs)

(* Self-check: no resource is busy longer than its cluster ran. *)
let busy_within_elapsed runs =
  List.for_all
    (fun (_, rs, stop) -> List.for_all (fun r -> Resource.busy_time r <= stop) rs)
    (List.concat_map nic_resources runs)
  && List.for_all
       (fun (c, stop) ->
         List.for_all (fun i -> Uls_host.Node.busy_time (Cluster.node c i) <= stop) (nodes c))
       runs

let wire_util (c, stop) =
  let net = Cluster.network c in
  let sw = Uls_ether.Network.switch net in
  let links =
    List.concat_map
      (fun i ->
        [ Uls_ether.Network.uplink net ~station:i ]
        @
        match Uls_ether.Switch.station_port sw ~station:i with
        | Some port -> [ Uls_ether.Switch.egress sw ~port ]
        | None -> [])
      (nodes c)
  in
  (* Gigabit links: one bit per ns. *)
  List.fold_left
    (fun acc l -> Float.max acc (fi (Uls_ether.Link.bytes_sent l * 8) /. fi (max 1 stop)))
    0. links

let span_pct name p =
  let d = Spans.durations_us name in
  let r = Derive.percentile d p in
  let note =
    if r.Derive.supported then Printf.sprintf "n=%d, %d beyond" r.n r.beyond
    else Printf.sprintf "n=%d: too few samples beyond, value is the maximum" r.n
  in
  let v = if r.supported || r.n = 0 then r.value else d.(r.n - 1) in
  (v, note)

(* Everything but the engine's host-clock figures and the tracing
   overhead, which need the untraced repetitions. *)
let compute (legs : Legs.t list) =
  let runs = List.concat_map (fun (l : Legs.t) -> l.clusters) legs in
  let cs = List.map fst runs in
  let cnt name = sum_over cs (fun c -> fi (counter c name)) in
  let hist_all name =
    List.fold_left
      (fun (n, s) c ->
        let n', s' = hist c name in
        (n + n', s +. s'))
      (0, 0.) cs
  in
  let from_legs combine name =
    List.fold_left
      (fun acc (l : Legs.t) ->
        match List.assoc_opt name l.layer with Some v -> combine acc v | None -> acc)
      0. legs
  in
  let rx_frac, rx_wait = busiest runs `Rx in
  let tx_frac, _ = busiest runs `Tx in
  let dma_frac, dma_wait = busiest runs `Dma in
  let walk_n, walk_sum = hist_all "nic.match_walk_descs" in
  let cw_n, cw_sum = hist_all "sub.credit_wait_us" in
  let fpi_n, fpi_sum = hist_all "ip.frames_per_interrupt" in
  let ring f =
    sum_over cs (fun c ->
        List.fold_left
          (fun acc (_, e) ->
            match Uls_emp.Endpoint.tx_ring_stats e with
            | Some st -> acc +. fi (f st)
            | None -> acc)
          0. (Cluster.endpoints c))
  in
  let open Uls_rings.Ringpair in
  let sw f = sum_over cs (fun c -> fi (f (Uls_ether.Network.switch (Cluster.network c)))) in
  let host_frac =
    List.fold_left
      (fun acc (c, stop) ->
        List.fold_left
          (fun acc i ->
            Float.max acc (fi (Uls_host.Node.busy_time (Cluster.node c i)) /. fi (max 1 stop)))
          acc (nodes c))
      0. runs
  in
  let conn_p50, conn_p50_note = span_pct "substrate.connect" 0.5 in
  let conn_p99, conn_p99_note = span_pct "substrate.connect" 0.99 in
  let send_p50, send_p50_note = span_pct "substrate.send" 0.5 in
  let send_p99, send_p99_note = span_pct "substrate.send" 0.99 in
  let tsend_p99, tsend_p99_note = span_pct "tcpip.send" 0.99 in
  let frames = cnt "emp.frames_sent" and rexmit = cnt "emp.frames_retransmitted" in
  let wakeups = cnt "server.evq.wakeups" and spurious = cnt "server.evq.spurious" in
  [
    m "ether.frames_forwarded" "count" (sw Uls_ether.Switch.frames_forwarded);
    m "ether.frames_dropped" "count" (sw Uls_ether.Switch.frames_dropped);
    m "ether.wire_util_max" "ratio" (List.fold_left (fun a r -> Float.max a (wire_util r)) 0. runs)
      ~note:"busiest link's bytes x 8 / virtual ns";
    m "nic.rx_cpu_busy_frac" "ratio" rx_frac;
    m "nic.rx_cpu_wait_us" "us" rx_wait;
    m "nic.tx_cpu_busy_frac" "ratio" tx_frac;
    m "nic.dma_busy_frac" "ratio" dma_frac;
    m "nic.dma_wait_us" "us" dma_wait;
    ratio "nic.match_descs_per_lookup" "ratio" ~num:walk_sum ~den:(fi walk_n) ~base:"lookups";
    m "nic.doorbells" "count" (cnt "nic.doorbells");
    m "nic.mailbox_fetches" "count" (cnt "nic.mailbox_fetches");
    m "host.cpu_busy_frac" "ratio" host_frac;
    m "host.syscalls" "count" (cnt "os.syscalls");
    m "emp.frames_sent" "count" frames;
    m "emp.frames_retransmitted" "count" rexmit;
    ratio "emp.retransmit_frac" "ratio" ~num:rexmit ~den:frames ~base:"frames sent";
    m "emp.nacks_sent" "count" (cnt "emp.nacks_sent");
    m "emp.drops_no_descriptor" "count" (cnt "emp.drops_no_descriptor");
    m "emp.uq_hits" "count" (cnt "emp.uq_hits");
    m "substrate.connect_us_p50" "us" conn_p50 ~note:conn_p50_note;
    m "substrate.connect_us_p99" "us" conn_p99 ~note:conn_p99_note;
    m "substrate.send_us_p50" "us" send_p50 ~note:send_p50_note;
    m "substrate.send_us_p99" "us" send_p99 ~note:send_p99_note;
    m "substrate.connect_retries" "count" (cnt "sub.connect_retries");
    m "substrate.accept_dups" "count" (cnt "sub.accept_dups");
    m "substrate.credit_wait_us" "us" cw_sum
      ~note:(Printf.sprintf "total over %d credit waits" cw_n);
    ratio "substrate.credit_acks_per_write" "ratio" ~num:(cnt "sub.credit_acks_sent")
      ~den:(cnt "sub.writes") ~base:"writes";
    m "tcpip.tx_segments" "count" (cnt "tcp.tx_segments");
    m "tcpip.retransmits" "count" (cnt "tcp.retransmits");
    ratio "tcpip.frames_per_interrupt" "ratio" ~num:fpi_sum ~den:(fi fpi_n) ~base:"interrupts";
    m "tcpip.send_us_p99" "us" tsend_p99 ~note:tsend_p99_note;
    ratio "rings.submits_per_doorbell" "ratio" ~num:(ring (fun s -> s.submitted))
      ~den:(ring (fun s -> s.doorbells)) ~base:"doorbells";
    m "rings.fetch_batches" "count" (ring (fun s -> s.fetch_batches));
    m "rings.sq_drops" "count" (ring (fun s -> s.sq_drops));
    m "rings.cq_flushes" "count" (ring (fun s -> s.cq_flushes));
    m "server.evq_useful_frac" "ratio"
      (if wakeups = 0. then 0. else 1. -. (spurious /. wakeups))
      ~note:(Printf.sprintf "1 - %.0f spurious / %.0f wakeups" spurious wakeups);
    m "server.sched_dispatches" "count" (cnt "server.sched.dispatches");
    m "server.shed" "count" (cnt "server.sched.shed");
    m "server.embryo_closed" "count" (cnt "server.sched.embryo_closed");
    m "server.peak_inflight" "count" (from_legs Float.max "server.peak_inflight")
      ~note:"busiest shard";
    m "fabric.probes_failed" "count" (cnt "fabric.probes.failed");
    m "fabric.remapped" "count" (from_legs ( +. ) "fabric.remapped");
    m "fabric.retried_ok" "count" (from_legs ( +. ) "fabric.retried_ok");
    m "fabric.no_route" "count" (from_legs ( +. ) "fabric.no_route");
    m "fabric.peak_cell_open" "count" (from_legs Float.max "fabric.peak_cell_open") ~note:"busiest cell";
  ]
