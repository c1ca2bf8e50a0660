(* Workload legs. Each builds its own cluster through the public
   constructors, generates every input from the seed, byte-verifies
   every output, and records every latency sample itself (no reservoir).
   A leg's virtual-clock results depend only on its parameters; its
   host-clock figures are measured around [Cluster.run]. *)

open Uls_engine
open Uls_bench
module Api = Uls_api.Sockets_api
module Fabric = Uls_fabric.Fabric
module Ring = Uls_fabric.Ring
module Sub = Uls_substrate.Substrate
module Conn = Uls_substrate.Conn
module Opt = Uls_substrate.Options
module E = Uls_emp.Endpoint

type host = {
  setup_s : float;  (** cluster, stacks and fibers, before the first event *)
  wall_s : float;  (** first dispatched event to quiescence *)
  minor_words : float;  (** allocated during [Cluster.run] *)
  major_gcs : int;  (** major collections during [Cluster.run] *)
}

type t = {
  lat_ns : float list;  (** one sample per operation *)
  attempted : int;  (** operations attempted *)
  failed : int;  (** shed, refused, reset, errored, mismatched, no-route, undelivered *)
  msgs : int;  (** verified application messages delivered *)
  bytes : int;  (** verified payload bytes *)
  elapsed_ns : int;  (** virtual span the rates are taken over *)
  clusters : (Cluster.t * int) list;  (** each with its virtual end time *)
  host : host;
  checks : (string * bool) list;
  layer : (string * float) list;  (** per-layer counts only the leg itself sees *)
}

let host_zero = { setup_s = 0.; wall_s = 0.; minor_words = 0.; major_gcs = 0 }

let add_host a b =
  {
    setup_s = a.setup_s +. b.setup_s;
    wall_s = a.wall_s +. b.wall_s;
    minor_words = a.minor_words +. b.minor_words;
    major_gcs = a.major_gcs + b.major_gcs;
  }

(* Run [c] to quiescence, timing the dispatch loop. [t_setup] is the host
   instant the leg started building. *)
let execute ~t_setup ?until c =
  let t0 = Unix.gettimeofday () in
  let g0 = Gc.quick_stat () in
  let outcome = Cluster.run ?until c in
  let g1 = Gc.quick_stat () in
  let t1 = Unix.gettimeofday () in
  let host =
    {
      setup_s = t0 -. t_setup;
      wall_s = t1 -. t0;
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
    }
  in
  (outcome = `Quiescent, host)

(* Patterned payload: distinct per seed, stream, message and offset, so a
   lost, duplicated, reordered or corrupted message fails comparison. *)
let payload ~seed ~stream ~index ~size =
  String.init size (fun b ->
      Char.chr ((seed + (stream * 131) + (index * 7919) + (b * 13)) land 0xff))

let rec read_exact conn n acc =
  if n = 0 then String.concat "" (List.rev acc)
  else
    match Conn.read conn n with
    | "" -> String.concat "" (List.rev acc)
    | s -> read_exact conn (n - String.length s) (s :: acc)

(* --- fabric churn ------------------------------------------------------------ *)

module Churn = struct
  let cells = 16
  let shards = 4
  let client_nodes = 64
  let size = 256
  let echoes = 2
  let vnodes = 128
  let ring_seed = 42

  (* Poisson arrival instants, from 2 ms on so the cells have bound
     their listeners first. The generator fiber sleeps until each
     instant, so in virtual time it can never run late. *)
  let arrivals ~seed ~rate ~n =
    let rng = Rng.create ~seed in
    let mean = 1e9 /. rate in
    let t = ref (Time.ms 2) in
    Array.init n (fun _ ->
        t := !t + int_of_float (Rng.exponential rng ~mean);
        !t)

  (* One sample per session: from the scheduled arrival to the last echo
     verified, so it includes connect and any retries. The first
     [warmup] arrivals run and are verified but not sampled: they pay
     the cold first contact between each client node and each cell. *)
  let run ~seed ~rate ~n ~warmup ~until =
    let t_setup = Unix.gettimeofday () in
    (* Cells 0..15, prober 16, clients 17..80. *)
    let c =
      Cluster.create ~match_engine:Uls_nic.Match_list.Hashed ~sched:`Wheel
        ~n:(cells + 1 + client_nodes) ()
    in
    let sim = Cluster.sim c in
    let api = Cluster.substrate_api ~opts:Opt.server c in
    let arr = arrivals ~seed ~rate ~n in
    let port = Fabric.default_config.Fabric.port in
    let home = Ring.create ~vnodes ~seed:ring_seed () in
    for id = 0 to cells - 1 do
      Ring.add home id
    done;
    let lat = ref [] and verified = ref 0 and mismatched = ref 0 in
    let no_route = ref 0 and remapped = ref 0 and retried_ok = ref 0 in
    let finished = ref 0 in
    let t_last = ref 0 in
    let client fab conn () =
      let client_node = cells + 1 + (conn mod client_nodes) in
      let key = Fabric.flow_key ~client_node ~flow:conn ~port in
      Spans.span sim ~rid:conn "app.conn" (fun parent ->
          (* A failed connect is retried twice with backoff; a route
             that finds no live cell is final. *)
          let rec attempt tries =
            match
              Spans.span sim ~parent ~rid:conn "substrate.connect" (fun _ ->
                  Fabric.connect fab ~client_node ~key)
            with
            | r ->
              if tries > 0 then incr retried_ok;
              Some r
            | exception Fabric.No_live_cells ->
              incr no_route;
              None
            | exception _ when tries < 2 ->
              Sim.delay sim (Time.us 200 lsl tries);
              attempt (tries + 1)
            | exception _ -> None
          in
          match attempt 0 with
          | None -> ()
          | Some (s, cell) ->
            if Ring.lookup home ~key <> Some cell then incr remapped;
            let due = arr.(conn) in
            (try
               for seq = 0 to echoes - 1 do
                 let p = payload ~seed ~stream:conn ~index:seq ~size in
                 Spans.span sim ~parent ~rid:conn "substrate.send" (fun _ -> s.Api.send p);
                 let got =
                   Spans.span sim ~parent ~rid:conn "substrate.recv" (fun _ ->
                       Api.recv_exact s size)
                 in
                 let now = Sim.now sim in
                 if String.equal got p then begin
                   incr verified;
                   if seq = echoes - 1 && conn >= warmup then
                     lat := float_of_int (now - due) :: !lat;
                   t_last := max !t_last now
                 end
                 else incr mismatched
               done
             with _ -> ());
            (try s.Api.close () with _ -> ()));
      incr finished;
      if !finished = n then Fabric.stop fab
    in
    let fab_ref = ref None in
    Sim.spawn sim ~name:"churn-setup" (fun () ->
        let fab =
          Fabric.create sim api
            ~nodes:(List.init cells (fun i -> i))
            {
              Fabric.default_config with
              shards;
              vnodes;
              ring_seed;
              probe_node = Some cells;
            }
        in
        fab_ref := Some fab;
        Sim.spawn sim ~name:"churn-arrivals" (fun () ->
            Array.iteri
              (fun conn at ->
                Sim.delay sim (max 0 (at - Sim.now sim));
                Sim.spawn sim ~name:"churn-conn" (client fab conn))
              arr));
    let quiet, host = execute ~t_setup ~until c in
    let fab = Option.get !fab_ref in
    let peak_shard = ref 0 and peak_cell = ref 0 in
    for id = 0 to cells - 1 do
      let srv = Fabric.server fab id in
      peak_cell := max !peak_cell (Uls_server.Server.peak_inflight srv);
      List.iter
        (fun sc -> peak_shard := max !peak_shard (Uls_server.Sched.peak_inflight sc))
        (Uls_server.Server.scheds srv)
    done;
    let attempted = n * echoes in
    {
      lat_ns = !lat;
      attempted;
      failed = attempted - !verified;
      msgs = !verified;
      bytes = !verified * size;
      elapsed_ns = max 1 (!t_last - arr.(0));
      clusters = [ (c, Sim.now sim) ];
      host;
      checks =
        [
          ("churn.quiescent", quiet);
          ("churn.all_arrivals_finished", !finished = n);
          ("churn.no_mismatch", !mismatched = 0);
          ("churn.seed_changes_arrivals", arrivals ~seed:(seed + 1) ~rate ~n <> arr);
        ];
      layer =
        [
          ("fabric.remapped", float_of_int !remapped);
          ("fabric.no_route", float_of_int !no_route);
          ("fabric.retried_ok", float_of_int !retried_ok);
          ("fabric.peak_cell_open", float_of_int !peak_cell);
          ("server.peak_inflight", float_of_int !peak_shard);
        ];
    }
end

(* --- one source spraying fixed-size messages at K sinks ---------------------- *)

module Spray = struct
  type cfg = {
    sinks : int;
    per_sink : int;
    size : int;
    batch : int;  (** > 1: gathered writes through the tx ring *)
    opts : Opt.t;
    rate : float option;  (** paced msg/s over all sinks; [None] = saturating *)
  }

  let run ~seed cfg =
    let t_setup = Unix.gettimeofday () in
    let c =
      Cluster.create ~match_engine:Uls_nic.Match_list.Hashed ~sched:`Wheel
        ~n:(cfg.sinks + 1) ()
    in
    let sim = Cluster.sim c in
    let sub = Array.init (cfg.sinks + 1) (fun i -> Cluster.substrate ~opts:cfg.opts c i) in
    let rng = Rng.create ~seed in
    (* Inputs: each sink's stream starts at its own seeded offset. Paced
       (open loop), a single source sends at a constant rate, like a
       packet generator, so the capacity ladder finds the rate the path
       sustains rather than how a burst happened to fall. *)
    let start = Array.init cfg.sinks (fun _ -> Time.us 50 + Rng.int rng (Time.us 20)) in
    let work = Array.init cfg.sinks (fun _ -> Rng.split rng) in
    let stamp =
      Array.init cfg.sinks (fun k ->
          match cfg.rate with
          | None -> Array.make cfg.per_sink 0
          | Some r ->
            let gap = 1e9 *. float_of_int cfg.sinks /. r in
            Array.init cfg.per_sink (fun i -> start.(k) + int_of_float (float_of_int i *. gap)))
    in
    let lat = ref [] and delivered = ref 0 and mismatched = ref 0 in
    let t_first = Array.fold_left min max_int start and t_last = ref 0 in
    for k = 0 to cfg.sinks - 1 do
      Sim.spawn sim ~name:"spray-sink" (fun () ->
          let s = sub.(k + 1) in
          let l = Sub.listen s ~port:80 ~backlog:4 in
          let conn, _ = Sub.accept s l in
          let got = ref 0 and eof = ref false in
          let consume msg =
            let now = Sim.now sim in
            if String.equal msg (payload ~seed ~stream:k ~index:!got ~size:cfg.size) then begin
              incr delivered;
              lat := float_of_int (now - stamp.(k).(!got)) :: !lat;
              t_last := max !t_last now
            end
            else incr mismatched;
            incr got
          in
          while !got < cfg.per_sink && not !eof do
            if cfg.batch > 1 then
              match Conn.readv conn ~max:cfg.batch with
              | [] -> eof := true
              | msgs -> List.iter consume msgs
            else
              match read_exact conn cfg.size [] with
              | m when String.length m < cfg.size -> eof := true
              | m -> consume m
          done;
          if not !eof then begin
            Conn.write conn "k";
            while Conn.read conn 1 <> "" do
              ()
            done
          end;
          Conn.close conn;
          Sub.close_listener s l)
    done;
    for k = 0 to cfg.sinks - 1 do
      Sim.spawn sim ~name:"spray-src" (fun () ->
          Sim.delay sim start.(k);
          let conn =
            Spans.span sim ~rid:k "substrate.connect" (fun _ ->
                Sub.connect sub.(0) { Api.node = k + 1; port = 80 })
          in
          let j = ref 0 in
          while !j < cfg.per_sink do
            let n =
              match cfg.rate with
              | None ->
                (* The producer's own work per batch, a seeded 0..2 µs:
                   without it the saturated pipeline settles into the
                   same schedule whatever the seed. *)
                Sim.delay sim (Rng.int work.(k) (Time.us 2));
                let n = min cfg.batch (cfg.per_sink - !j) in
                let now = Sim.now sim in
                for i = !j to !j + n - 1 do
                  stamp.(k).(i) <- now
                done;
                n
              | Some _ ->
                let due = stamp.(k).(!j) in
                if due > Sim.now sim then Sim.delay sim (due - Sim.now sim);
                let now = Sim.now sim in
                let n = ref 1 in
                while !n < cfg.batch && !j + !n < cfg.per_sink && stamp.(k).(!j + !n) <= now do
                  incr n
                done;
                !n
            in
            let msgs = List.init n (fun i -> payload ~seed ~stream:k ~index:(!j + i) ~size:cfg.size) in
            Spans.span sim ~rid:k "substrate.send" (fun _ ->
                if cfg.batch > 1 then Conn.writev conn msgs else List.iter (Conn.write conn) msgs);
            j := !j + n
          done;
          ignore (Conn.read conn 1);
          Conn.close conn)
    done;
    let quiet, host = execute ~t_setup ~until:(Time.s 60) c in
    let messages = cfg.sinks * cfg.per_sink in
    let submitted =
      match E.tx_ring_stats (Sub.emp sub.(0)) with
      | Some st -> st.Uls_rings.Ringpair.submitted
      | None -> 0
    in
    {
      lat_ns = !lat;
      attempted = messages;
      failed = messages - !delivered;
      msgs = !delivered;
      bytes = !delivered * cfg.size;
      elapsed_ns = max 1 (!t_last - t_first);
      clusters = [ (c, Sim.now sim) ];
      host;
      checks =
        [
          ("spray.quiescent", quiet);
          ("spray.no_mismatch", !mismatched = 0);
          ( "spray.ring_submissions_eq_sent",
            if cfg.batch > 1 then submitted = messages else submitted = 0 );
        ];
      layer = [];
    }
end

(* --- the paper's Figure 13: 4 B ping-pong and 64 KiB stream, DS vs TCP ------- *)

module Fig13 = struct
  type stack = Ds | Tcp

  let api stack c =
    match stack with
    | Ds -> Cluster.substrate_api ~opts:Opt.data_streaming_enhanced c
    | Tcp -> Cluster.tcp_api ~config:Uls_tcp.Config.default c

  let layer = function Ds -> "substrate" | Tcp -> "tcpip"
  let port = 99
  let warmup = 5

  (* Back-to-back iterations, as in the paper; each is one sample: half
     its round trip. *)
  let ping_pong ~seed ~stack ~iters ~size =
    let t_setup = Unix.gettimeofday () in
    let c = Cluster.create ~n:2 () in
    let sim = Cluster.sim c in
    let api = api stack c in
    let lat = ref [] and verified = ref 0 and t_first = ref 0 and t_last = ref 0 in
    let tag = layer stack in
    Sim.spawn sim ~name:"pp-server" (fun () ->
        let l = api.Api.listen ~node:1 ~port ~backlog:4 in
        let s, _ = l.Api.accept () in
        (try
           for _ = 1 to iters + warmup do
             s.Api.send (Api.recv_exact s size)
           done
         with Api.Connection_closed -> ());
        s.Api.close ());
    Sim.spawn sim ~name:"pp-client" (fun () ->
        Sim.delay sim (Time.us 50);
        let s =
          Spans.span sim ~rid:0 (tag ^ ".connect") (fun _ ->
              api.Api.connect ~node:0 { Api.node = 1; port })
        in
        t_first := Sim.now sim;
        for i = 0 to iters + warmup - 1 do
          let p = payload ~seed ~stream:0 ~index:i ~size in
          let t0 = Sim.now sim in
          let got =
            Spans.span sim ~rid:i "app.rtt" (fun parent ->
                Spans.span sim ~parent ~rid:i (tag ^ ".send") (fun _ -> s.Api.send p);
                Api.recv_exact s size)
          in
          if i >= warmup && String.equal got p then begin
            incr verified;
            lat := (float_of_int (Sim.now sim - t0) /. 2.) :: !lat
          end
        done;
        t_last := Sim.now sim;
        s.Api.close ());
    let quiet, host = execute ~t_setup c in
    {
      lat_ns = !lat;
      attempted = iters;
      failed = iters - !verified;
      msgs = 2 * !verified;
      bytes = 2 * !verified * size;
      elapsed_ns = max 1 (!t_last - !t_first);
      clusters = [ (c, Sim.now sim) ];
      host;
      checks = [ (tag ^ ".ping_pong.quiescent", quiet) ];
      layer = [];
    }

  (* FNV-1a (63-bit) over the stream: the receiver's checksum must equal the
     checksum of what was sent. *)
  let fnv h s =
    let h = ref h in
    String.iter (fun ch -> h := (!h lxor Char.code ch) * 0x100000001b3) s;
    !h

  let fnv0 = 0x4bf29ce484222325

  let stream ~seed ~stack ~count ~msg =
    let msgs = Array.init count (fun i -> payload ~seed ~stream:1 ~index:i ~size:msg) in
    let expect = Array.fold_left fnv fnv0 msgs in
    let t_setup = Unix.gettimeofday () in
    let c = Cluster.create ~n:2 () in
    let sim = Cluster.sim c in
    let api = api stack c in
    let tag = layer stack in
    let goal = count * msg in
    let got_sum = ref fnv0 and got = ref 0 and t0 = ref 0 and t1 = ref 0 in
    Sim.spawn sim ~name:"stream-sink" (fun () ->
        let l = api.Api.listen ~node:1 ~port ~backlog:4 in
        let s, _ = l.Api.accept () in
        let rec drain () =
          if !got < goal then
            match s.Api.recv 65536 with
            | "" -> ()
            | chunk ->
              got_sum := fnv !got_sum chunk;
              got := !got + String.length chunk;
              drain ()
        in
        drain ();
        s.Api.send "k";
        s.Api.close ());
    Sim.spawn sim ~name:"stream-src" (fun () ->
        Sim.delay sim (Time.us 50);
        let s =
          Spans.span sim ~rid:0 (tag ^ ".connect") (fun _ ->
              api.Api.connect ~node:0 { Api.node = 1; port })
        in
        t0 := Sim.now sim;
        Array.iteri
          (fun i m -> Spans.span sim ~rid:i (tag ^ ".send") (fun _ -> s.Api.send m))
          msgs;
        ignore (s.Api.recv 1);
        t1 := Sim.now sim;
        s.Api.close ());
    let quiet, host = execute ~t_setup c in
    let ok = !got = goal && !got_sum = expect in
    {
      lat_ns = [];
      attempted = count;
      failed = (if ok then 0 else count);
      msgs = (if ok then count else 0);
      bytes = (if ok then goal else 0);
      elapsed_ns = max 1 (!t1 - !t0);
      clusters = [ (c, Sim.now sim) ];
      host;
      checks = [ (tag ^ ".stream.quiescent", quiet); (tag ^ ".stream.checksum", ok) ];
      layer = [];
    }
end
