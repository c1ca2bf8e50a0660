open Uls_engine

type port = {
  egress : Link.t;
  mutable queued_bytes : int;
}

type t = {
  sim : Sim.t;
  drop_unknown_dst : Stats.Counter.t;
  drop_queue_full : Stats.Counter.t;
  drop_fault : Stats.Counter.t;
  drop_filter : Stats.Counter.t;
  trace : Trace.t;
  fwd_latency : Time.ns;
  queue_limit : int;
  ports : port array;
  mac_table : (int, int) Hashtbl.t; (* station id -> port *)
  mutable verdict : port:int -> Frame.t -> Fault.decision;
  mutable forwarded : int;
  mutable dropped : int;
}

let create sim ?(fwd_latency = 2_500) ?(queue_limit = 262_144) ~ports () =
  let make_port i =
    {
      egress = Link.create sim ~name:(Printf.sprintf "sw-egress-%d" i) ();
      queued_bytes = 0;
    }
  in
  (* Registered up front so a clean run reports each cause at 0 rather
     than omitting it. *)
  let metrics = Metrics.for_sim sim in
  let drop_counter cause = Metrics.counter metrics ("switch.drop." ^ cause) in
  {
    sim;
    drop_unknown_dst = drop_counter "unknown_dst";
    drop_queue_full = drop_counter "queue_full";
    drop_fault = drop_counter "fault";
    drop_filter = drop_counter "filter";
    trace = Trace.for_sim sim;
    fwd_latency;
    queue_limit;
    ports = Array.init ports make_port;
    mac_table = Hashtbl.create 16;
    verdict = (fun ~port:_ _ -> Fault.Deliver);
    forwarded = 0;
    dropped = 0;
  }

let egress t ~port = t.ports.(port).egress
let station_port t ~station = Hashtbl.find_opt t.mac_table station

let connect_station t ~port ~station handler =
  Hashtbl.replace t.mac_table station port;
  Link.set_receiver t.ports.(port).egress handler

(* Legacy boolean filter: a [true] verdict is a plain drop, attributed
   to the ["filter"] cause. *)
let set_fault_filter t f =
  t.verdict <-
    (fun ~port:_ frame -> if f frame then Fault.Drop "filter" else Fault.Deliver)

let set_fault t fault =
  t.verdict <-
    (fun ~port frame ->
      Fault.decide fault
        ~link:(Printf.sprintf "sw-in-%d" port)
        ~src:frame.Frame.src ~dst:frame.Frame.dst)

let frames_forwarded t = t.forwarded
let frames_dropped t = t.dropped

(* Every frame the switch loses is attributed to a cause, so a chaos run
   can account for each missing frame: [switch.drop.unknown_dst] (MAC
   table miss), [switch.drop.queue_full] (egress overflow),
   [switch.drop.fault] (injected) and [switch.drop.filter] (legacy
   boolean filter). *)
let drop t frame counter ~cause =
  t.dropped <- t.dropped + 1;
  Stats.Counter.incr counter;
  Trace.instant t.trace ~layer:Trace.Net "switch.drop"
    ~args:
      [
        ("cause", cause);
        ("src", string_of_int frame.Frame.src);
        ("dst", string_of_int frame.Frame.dst);
      ]

let forward t frame =
  match Hashtbl.find_opt t.mac_table frame.Frame.dst with
  | None -> drop t frame t.drop_unknown_dst ~cause:"unknown_dst"
  | Some out ->
    let p = t.ports.(out) in
    let wire = Frame.wire_bytes frame in
    if p.queued_bytes + wire > t.queue_limit then
      drop t frame t.drop_queue_full ~cause:"queue_full"
    else begin
      p.queued_bytes <- p.queued_bytes + wire;
      t.forwarded <- t.forwarded + 1;
      let finish = Link.busy_until p.egress + Link.transmit_time p.egress frame in
      Link.send p.egress frame;
      (* Reclaim queue space when the frame has left the port. *)
      Sim.at t.sim finish (fun () -> p.queued_bytes <- p.queued_bytes - wire)
    end

let ingress t ~port frame =
  let forward_after extra frame =
    Sim.at t.sim (Sim.now t.sim + t.fwd_latency + extra) (fun () -> forward t frame)
  in
  match t.verdict ~port frame with
  | Fault.Deliver -> forward_after 0 frame
  | Fault.Drop cause ->
    (* Injected drops all count as "fault"; the legacy boolean filter
       keeps its own cause so old tests can tell them apart. *)
    if cause = "filter" then drop t frame t.drop_filter ~cause
    else drop t frame t.drop_fault ~cause:"fault"
  | Fault.Corrupt -> forward_after 0 (Frame.corrupt frame)
  | Fault.Duplicate ->
    forward_after 0 frame;
    forward_after 0 frame
  | Fault.Delay extra -> forward_after extra frame
