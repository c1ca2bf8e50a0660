(** Store-and-forward Ethernet switch (the testbed's Packet Engines
    switch). Each port owns an egress link; a received frame incurs a
    fixed forwarding latency, then queues on the destination port. Output
    queues have a byte limit; overflowing frames are dropped (counted). *)

type t

val create :
  Uls_engine.Sim.t ->
  ?fwd_latency:Uls_engine.Time.ns ->
  ?queue_limit:int ->
  ports:int ->
  unit ->
  t
(** Defaults: 2.5 us forwarding latency, 262144-byte output queues. *)

val egress : t -> port:int -> Link.t
(** The switch-to-station link of a port; attach the station's receive
    handler to it. *)

val station_port : t -> station:int -> int option

val connect_station : t -> port:int -> station:int -> (Frame.t -> unit) -> unit
(** Bind [station] (a node id used in frame src/dst) to [port] and set
    its receive handler on the egress link. *)

val ingress : t -> port:int -> Frame.t -> unit
(** Deliver a frame arriving from the station side of [port] (normally
    wired as the receiver of the station's uplink). Frames to unknown
    stations or overflowing queues are dropped. *)

val set_fault : t -> Uls_engine.Fault.t -> unit
(** Consult the fault engine at ingress (links keyed ["sw-in-<port>"])
    and apply its verdict: drop, corrupt, duplicate or delay the frame
    before forwarding. *)

val set_fault_filter : t -> (Frame.t -> bool) -> unit
(** Legacy boolean filter applied at ingress; returning [true] drops the
    frame (verdict [Drop "filter"]). Replaces any installed fault
    engine verdict, and vice versa. *)

val frames_forwarded : t -> int

val frames_dropped : t -> int
(** All causes. Per-cause counts are in the simulation's {!Metrics}
    registry under ["switch.drop.{unknown_dst,queue_full,fault,filter}"],
    registered when the switch is created, so a cause that never fired
    reads 0. *)
