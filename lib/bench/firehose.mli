(** Small-message datagram firehose over the ring-based batched I/O
    subsystem: one source sprays patterned datagrams at [sinks] sink
    nodes, sweeping message size x submission batch depth. [batch = 1]
    is the per-call ablation (byte-identical legacy write/read path);
    [batch > 1] runs gathered writes through the endpoint tx ring (one
    doorbell per batch) and batched receive-descriptor reposting through
    the fill ring. Deterministic per config; with [loss] set it doubles
    as the rings chaos leg. *)

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

val default : config
(** 4 sinks x 2000 messages x 64 B, batch 32, wakeup mode, seed 42. *)

type report = {
  messages : int;  (** sinks x count *)
  delivered : int;
  mismatches : int;  (** messages whose bytes differed from expected *)
  bytes : int;
  elapsed_ms : float;
  pps : float;  (** delivered messages per second of virtual time *)
  mbps : float;
  doorbells : int;  (** source-node [nic.doorbells] *)
  mailbox_fetches : int;  (** source-node [nic.mailbox_fetches] *)
  ring_submitted : int;  (** descriptors through the source tx ring *)
  ring_doorbells : int;  (** doorbells the tx ring issued *)
  faults_injected : int;
  retransmits : int;  (** EMP frame retransmissions, all nodes *)
  intact : bool;  (** every message delivered byte-exact, in order *)
  completed_run : bool;
}

val run : ?on_metrics:(Uls_engine.Metrics.t -> unit) -> config -> report
(** One firehose run on a fresh cluster. Deterministic: same config,
    byte-identical report. *)

val print_report : Format.formatter -> config -> report -> unit

val to_record : config -> report -> Record.t
(** The run as its [BENCH_rings.json] record. *)

(** The [firehose --check] runs, all on {!default} (with the checked
    match engine) at batch 32 unless named otherwise. *)
type gate_runs = {
  batch32 : report;
  batch1 : report;
  busy_poll_run : report;  (** [busy_poll = true] *)
  lossy : report;  (** [loss = 0.02] *)
  rerun : report;  (** [batch32]'s config again, for determinism *)
}

val check :
  file:string -> (Record.t list, string) result -> gate_runs -> string list
(** The [firehose --check] gates over the runs and the records read from
    the baseline [file], as failure messages (none = pass): every run
    but [rerun] complete and byte-exact; the doorbell/mailbox-fetch
    audit exact at batch 1 and within 16 (never fetches ahead) at batch
    32; batch-32 pps at least 2x batch 1; busy-poll with zero ring
    doorbells and the same deliveries; the lossy run injecting faults;
    [rerun] identical to [batch32]; and batch-32 pps at least 80% of the
    baseline's loss-free batch-32 record at the default size. A baseline
    that failed to read, or lacks that record, is a failure. *)
