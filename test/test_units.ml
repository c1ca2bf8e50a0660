(* Unit tests for the small pure modules: substrate tags/codec/options,
   send pools, TCP segment arithmetic, engine trace. *)
open Uls_engine
module Opt = Uls_substrate.Options
module Tags = Uls_substrate.Tags
module Codec = Uls_substrate.Codec
module Seg = Uls_tcp.Segment

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Tags --- *)

let test_tags_distinct_kinds () =
  let kinds =
    [
      Tags.Conn_request;
      Tags.Conn_reply;
      Tags.Data;
      Tags.Credit_ack;
      Tags.Rdvz_request;
      Tags.Rdvz_grant;
      Tags.Rdvz_data;
      Tags.Close;
    ]
  in
  let tags = List.map (fun k -> Tags.make k 7) kinds in
  let uniq = List.sort_uniq compare tags in
  check_int "all kinds distinct for same id" (List.length kinds)
    (List.length uniq)

let test_tags_16bit () =
  List.iter
    (fun k ->
      let t = Tags.make k Tags.max_id in
      check_bool "fits 16 bits" true (t >= 0 && t < 65_536))
    [ Tags.Conn_request; Tags.Close ]

let test_tags_range_checked () =
  Alcotest.check_raises "id too large"
    (Invalid_argument "Tags.make: id out of range") (fun () ->
      ignore (Tags.make Tags.Data 4096));
  Alcotest.check_raises "negative id"
    (Invalid_argument "Tags.make: id out of range") (fun () ->
      ignore (Tags.make Tags.Data (-1)))

let prop_tags_injective =
  QCheck.Test.make ~name:"tag encoding is injective" ~count:300
    QCheck.(pair (pair (int_range 0 7) (int_range 0 4095))
              (pair (int_range 0 7) (int_range 0 4095)))
    (fun ((k1, i1), (k2, i2)) ->
      let kind = function
        | 0 -> Tags.Conn_request
        | 1 -> Tags.Conn_reply
        | 2 -> Tags.Data
        | 3 -> Tags.Credit_ack
        | 4 -> Tags.Rdvz_request
        | 5 -> Tags.Rdvz_grant
        | 6 -> Tags.Rdvz_data
        | _ -> Tags.Close
      in
      let t1 = Tags.make (kind k1) i1 and t2 = Tags.make (kind k2) i2 in
      (t1 = t2) = (k1 = k2 && i1 = i2))

(* --- Codec --- *)

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"codec int list roundtrip" ~count:200
    QCheck.(list_of_size Gen.(0 -- 8) int)
    (fun ints -> Codec.decode (Codec.encode ints) = ints)

let test_codec_region () =
  let s = Codec.encode [ 42; -7; max_int ] in
  let region = Uls_host.Memory.of_string s in
  Alcotest.(check (list int)) "decode_region" [ 42; -7; max_int ]
    (Codec.decode_region region ~off:0 ~count:3)

let test_codec_partial_decode () =
  let s = Codec.encode [ 1; 2; 3 ] in
  Alcotest.(check (list int)) "count limits" [ 1; 2 ] (Codec.decode ~count:2 s)

(* --- Options --- *)

let test_ack_threshold () =
  check_int "no DA: every message" 1 (Opt.ack_threshold Opt.data_streaming);
  check_int "DA: half the credits" 16
    (Opt.ack_threshold { Opt.data_streaming with delayed_acks = true });
  check_int "DA with 1 credit still acks" 1
    (Opt.ack_threshold { Opt.data_streaming with delayed_acks = true; credits = 1 });
  check_int "blocking send forces per-message acks" 1
    (Opt.ack_threshold
       { Opt.data_streaming with delayed_acks = true; block_send = true })

let test_chunk_capacity () =
  check_int "buffer minus header"
    (65_536 - Opt.header_bytes)
    (Opt.chunk_capacity Opt.data_streaming)

let test_mode_names () =
  Alcotest.(check string) "DS" "DS" (Opt.mode_name Opt.data_streaming);
  Alcotest.(check string) "DG" "DG" (Opt.mode_name Opt.datagram)

(* --- Sendpool --- *)

let test_sendpool_reuses_slots () =
  let c = Uls_bench.Cluster.create ~n:2 () in
  let e0 = Uls_bench.Cluster.emp c 0 and e1 = Uls_bench.Cluster.emp c 1 in
  let sim = Uls_bench.Cluster.sim c in
  let pool =
    Uls_substrate.Sendpool.create (Uls_bench.Cluster.node c 0) e0 ~slots:2 ~size:64
  in
  let received = ref [] in
  Sim.spawn sim (fun () ->
      let buf = Uls_host.Memory.alloc 64 in
      for _ = 1 to 6 do
        let r = Uls_emp.Endpoint.post_recv e1 ~src:0 ~tag:5 buf ~off:0 ~len:64 in
        let len, _, _ = Uls_emp.Endpoint.wait_recv e1 r in
        received := Uls_host.Memory.sub_string buf ~off:0 ~len :: !received
      done);
  Sim.spawn sim (fun () ->
      for i = 1 to 6 do
        ignore
          (Uls_substrate.Sendpool.send pool ~dst:1 ~tag:5 (Printf.sprintf "m%d" i))
      done);
  ignore (Uls_bench.Cluster.run c);
  Alcotest.(check (list string))
    "all messages delivered in order despite 2 slots"
    [ "m1"; "m2"; "m3"; "m4"; "m5"; "m6" ]
    (List.rev !received);
  (* Ring slots are pre-registered: no pin misses during sends. *)
  check_int "no pin misses"
    0
    (Uls_host.Os.translation_cache_misses
       (Uls_host.Node.os (Uls_bench.Cluster.node c 0)))

let test_sendpool_size_limit () =
  let c = Uls_bench.Cluster.create ~n:2 () in
  let e0 = Uls_bench.Cluster.emp c 0 in
  let pool =
    Uls_substrate.Sendpool.create (Uls_bench.Cluster.node c 0) e0 ~slots:2 ~size:8
  in
  let sim = Uls_bench.Cluster.sim c in
  let got = ref "" in
  Sim.spawn sim (fun () ->
      try ignore (Uls_substrate.Sendpool.send pool ~dst:1 ~tag:1 "123456789")
      with Invalid_argument msg -> got := msg);
  ignore (Uls_bench.Cluster.run c);
  (* [send] is [stage] + post: the size check is [stage]'s. *)
  Alcotest.(check string) "oversized message rejected"
    "Sendpool.stage: message too large" !got

(* --- TCP segment arithmetic --- *)

let test_segment_sizes () =
  check_int "mss fills a frame" 1_460 Seg.mss;
  check_int "tcp payload bytes"
    (20 + 5)
    (Seg.payload_bytes
       (Seg.Tcp
          {
            src_port = 1;
            dst_port = 2;
            seq = 0;
            ack_no = 0;
            flags = Seg.flag ();
            wnd = 0;
            data = "hello";
          }));
  check_int "udp payload bytes" (8 + 3)
    (Seg.payload_bytes
       (Seg.Udp { u_src_port = 1; u_dst_port = 2; u_data = "abc" }))

let test_flags_printer () =
  Alcotest.(check string) "flags" "SA"
    (Format.asprintf "%a" Seg.pp_flags (Seg.flag ~syn:true ~ack:true ()))

(* --- Trace --- *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else scan (i + 1)
  in
  nn = 0 || scan 0

let test_trace_capture () =
  let sim = Sim.create () in
  let tr = Trace.create sim in
  Trace.emit tr ~tag:"x" "dropped while disabled";
  Trace.enable tr;
  Sim.spawn sim (fun () ->
      Sim.delay sim 1_500;
      Trace.emitf tr ~tag:"emp" "frame %d" 7);
  ignore (Sim.run sim);
  match Trace.lines tr with
  | [ line ] ->
    check_bool "has tag" true (contains line "emp");
    check_bool "has message" true (contains line "frame 7")
  | l -> Alcotest.failf "expected 1 line, got %d" (List.length l)

let qsuite = List.map QCheck_alcotest.to_alcotest

let suites =
  [
    ( "substrate.tags",
      Alcotest.test_case "kinds distinct" `Quick test_tags_distinct_kinds
      :: Alcotest.test_case "16 bit" `Quick test_tags_16bit
      :: Alcotest.test_case "range checked" `Quick test_tags_range_checked
      :: qsuite [ prop_tags_injective ] );
    ( "substrate.codec",
      Alcotest.test_case "decode_region" `Quick test_codec_region
      :: Alcotest.test_case "partial decode" `Quick test_codec_partial_decode
      :: qsuite [ prop_codec_roundtrip ] );
    ( "substrate.options",
      [
        Alcotest.test_case "ack threshold" `Quick test_ack_threshold;
        Alcotest.test_case "chunk capacity" `Quick test_chunk_capacity;
        Alcotest.test_case "mode names" `Quick test_mode_names;
      ] );
    ( "substrate.sendpool",
      [
        Alcotest.test_case "slot reuse" `Quick test_sendpool_reuses_slots;
        Alcotest.test_case "size limit" `Quick test_sendpool_size_limit;
      ] );
    ( "tcp.segment",
      [
        Alcotest.test_case "sizes" `Quick test_segment_sizes;
        Alcotest.test_case "flags printer" `Quick test_flags_printer;
      ] );
    ( "engine.trace",
      [ Alcotest.test_case "capture" `Quick test_trace_capture ] );
  ]
