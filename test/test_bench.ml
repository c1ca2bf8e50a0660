(* Tests for the benchmark records and the CI gates that read them:
   Record's line format against the committed BENCH_*.json files, and
   each engine/firehose gate pinned at its boundary on synthetic rows,
   so gate behaviour is checked without wall-clock noise. *)
module Record = Uls_bench.Record
module Eb = Uls_bench.Engine_bench
module Firehose = Uls_bench.Firehose

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let check_fails = Alcotest.(check (list string))

let read_file file = In_channel.with_open_bin file In_channel.input_all

let temp_records lines =
  let file = Filename.temp_file "record" ".json" in
  Out_channel.with_open_bin file (fun oc -> output_string oc lines);
  file

let read_ok file =
  match Record.read file with
  | Ok recs -> recs
  | Error e -> Alcotest.fail e

(* --- Record --- *)

(* The committed baselines sit at the project root: the parent of the
   test directory under [dune runtest], the working directory when the
   test binary is run from a checkout. *)
let committed =
  let in_dir root =
    Sys.readdir root |> Array.to_list
    |> List.filter (fun f ->
           String.starts_with ~prefix:"BENCH_" f
           && Filename.check_suffix f ".json")
    |> List.sort compare
    |> List.map (Filename.concat root)
  in
  match in_dir ".." with [] -> in_dir "." | files -> files

let test_committed_parse () =
  Alcotest.(check bool) "baselines found" true (committed <> []);
  List.iter
    (fun file ->
      let lines =
        String.split_on_char '\n' (read_file file)
        |> List.filter (fun l -> l <> "")
      in
      let recs = read_ok file in
      check_int (file ^ ": every line a record") (List.length lines)
        (List.length recs);
      List.iter
        (fun r ->
          match r with
          | ("schema", Record.Int (2 | 3)) :: _ -> ()
          | _ -> Alcotest.failf "%s: record without a leading schema" file)
        recs;
      (* Schema-3 records re-emit to the exact committed bytes. *)
      let current =
        List.filter_map
          (function
            | ("schema", Record.Int 3) :: fields -> Some fields | _ -> None)
          recs
      in
      if List.length current = List.length recs then begin
        let out = Filename.temp_file "reemit" ".json" in
        Sys.remove out;
        List.iter (Record.emit ~file:out) current;
        let bytes = read_file out in
        Sys.remove out;
        check_str (file ^ ": re-emitted bytes") (read_file file) bytes
      end)
    committed

let test_emit_value_kinds () =
  let file = Filename.temp_file "emit" ".json" in
  Sys.remove file;
  let r =
    Record.
      [
        ("i", Int (-3));
        ("f", Float 2.5);
        ("g", Float 1234.56789);
        ("s", Str "a\"b\\c");
        ("t", Bool true);
        ("u", Bool false);
      ]
  in
  Record.emit ~file r;
  Record.emit ~file [ ("n", Int 0) ];
  check_str "exact bytes"
    "{\"schema\":3,\"i\":-3,\"f\":2.500,\"g\":1234.568,\"s\":\"a\\\"b\\\\c\",\"t\":true,\"u\":false}\n\
     {\"schema\":3,\"n\":0}\n"
    (read_file file);
  let recs = read_ok file in
  Sys.remove file;
  match recs with
  | [ first; _ ] ->
    check_str "round trip"
      "i=-3 f=2.500 g=1234.568 s=a\"b\\c t=true u=false"
      (List.tl first
      |> List.map (fun (k, v) ->
             k ^ "="
             ^
             match v with
             | Record.Int i -> string_of_int i
             | Record.Float f -> Printf.sprintf "%.3f" f
             | Record.Str s -> s
             | Record.Bool b -> string_of_bool b)
      |> String.concat " ")
  | _ -> Alcotest.fail "expected two records"

let test_last_match () =
  let file =
    temp_records
      "{\"schema\":3,\"bench\":\"a\",\"k\":1,\"v\":10}\n\
       {\"schema\":3,\"bench\":\"b\",\"k\":1,\"v\":20}\n\
       {\"schema\":3,\"bench\":\"a\",\"k\":1,\"v\":30}\n\
       {\"schema\":3,\"bench\":\"a\",\"k\":1}\n\
       {\"schema\":3,\"bench\":\"a\",\"k\":2,\"v\":40}\n"
  in
  let recs = read_ok file in
  Sys.remove file;
  let last where key = Record.last recs ~where key in
  Alcotest.(check bool)
    "last record that matches and has the key" true
    (last [ ("bench", Str "a"); ("k", Int 1) ] "v" = Some (Int 30));
  Alcotest.(check bool)
    "no match" true
    (last [ ("bench", Str "c") ] "v" = None);
  Alcotest.(check bool)
    "typed compare" true
    (last [ ("k", Str "1") ] "v" = None)

let test_malformed_named () =
  let file = temp_records "{\"schema\":3,\"a\":1}\n{\"schema\":3,\"a\":}\n" in
  (match Record.read file with
  | Error e -> check_str "file and line" (file ^ ":2: malformed record") e
  | Ok _ -> Alcotest.fail "malformed line accepted");
  Sys.remove file;
  match Record.read file with
  | Error e ->
    Alcotest.(check bool) "missing file named" true
      (String.starts_with ~prefix:file e)
  | Ok _ -> Alcotest.fail "missing file read"

(* --- engine --check gates --- *)

(* Every shape on both schedulers: equal event counts, the wheel at
   exactly 2x the heap's events/sec, well inside the allocation
   ceiling. *)
let engine_rows =
  List.concat_map
    (fun sh ->
      List.map
        (fun (sched, eps) ->
          {
            Eb.scenario = sh.Eb.sh_name;
            conns = sh.Eb.sh_conns;
            sched;
            events = 1000 + sh.Eb.sh_conns;
            elapsed_s = 1.;
            events_per_sec = eps;
            minor_words_per_event = 10.;
          })
        [ (`Heap, 1000.); (`Wheel, 2000.) ])
    Eb.shapes

let engine_base = List.map Eb.to_record engine_rows

let update name sched f rows =
  List.map
    (fun r -> if r.Eb.scenario = name && r.Eb.sched = sched then f r else r)
    rows

let engine_check ?(base = engine_base) rows =
  Eb.check ~file:"base.json" (Ok base) rows

let test_engine_clean () = check_fails "clean" [] (engine_check engine_rows)

let test_engine_event_count () =
  let base_with events =
    List.map Eb.to_record
      (update "pingpong" `Heap (fun r -> { r with events }) engine_rows)
  in
  check_fails "+1"
    [
      "pingpong/heap: 1001 events, baseline 1002 (event structure changed — \
       recapture the baseline deliberately)";
    ]
    (engine_check ~base:(base_with 1002) engine_rows);
  check_int "-1" 1
    (List.length (engine_check ~base:(base_with 1000) engine_rows));
  check_fails "parity"
    [
      "serve-512: heap dispatched 1513 events, wheel 1512";
      "serve-512/heap: 1513 events, baseline 1512 (event structure changed — \
       recapture the baseline deliberately)";
    ]
    (engine_check
       (update "serve-512" `Heap (fun r -> { r with events = 1513 }) engine_rows))

let test_engine_ratio () =
  (* Baseline speedup 2.0, so the floor is 1.6. *)
  let wheel eps =
    update "serve-512" `Wheel (fun r -> { r with events_per_sec = eps })
      engine_rows
  in
  check_fails "at 0.8x" [] (engine_check (wheel 1600.));
  check_fails "just under 0.8x"
    [ "serve-512: wheel/heap speedup 1.60x regressed more than 20% from \
       baseline 2.00x" ]
    (engine_check (wheel 1599.9))

(* The wall-clock gates read the median of interleaved pairs, never one
   sample: the lower middle for an even count. *)
let test_engine_median () =
  check_int "odd count" 2 (Eb.median_by float_of_int [ 3; 1; 2 ]);
  check_int "even count: lower middle" 2 (Eb.median_by float_of_int [ 4; 1; 3; 2 ]);
  (* serve-512 over five pairs, heap at 1000 ev/s; the floor is 0.8 x
     the baseline's 2.0 = 1.6. *)
  let samples wheel_eps =
    List.filter (fun r -> r.Eb.scenario <> "serve-512") engine_rows
    @ List.concat_map
        (fun eps ->
          List.map
            (fun r ->
              { r with
                Eb.events_per_sec = (if r.Eb.sched = `Wheel then eps else 1000.) })
            (List.filter (fun r -> r.Eb.scenario = "serve-512") engine_rows))
        wheel_eps
  in
  let s =
    List.find
      (fun s -> s.Eb.shape.Eb.sh_name = "serve-512")
      (Eb.summarize (samples [ 1000.; 3000.; 1600.; 1700.; 1500. ]))
  in
  check_int "five pairs" 5 (List.length s.Eb.pairs);
  Alcotest.(check (float 0.)) "median pair" 1600. s.Eb.wheel.Eb.events_per_sec;
  Alcotest.(check (pair (float 0.) (float 0.))) "spread" (1.0, 3.0) (s.Eb.lo, s.Eb.hi);
  check_fails "median at the floor" []
    (engine_check (samples [ 1000.; 3000.; 1600.; 1700.; 1500. ]));
  (* mean 1.75x and best 3.0x both clear the floor; the median does not *)
  check_fails "median under the floor"
    [ "serve-512: wheel/heap speedup 1.55x regressed more than 20% from \
       baseline 2.00x" ]
    (engine_check (samples [ 1000.; 3000.; 1550.; 1700.; 1500. ]))

let test_engine_fabric_2x () =
  let heap eps =
    update "fabric-65536" `Heap (fun r -> { r with events_per_sec = eps })
      engine_rows
  in
  check_fails "at 2x" [] (engine_check (heap 1000.));
  check_fails "under 2x"
    [ "fabric-65536: wheel 2000 ev/s < 2x heap 1001 ev/s" ]
    (engine_check (heap 1001.))

let test_engine_alloc () =
  let mw v =
    update "fabric-4096" `Wheel (fun r -> { r with minor_words_per_event = v })
      engine_rows
  in
  check_fails "at ceiling" [] (engine_check (mw 14.0));
  check_fails "over ceiling"
    [
      "fabric-4096/wheel: 14.01 minor words/event exceeds the 14.0 \
       allocation ceiling (engine hot path started allocating)";
    ]
    (engine_check (mw 14.01))

let test_engine_missing_baseline () =
  let base =
    List.filter
      (fun r -> List.assoc "scenario" r <> Record.Str "pingpong")
      engine_base
  in
  check_fails "missing records"
    [
      "pingpong/heap: no baseline event count in base.json";
      "pingpong/wheel: no baseline event count in base.json";
      "pingpong: no baseline heap and wheel events/sec in base.json";
    ]
    (engine_check ~base engine_rows);
  check_fails "unreadable" [ "base.json:3: malformed record" ]
    (Eb.check ~file:"base.json" (Error "base.json:3: malformed record")
       engine_rows)

(* --- firehose --check gates --- *)

let report =
  {
    Firehose.messages = 8000;
    delivered = 8000;
    mismatches = 0;
    bytes = 512_000;
    elapsed_ms = 100.;
    pps = 80_000.;
    mbps = 41.;
    doorbells = 300;
    mailbox_fetches = 290;
    ring_submitted = 8000;
    ring_doorbells = 250;
    faults_injected = 0;
    retransmits = 0;
    intact = true;
    completed_run = true;
  }

let batch1 =
  { report with pps = 30_000.; doorbells = 8000; mailbox_fetches = 8000 }

(* batch=32 at exactly 80% of the 100k baseline, batch=1 well under
   half of it. *)
let runs ?(r32 = report) ?(r1 = batch1) () =
  {
    Firehose.batch32 = r32;
    batch1 = r1;
    busy_poll_run = { r32 with ring_doorbells = 0 };
    lossy = { report with faults_injected = 10 };
    rerun = r32;
  }

let rings_base =
  [
    Firehose.to_record
      { Firehose.default with batch = 32 }
      { report with pps = 100_000. };
  ]

let firehose_check g = Firehose.check ~file:"rings.json" (Ok rings_base) g

let test_firehose_clean () = check_fails "clean" [] (firehose_check (runs ()))

let test_firehose_baseline () =
  let r32 pps = runs ~r32:{ report with pps } () in
  check_fails "at 80%" [] (firehose_check (r32 80_000.));
  check_fails "under 80%"
    [ "batch=32 pps 79999 below 80% of baseline 100000" ]
    (firehose_check (r32 79_999.));
  check_fails "missing"
    [ "no batch=32 size=64 loss-free baseline record in rings.json" ]
    (Firehose.check ~file:"rings.json" (Ok []) (runs ()))

let test_firehose_2x () =
  let r1 pps = { report with pps; doorbells = 10; mailbox_fetches = 10 } in
  check_fails "at 2x" [] (firehose_check (runs ~r1:(r1 40_000.) ()));
  check_fails "under 2x"
    [ "batch=32 pps 80000 < 2x batch=1 pps 40001" ]
    (firehose_check (runs ~r1:(r1 40_001.) ()))

let test_firehose_audit () =
  let depth d f =
    runs ~r32:{ report with doorbells = d; mailbox_fetches = f } ()
  in
  check_fails "lead of 16" [] (firehose_check (depth 316 300));
  check_fails "lead of 17"
    [ "batch=32: doorbell audit: 317 doorbells vs 300 mailbox fetches" ]
    (firehose_check (depth 317 300));
  check_fails "fetch ahead"
    [ "batch=32: doorbell audit: 300 doorbells vs 301 mailbox fetches" ]
    (firehose_check (depth 300 301));
  let one d f = runs ~r1:{ batch1 with doorbells = d; mailbox_fetches = f } () in
  check_fails "exact at batch=1" [] (firehose_check (one 50 50));
  check_fails "off by one at batch=1"
    [ "batch=1: doorbell audit: 51 doorbells vs 50 mailbox fetches" ]
    (firehose_check (one 51 50))

let suites =
  [
    ( "bench.record",
      [
        Alcotest.test_case "committed baselines parse" `Quick
          test_committed_parse;
        Alcotest.test_case "emit value kinds" `Quick test_emit_value_kinds;
        Alcotest.test_case "last returns the last match" `Quick test_last_match;
        Alcotest.test_case "malformed line named" `Quick test_malformed_named;
      ] );
    ( "bench.gates",
      [
        Alcotest.test_case "engine clean" `Quick test_engine_clean;
        Alcotest.test_case "engine event count +-1" `Quick
          test_engine_event_count;
        Alcotest.test_case "engine speedup at 0.8x baseline" `Quick
          test_engine_ratio;
        Alcotest.test_case "engine fabric-65536 at 2x" `Quick
          test_engine_fabric_2x;
        Alcotest.test_case "engine median of interleaved samples" `Quick
          test_engine_median;
        Alcotest.test_case "engine allocation ceiling" `Quick test_engine_alloc;
        Alcotest.test_case "engine missing baseline" `Quick
          test_engine_missing_baseline;
        Alcotest.test_case "firehose clean" `Quick test_firehose_clean;
        Alcotest.test_case "firehose pps at 80% of baseline" `Quick
          test_firehose_baseline;
        Alcotest.test_case "firehose batch=32 at 2x batch=1" `Quick
          test_firehose_2x;
        Alcotest.test_case "firehose doorbell audit" `Quick test_firehose_audit;
      ] );
  ]
