(* The benchmark's derivation rules: percentile support, the capacity
   ladder search and the paper-error comparison. *)

let close = Alcotest.float 1e-9

let ramp n = Array.init n (fun i -> float_of_int (i + 1))

let test_percentile_nearest_rank () =
  let p = Derive.percentile [| 1.; 2.; 3.; 4. |] 0.5 in
  Alcotest.check close "median of 4 is the 2nd" 2. p.value;
  Alcotest.(check int) "beyond" 2 p.beyond;
  let p = Derive.percentile (ramp 100) 0.99 in
  Alcotest.check close "p99 of 1..100" 99. p.value;
  Alcotest.(check int) "one sample beyond" 1 p.beyond;
  Alcotest.(check bool) "too few beyond" false p.supported

let test_percentile_ten_beyond () =
  (* p99.9 needs n - ceil(0.999 n) >= 10, first met at n = 10000. *)
  let p = Derive.percentile (ramp 10_000) 0.999 in
  Alcotest.(check int) "count reported" 10_000 p.n;
  Alcotest.(check int) "ten beyond" 10 p.beyond;
  Alcotest.(check bool) "supported" true p.supported;
  Alcotest.check close "value" 9990. p.value;
  let p = Derive.percentile (ramp 9_999) 0.999 in
  Alcotest.(check int) "nine beyond" 9 p.beyond;
  Alcotest.(check bool) "unsupported" false p.supported;
  let p = Derive.percentile [||] 0.5 in
  Alcotest.(check bool) "empty is unsupported" false p.supported

let test_ladder () =
  let l = Derive.ladder ~lo:100. ~hi:200. ~step:1.1 in
  Alcotest.(check (array close)) "geometric, rounded, capped"
    [| 100.; 110.; 121.; 133.; 146.; 161.; 177.; 195. |] l;
  Alcotest.check_raises "step must grow" (Invalid_argument "Derive.ladder") (fun () ->
      ignore (Derive.ladder ~lo:1. ~hi:2. ~step:1.))

let test_capacity_search () =
  let rungs = Array.init 40 (fun i -> float_of_int (10 * (i + 1))) in
  let best, probes = Derive.capacity rungs (fun r -> r <= 235.) in
  Alcotest.(check (option close)) "highest passing rung" (Some 230.) best;
  Alcotest.(check bool) "O(log n) probes" true (List.length probes <= 6);
  Alcotest.(check bool) "probes recorded with verdicts" true
    (List.for_all (fun (r, ok) -> ok = (r <= 235.)) probes);
  let best, _ = Derive.capacity rungs (fun _ -> true) in
  Alcotest.(check (option close)) "all pass: top rung" (Some 400.) best;
  let best, _ = Derive.capacity rungs (fun _ -> false) in
  Alcotest.(check (option close)) "none pass" None best;
  let best, _ = Derive.capacity rungs (fun r -> r <= 10.) in
  Alcotest.(check (option close)) "only the lowest" (Some 10.) best

let exact () =
  Derive.paper_err_pct ~ds_lat_us:37. ~tcp_lat_us:120. ~tcp_mbps:340.

let test_paper_err_one_sided () =
  Alcotest.check close "above 840 agrees" 0. (exact () ~ds_mbps:943.);
  Alcotest.check close "exactly 840 agrees" 0. (exact () ~ds_mbps:840.);
  Alcotest.check close "shortfall counts" (100. *. 40. /. 840.) (exact () ~ds_mbps:800.)

let test_paper_err_max_of_terms () =
  let e =
    Derive.paper_err_pct ~ds_lat_us:35.89 ~tcp_lat_us:122.33 ~tcp_mbps:331. ~ds_mbps:943.
  in
  Alcotest.check close "largest relative error"
    (100. *. Float.max (1.11 /. 37.) (Float.max (2.33 /. 120.) (9. /. 340.)))
    e;
  Alcotest.check close "both signs count" (100. *. 3.7 /. 37.)
    (Derive.paper_err_pct ~ds_lat_us:40.7 ~tcp_lat_us:120. ~tcp_mbps:340. ~ds_mbps:900.)

let () =
  Alcotest.run "perfbench"
    [
      ( "derive",
        [
          Alcotest.test_case "percentile nearest rank" `Quick test_percentile_nearest_rank;
          Alcotest.test_case "percentile needs ten beyond" `Quick test_percentile_ten_beyond;
          Alcotest.test_case "capacity ladder rungs" `Quick test_ladder;
          Alcotest.test_case "capacity ladder search" `Quick test_capacity_search;
          Alcotest.test_case "paper error one-sided 840" `Quick test_paper_err_one_sided;
          Alcotest.test_case "paper error is the max term" `Quick test_paper_err_max_of_terms;
        ] );
    ]
