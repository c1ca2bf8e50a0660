(* Benchmark harness: regenerates every table/figure of the paper's
   evaluation (plus the ablations), then runs bechamel micro-benchmarks
   of the simulator's hot paths.

   Usage:
     main.exe                 run everything (full sizes)
     main.exe --quick         smaller sweeps
     main.exe fig14 fig15     run selected experiments
     main.exe --list          list experiment ids
     main.exe --no-bechamel   skip the bechamel section *)

let run_bechamel () =
  let open Bechamel in
  let wheel_push_pop =
    Test.make ~name:"engine.wheel push+pop x100"
      (Staged.stage (fun () ->
           let open Uls_engine in
           let w = Wheel.create () in
           for i = 0 to 99 do
             Wheel.push w (Task.make ~time:(i * 7919 mod 100) ~pri:0 ~seq:i Task.nop)
           done;
           while Wheel.pop w != Task.dummy do
             ()
           done))
  in
  let tag_match =
    Test.make ~name:"nic.match_list post+take x64"
      (Staged.stage (fun () ->
           let ml = Uls_nic.Match_list.create () in
           for i = 0 to 63 do
             ignore (Uls_nic.Match_list.post ml ~src:1 ~tag:i i)
           done;
           for i = 0 to 63 do
             ignore (Uls_nic.Match_list.take ml ~src:1 ~tag:i)
           done))
  in
  let sim_events =
    Test.make ~name:"engine.sim 1k timer events"
      (Staged.stage (fun () ->
           let sim = Uls_engine.Sim.create () in
           for i = 1 to 1_000 do
             Uls_engine.Sim.at sim i (fun () -> ())
           done;
           ignore (Uls_engine.Sim.run sim)))
  in
  let emp_pingpong =
    Test.make ~name:"sim: full EMP 4B ping-pong (10 iters)"
      (Staged.stage (fun () ->
           ignore
             (Uls_bench.Microbench.ping_pong ~iters:10 ~warmup:0
                ~kind:Uls_bench.Microbench.Emp_raw ~size:4 ())))
  in
  let tests =
    Test.make_grouped ~name:"simulator"
      [ wheel_push_pop; tag_match; sim_events; emp_pingpong ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:(Some 500) () in
  let raw = Benchmark.all cfg instances tests in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  print_endline "== bechamel: simulator hot paths (ns/run) ==";
  Hashtbl.iter
    (fun name ols ->
      match Bechamel.Analyze.OLS.estimates ols with
      | Some [ est ] -> Printf.printf "  %-45s %12.1f\n" name est
      | _ -> Printf.printf "  %-45s (no estimate)\n" name)
    results;
  print_newline ()

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let quick = List.mem "--quick" args in
  let no_bechamel = List.mem "--no-bechamel" args in
  let selected =
    List.filter (fun a -> not (String.length a > 1 && a.[0] = '-')) args
  in
  if List.mem "--list" args then begin
    List.iter (fun (id, _) -> print_endline id) Uls_bench.Experiments.by_id;
    exit 0
  end;
  let tables =
    match selected with
    | [] -> Uls_bench.Experiments.all ~quick ()
    | ids ->
      List.map
        (fun id ->
          match List.assoc_opt id Uls_bench.Experiments.by_id with
          | Some f -> f ~quick ()
          | None ->
            Printf.eprintf "unknown experiment %S (try --list)\n" id;
            exit 1)
        ids
  in
  List.iter (Uls_bench.Table.print Format.std_formatter) tables;
  if not no_bechamel then run_bechamel ()
