let () =
  Printexc.register_printer (function
    | Uls_engine.Sim.Fiber_failure (name, e) ->
      Some (Printf.sprintf "Fiber_failure(%s, %s)" name (Printexc.to_string e))
    | _ -> None)

let () =
  Alcotest.run "ulsockets"
    (Test_engine.suites @ Test_ether.suites @ Test_host.suites
   @ Test_nic.suites @ Test_emp.suites @ Test_tcp.suites @ Test_substrate.suites
   @ Test_apps.suites @ Test_fdio.suites @ Test_units.suites @ Test_api.suites @ Test_lifecycle.suites @ Test_shape.suites @ Test_collective.suites
   @ Test_chaos.suites @ Test_server.suites @ Test_analysis.suites
   @ Test_fabric.suites @ Test_rings.suites @ Test_bench.suites)
