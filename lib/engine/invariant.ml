(* Per-simulation invariant monitor ("sanitizer") registry. Protocol
   layers call [check] at state transitions; the call is a field read
   and a branch when monitoring is disabled, so the hooks stay in
   production paths permanently. One registry per simulation (via the
   Sim uid, like Metrics/Trace) so layers need no handle threading. *)

type violation = {
  v_name : string;
  v_detail : string;
  v_fiber : string;
  v_time : Time.ns;
}

type t = {
  sim : Sim.t;
  mutable enabled : bool;
  mutable strict : bool;
  mutable violations : violation list;  (* newest first *)
}

exception Violation of string

let create sim = { sim; enabled = false; strict = false; violations = [] }

let registry = Sim_table.create create
let for_sim sim = Sim_table.get registry sim
let registered_sims () = Sim_table.live registry

let enable ?(strict = false) t =
  t.enabled <- true;
  t.strict <- strict

let enabled t = t.enabled

let string_of_violation v =
  Printf.sprintf "[%s] t=%dns fiber=%s: %s" v.v_name v.v_time v.v_fiber
    v.v_detail

let fail t ~name detail =
  let v =
    {
      v_name = name;
      v_detail = detail;
      v_fiber = Sim.current_fiber t.sim;
      v_time = Sim.now t.sim;
    }
  in
  t.violations <- v :: t.violations;
  if t.strict then raise (Violation (string_of_violation v))

let check t ~name ok detail = if t.enabled && not ok then fail t ~name (detail ())

let violations t = List.rev t.violations
let count t = List.length t.violations
let summary t = List.rev_map string_of_violation t.violations
