(* Named counters / gauges / histograms, optionally per node. One
   registry per simulation (via the Sim uid, like Trace) so the layers
   of the stack can account events without threading a handle through
   every constructor. Naming convention: "<layer>.<event>" with a unit
   suffix where one applies ("emp.match_walk_descs",
   "sub.credit_wait_us"). *)

type key = {
  k_name : string;
  k_node : int;  (* -1 = not tied to a node *)
}

type t = {
  counters : (key, Stats.Counter.t) Hashtbl.t;
  gauges : (key, float ref) Hashtbl.t;
  histograms : (key, Stats.Summary.t) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 64;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 32;
  }

(* Collected with its sim, so sweeps that build thousands of sims
   (races, chaos, benches) don't grow without bound. *)
let registry = Sim_table.create (fun _ -> create ())
let for_sim sim = Sim_table.get registry sim
let registered_sims () = Sim_table.live registry

let find tbl mk k =
  match Hashtbl.find_opt tbl k with
  | Some v -> v
  | None ->
    let v = mk () in
    Hashtbl.replace tbl k v;
    v

let counter t ?(node = -1) name =
  find t.counters Stats.Counter.create { k_name = name; k_node = node }

let incr t ?node name = Stats.Counter.incr (counter t ?node name)
let add t ?node name n = Stats.Counter.add (counter t ?node name) n
let counter_value t ?node name = Stats.Counter.value (counter t ?node name)

let gauge t ?(node = -1) name =
  find t.gauges (fun () -> ref 0.) { k_name = name; k_node = node }

let set_gauge t ?node name v = gauge t ?node name := v
let gauge_value t ?node name = !(gauge t ?node name)

let histogram t ?(node = -1) name =
  find t.histograms Stats.Summary.create { k_name = name; k_node = node }

let observe t ?node name v = Stats.Summary.add (histogram t ?node name) v

let reset t =
  Hashtbl.iter (fun _ c -> Stats.Counter.reset c) t.counters;
  Hashtbl.iter (fun _ g -> g := 0.) t.gauges;
  Hashtbl.iter (fun _ h -> Stats.Summary.clear h) t.histograms

let counters_snapshot t =
  Hashtbl.fold
    (fun k c acc -> (k.k_node, k.k_name, Stats.Counter.value c) :: acc)
    t.counters []
  |> List.sort compare

(* --- dump --------------------------------------------------------------- *)

let nodes t =
  let seen = Hashtbl.create 8 in
  let note k _ = Hashtbl.replace seen k.k_node () in
  Hashtbl.iter note t.counters;
  Hashtbl.iter note t.gauges;
  Hashtbl.iter note t.histograms;
  List.sort compare (Hashtbl.fold (fun n () acc -> n :: acc) seen [])

let sorted_bindings tbl node =
  Hashtbl.fold
    (fun k v acc -> if k.k_node = node then (k.k_name, v) :: acc else acc)
    tbl []
  |> List.sort compare

let dump t fmt =
  List.iter
    (fun node ->
      if node < 0 then Format.fprintf fmt "global:@."
      else Format.fprintf fmt "node %d:@." node;
      List.iter
        (fun (name, c) ->
          Format.fprintf fmt "  %-32s %d@." name (Stats.Counter.value c))
        (sorted_bindings t.counters node);
      List.iter
        (fun (name, g) -> Format.fprintf fmt "  %-32s %g@." name !g)
        (sorted_bindings t.gauges node);
      List.iter
        (fun (name, h) ->
          if Stats.Summary.count h > 0 then
            Format.fprintf fmt
              "  %-32s n=%d mean=%.2f p50=%.2f p95=%.2f max=%.2f@." name
              (Stats.Summary.count h) (Stats.Summary.mean h)
              (Stats.Summary.percentile h 0.5)
              (Stats.Summary.percentile h 0.95)
              (Stats.Summary.max h))
        (sorted_bindings t.histograms node))
    (nodes t)
