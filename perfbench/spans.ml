(* Benchmark-side tracing: spans recorded around the calls the
   benchmark makes into each layer's public functions. Off by default;
   when off, [span] is one branch and the call. Spans read virtual time
   only, so a traced run dispatches exactly the events of an untraced
   one. Records stay in memory until [write]. *)

type record = {
  id : int;
  parent : int;  (** enclosing span's id; 0 = none *)
  rid : int;  (** request id shared by every span of one request *)
  name : string;
  start : int;  (** virtual ns *)
  stop : int;
}

let enabled = ref false
let next_id = ref 0
let records : record list ref = ref []

let fresh () =
  incr next_id;
  !next_id

(* [f] receives the span's id so children opened inside it can name
   it as their parent (0 when tracing is off). *)
let span sim ?(parent = 0) ~rid name f =
  if not !enabled then f 0
  else begin
    let id = fresh () in
    let start = Uls_engine.Sim.now sim in
    let finish () =
      records :=
        { id; parent; rid; name; start; stop = Uls_engine.Sim.now sim } :: !records
    in
    match f id with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* Durations in µs of every span called [name], ascending. *)
let durations_us name =
  List.filter_map
    (fun r -> if r.name = name then Some (float_of_int (r.stop - r.start) /. 1e3) else None)
    !records
  |> Derive.sorted_of_list

let write path =
  let oc = open_out path in
  output_string oc "id\tparent\trid\tname\tstart_ns\tstop_ns\n";
  List.iter
    (fun r ->
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\n" r.id r.parent r.rid r.name r.start
        r.stop)
    (List.rev !records);
  close_out oc
