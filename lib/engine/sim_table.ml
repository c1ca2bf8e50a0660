module Tbl = Ephemeron.K1.Make (struct
  type t = Sim.t

  let equal = ( == )
  let hash = Sim.uid
end)

type 'a t = {
  tbl : 'a Tbl.t;
  make : Sim.t -> 'a;
}

let create make = { tbl = Tbl.create 8; make }
let find t sim = Tbl.find_opt t.tbl sim

let get t sim =
  match Tbl.find_opt t.tbl sim with
  | Some v -> v
  | None ->
    let v = t.make sim in
    Tbl.replace t.tbl sim v;
    v

let live t =
  Tbl.clean t.tbl;
  Tbl.length t.tbl
