(** Ring of reusable, registered send buffers. The real substrate
    transmits from user/library buffers that are pinned once and hit the
    EMP translation cache afterwards (§2); modelling each message as a
    fresh region would charge a pin system call per send. A slot is
    reused once its previous send has been fully acknowledged. *)

open Uls_host
module E = Uls_emp.Endpoint

type slot = {
  region : Memory.region;
  mutable pending : E.send option;
}

type t = {
  emp : E.t;
  slots : slot array;
  mutable next : int;
}

(* Every pool of a simulation, for the analysis layer's leak scan;
   collected with the sim, like its Metrics registry. *)
let registry = Uls_engine.Sim_table.create (fun _ -> ref [])

let pools_for_sim sim =
  match Uls_engine.Sim_table.find registry sim with
  | Some l -> !l
  | None -> []

let registered_sims () = Uls_engine.Sim_table.live registry

let create node emp ~slots ~size =
  let mk _ =
    let region = Memory.alloc size in
    (* Ring buffers are registered at pool-creation (connection setup)
       time, so steady-state sends always hit the translation cache. *)
    Os.prepin (Node.os node) region;
    { region; pending = None }
  in
  let t = { emp; slots = Array.init slots mk; next = 0 } in
  let pools = Uls_engine.Sim_table.get registry (Node.sim node) in
  pools := t :: !pools;
  t

let in_flight t =
  Array.fold_left
    (fun acc slot ->
      match slot.pending with
      | Some s when (not (E.send_done s)) && not (E.send_failed s) -> acc + 1
      | _ -> acc)
    0 t.slots

let slot_size t = Memory.length t.slots.(0).region
let slots t = Array.length t.slots

(** Copy [data] into the next ring slot and post the send. Blocks only
    when the ring wraps onto a send that is still in flight. The blit is
    free of simulated cost: it models the application reusing its own
    (already pinned) buffer, not an extra protocol copy. *)
let claim_slot t =
  let slot = t.slots.(t.next) in
  t.next <- (t.next + 1) mod Array.length t.slots;
  (match slot.pending with
  | Some s when not (E.send_done s) -> (
    (* A failed earlier send (peer closed mid-retransmission) still
       frees the slot. *)
    try E.wait_send t.emp s with E.Send_failed _ -> ())
  | _ -> ());
  slot.pending <- None;
  slot

let send t ~dst ~tag data =
  let len = String.length data in
  if len > slot_size t then invalid_arg "Sendpool.send: message too large";
  let slot = claim_slot t in
  Memory.blit_from_string data slot.region ~off:0;
  let s = E.post_send t.emp ~dst ~tag slot.region ~off:0 ~len in
  slot.pending <- Some s;
  s

(** Claim a slot and fill it without posting: the batched path stages
    several messages, then submits them all through the endpoint's tx
    ring under one doorbell ([Endpoint.post_sendv]); [commit] records
    the resulting sends so slot reuse still waits on them. *)
let stage t ~dst ~tag data =
  let len = String.length data in
  if len > slot_size t then invalid_arg "Sendpool.stage: message too large";
  let slot = claim_slot t in
  Memory.blit_from_string data slot.region ~off:0;
  (slot, (dst, tag, slot.region, 0, len))

let commit slots sends = List.iter2 (fun slot s -> slot.pending <- Some s) slots sends
