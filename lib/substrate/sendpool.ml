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
  mutable claimed : bool;  (* handed to a writer, not yet posted *)
}

type t = {
  id : int;
  os : Os.t;
  emp : E.t;
  slots : slot array;
  mutable next : int;
  mutable released : bool;
}

(* The pools of one simulation that can still leak, for the analysis
   layer's leak scan: every live pool, plus released pools whose sends
   have not all settled. Collected with the sim, like its Metrics
   registry. *)
type registry = {
  pools : (int, t) Hashtbl.t;
  draining : t Queue.t;  (* released with a send still in flight *)
}

let registry =
  Uls_engine.Sim_table.create (fun _ ->
      { pools = Hashtbl.create 64; draining = Queue.create () })

let next_id = ref 0

let registered_sims () = Uls_engine.Sim_table.live registry

let create node emp ~slots ~size =
  let os = Node.os node in
  (* Ring buffers come from the node's registered pool at connection
     setup, so steady-state sends always hit the translation cache. *)
  let mk _ = { region = Os.take_region os size; pending = None; claimed = false } in
  incr next_id;
  let t =
    { id = !next_id; os; emp; slots = Array.init slots mk; next = 0; released = false }
  in
  Hashtbl.replace (Uls_engine.Sim_table.get registry (Node.sim node)).pools t.id t;
  t

let unsettled slot =
  match slot.pending with
  | Some s -> (not (E.send_done s)) && not (E.send_failed s)
  | None -> false

let in_flight t =
  Array.fold_left (fun acc slot -> if unsettled slot then acc + 1 else acc) 0 t.slots

let slot_size t = Memory.length t.slots.(0).region
let slots t = Array.length t.slots

(* A released pool whose every send has settled gives its regions back
   to the node and leaves the registry. A slot a writer still holds
   (claimed, not yet posted) keeps the pool draining like an unsettled
   send: the writer may yet post from it. *)
let try_settle reg t =
  if Array.exists (fun s -> s.claimed || unsettled s) t.slots then false
  else begin
    Array.iter (fun s -> Os.give_region t.os s.region) t.slots;
    Hashtbl.remove reg.pools t.id;
    true
  end

(* Re-check up to [k] draining pools, oldest first; one still draining
   goes to the back. *)
let recheck reg k =
  for _ = 1 to min k (Queue.length reg.draining) do
    let p = Queue.pop reg.draining in
    if not (try_settle reg p) then Queue.push p reg.draining
  done

(* Each release re-checks two draining pools, so the draining queue
   stays bounded without a scan. *)
let release t =
  if not t.released then begin
    t.released <- true;
    let reg = Uls_engine.Sim_table.get registry (E.sim t.emp) in
    recheck reg 2;
    if not (try_settle reg t) then Queue.push t reg.draining
  end

let pools_for_sim sim =
  match Uls_engine.Sim_table.find registry sim with
  | Some reg ->
    (* Cold path: re-check every draining pool, so a send that has
       settled since its release is not reported. *)
    recheck reg (Queue.length reg.draining);
    Hashtbl.fold (fun _ p acc -> p :: acc) reg.pools []
    |> List.sort (fun a b -> compare b.id a.id)
  | None -> []

(* Take the next ring slot for a writer. Blocks only when the ring wraps
   onto a send that is still in flight. *)
let claim_slot t =
  if t.released then invalid_arg "Sendpool: send on a released pool";
  let slot = t.slots.(t.next) in
  t.next <- (t.next + 1) mod Array.length t.slots;
  slot.claimed <- true;
  (match slot.pending with
  | Some s when not (E.send_done s) -> (
    (* A failed earlier send (peer closed mid-retransmission) still
       frees the slot. *)
    try E.wait_send t.emp s with E.Send_failed _ -> ())
  | _ -> ());
  slot.pending <- None;
  slot

let posted slot s =
  slot.pending <- Some s;
  slot.claimed <- false

(* Claim a slot and fill it without posting. The blit is free of
   simulated cost: it models the application reusing its own (already
   pinned) buffer, not an extra protocol copy. *)
let stage t ~dst ~tag data =
  let len = String.length data in
  if len > slot_size t then invalid_arg "Sendpool.stage: message too large";
  let slot = claim_slot t in
  Memory.blit_from_string data slot.region ~off:0;
  (slot, (dst, tag, slot.region, 0, len))

let send t ~dst ~tag data =
  let slot, (_, _, region, off, len) = stage t ~dst ~tag data in
  let s = E.post_send t.emp ~dst ~tag region ~off ~len in
  posted slot s;
  s

let commit slots sends = List.iter2 posted slots sends

let abandon slots = List.iter (fun slot -> slot.claimed <- false) slots
