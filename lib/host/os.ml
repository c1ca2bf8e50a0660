open Uls_engine

type t = {
  sim : Sim.t;
  model : Cost_model.t;
  pinned : (int, unit) Hashtbl.t; (* region id -> pinned *)
  free : (int, Memory.region Weak.t list) Hashtbl.t;
      (* exact size -> returned regions, held weakly *)
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable syscalls : int;
}

let create sim model =
  {
    sim;
    model;
    pinned = Hashtbl.create 64;
    free = Hashtbl.create 8;
    cache_hits = 0;
    cache_misses = 0;
    syscalls = 0;
  }

let syscall t =
  t.syscalls <- t.syscalls + 1;
  Sim.delay t.sim t.model.Cost_model.syscall

let interrupt t = Sim.delay t.sim t.model.Cost_model.interrupt
let context_switch t = Sim.delay t.sim t.model.Cost_model.context_switch
let wakeup_latency t = t.model.Cost_model.sched_wakeup

let pin_region t region ~off:_ ~len =
  let key = Memory.id region in
  if Hashtbl.mem t.pinned key then t.cache_hits <- t.cache_hits + 1
  else begin
    t.cache_misses <- t.cache_misses + 1;
    t.syscalls <- t.syscalls + 1;
    Hashtbl.replace t.pinned key ();
    (* Pin the whole region: EMP pins the memory area once and reuses it. *)
    let bytes = max len (Memory.length region) in
    Sim.delay t.sim (Cost_model.pin_cost t.model ~bytes)
  end

let prepin t region = Hashtbl.replace t.pinned (Memory.id region) ()

(* The registered-region pool: a free list per exact size. A region is
   pinned when the pool first allocates it; the pin table models the
   translation cache of regions in use, so a free region leaves it and
   every take re-enters it without charging the pin. A cache flush in
   between therefore cannot turn a reuse into a pin miss. Free regions
   are held weakly: one no take reuses before a major collection is
   reclaimed, and a take skips it. *)
let take_region t size =
  let rec reuse = function
    | [] ->
      Hashtbl.remove t.free size;
      Memory.alloc size
    | w :: rest -> (
      match Weak.get w 0 with
      | Some r ->
        Hashtbl.replace t.free size rest;
        let b = Memory.bytes r in
        Bytes.fill b 0 (Bytes.length b) '\000';
        r
      | None -> reuse rest)
  in
  let region = reuse (Option.value ~default:[] (Hashtbl.find_opt t.free size)) in
  prepin t region;
  region

let give_region t region =
  Hashtbl.remove t.pinned (Memory.id region);
  let w = Weak.create 1 in
  Weak.set w 0 (Some region);
  let size = Memory.length region in
  Hashtbl.replace t.free size (w :: Option.value ~default:[] (Hashtbl.find_opt t.free size))

let pinned_regions t = Hashtbl.length t.pinned

let translation_cache_hits t = t.cache_hits
let translation_cache_misses t = t.cache_misses

let flush_translation_cache t =
  Hashtbl.reset t.pinned

let syscalls_made t = t.syscalls
