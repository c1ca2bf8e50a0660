open Uls_engine

type engine = Linear | Hashed

type probe = { walked : int; lookups : int }

let no_probe = { walked = 0; lookups = 0 }

type 'a entry = {
  src : int;
  tag : int;
  seq : int;
  value : 'a;
  mutable removed : bool;
}

(* The hashed engine keeps the same entries as the linear one (the
   global post-order vector stays authoritative for wildcard queries,
   iteration and unposting) plus an index: one descriptor ring per match
   key, bucketed by wildcard class. A concrete (src, tag) frame can only
   match four keys — (src, tag), (-1, tag), (src, -1), (-1, -1) — so a
   lookup probes at most four ring heads and picks the lowest sequence
   number, which is exactly the entry a full linear walk would return
   first. A key's ring leaves its table once it is empty, so the index
   holds no state for the keys of closed connections. *)
type 'a index = {
  exact : (int * int, 'a entry Desc_ring.t) Hashtbl.t;
  any_src : (int, 'a entry Desc_ring.t) Hashtbl.t;  (* posted src = -1 *)
  any_tag : (int, 'a entry Desc_ring.t) Hashtbl.t;  (* posted tag = -1 *)
  all_wild : 'a entry Desc_ring.t;  (* posted src = tag = -1 *)
  mutable any_src_used : bool;
  mutable any_tag_used : bool;
      (** a wildcard class's table is probed (and the probe charged) from
          its first post until {!unpost_all}, whether or not it still
          holds rings *)
}

type 'a t = {
  engine : engine;
  entries : 'a entry Vec.t;
  mutable live : int;
  mutable seq : int;
  index : 'a index option;
}

let entry_dead e = e.removed

let create ?(engine = Linear) () =
  {
    engine;
    entries = Vec.create ();
    live = 0;
    seq = 0;
    index =
      (match engine with
      | Linear -> None
      | Hashed ->
        Some
          {
            exact = Hashtbl.create 64;
            any_src = Hashtbl.create 8;
            any_tag = Hashtbl.create 8;
            all_wild = Desc_ring.create ~dead:entry_dead ();
            any_src_used = false;
            any_tag_used = false;
          });
  }

let engine t = t.engine
let length t = t.live

let engine_name = function Linear -> "linear" | Hashed -> "hashed"

let engine_of_string = function
  | "linear" -> Some Linear
  | "hashed" -> Some Hashed
  | _ -> None

let compact t =
  (* Drop removed entries once they dominate: two-finger in-place sweep,
     preserving order without any intermediate list (sustained post/take
     churn stays O(n), not O(n^2)). Ring references move with the entry
     records, so the index needs no repair. *)
  if Vec.length t.entries > 32 && t.live * 2 < Vec.length t.entries then begin
    let n = Vec.length t.entries in
    let w = ref 0 in
    for r = 0 to n - 1 do
      let e = Vec.get t.entries r in
      if not e.removed then begin
        Vec.set t.entries !w e;
        incr w
      end
    done;
    Vec.truncate t.entries !w
  end

let ring_of tbl key =
  match Hashtbl.find_opt tbl key with
  | Some r -> r
  | None ->
    let r = Desc_ring.create ~dead:entry_dead () in
    Hashtbl.replace tbl key r;
    r

let index_post idx e =
  if e.src = -1 && e.tag = -1 then Desc_ring.push idx.all_wild e
  else if e.src = -1 then begin
    idx.any_src_used <- true;
    Desc_ring.push (ring_of idx.any_src e.tag) e
  end
  else if e.tag = -1 then begin
    idx.any_tag_used <- true;
    Desc_ring.push (ring_of idx.any_tag e.src) e
  end
  else Desc_ring.push (ring_of idx.exact (e.src, e.tag)) e

(* [e] was removed: drop its key's ring once the ring holds nothing, so
   a dead key (a closed connection's tag) keeps no state. With [sweep],
   [e] was tombstoned wherever it sat in the ring, so dead entries are
   swept out first rather than kept (with what their values hold) until
   they surface at the head. The all-wildcard ring is fixed and keeps
   reaping lazily, since its occupancy gates a charged probe. *)
let index_forget idx e ~sweep =
  let forget tbl key =
    match Hashtbl.find_opt tbl key with
    | Some r ->
      if sweep then Desc_ring.sweep r;
      if Desc_ring.is_empty r then Hashtbl.remove tbl key
    | None -> ()
  in
  if e.src = -1 && e.tag = -1 then ()
  else if e.src = -1 then forget idx.any_src e.tag
  else if e.tag = -1 then forget idx.any_tag e.src
  else forget idx.exact (e.src, e.tag)

let post t ~src ~tag value =
  t.seq <- t.seq + 1;
  let e = { src; tag; seq = t.seq; value; removed = false } in
  Vec.push t.entries e;
  t.live <- t.live + 1;
  (match t.index with None -> () | Some idx -> index_post idx e);
  e

let matches e ~src ~tag =
  (e.src = -1 || src = -1 || e.src = src) && (e.tag = -1 || tag = -1 || e.tag = tag)

(* Linear walk, the Tigon firmware's original O(posted descriptors)
   engine — also the fallback for query-side wildcards in hashed mode
   (FIFO order across keys is not recoverable from per-key rings). *)
let walk t ~src ~tag =
  let n = Vec.length t.entries in
  let rec go i walked =
    if i >= n then (None, { walked; lookups = 0 })
    else begin
      let e = Vec.get t.entries i in
      if e.removed then go (i + 1) walked
      else if matches e ~src ~tag then (Some e, { walked = walked + 1; lookups = 0 })
      else go (i + 1) (walked + 1)
    end
  in
  go 0 0

(* Hashed lookup for a concrete (src, tag): probe the (at most) four
   candidate rings and take the earliest-posted head. [lookups] counts
   the hash-table probes actually made; [walked] the ring heads
   compared. *)
let index_lookup idx ~src ~tag =
  let candidates = ref [] in
  let lookups = ref 1 in
  (match Hashtbl.find_opt idx.exact (src, tag) with
  | Some r -> (match Desc_ring.peek r with Some e -> candidates := (e, r) :: !candidates | None -> ())
  | None -> ());
  if idx.any_src_used then begin
    incr lookups;
    match Hashtbl.find_opt idx.any_src tag with
    | Some r -> (match Desc_ring.peek r with Some e -> candidates := (e, r) :: !candidates | None -> ())
    | None -> ()
  end;
  if idx.any_tag_used then begin
    incr lookups;
    match Hashtbl.find_opt idx.any_tag src with
    | Some r -> (match Desc_ring.peek r with Some e -> candidates := (e, r) :: !candidates | None -> ())
    | None -> ()
  end;
  if not (Desc_ring.is_empty idx.all_wild) then begin
    incr lookups;
    match Desc_ring.peek idx.all_wild with
    | Some e -> candidates := (e, idx.all_wild) :: !candidates
    | None -> ()
  end;
  let best =
    List.fold_left
      (fun acc ((e : _ entry), r) ->
        match acc with
        | Some ((e' : _ entry), _) when e'.seq <= e.seq -> acc
        | _ -> Some (e, r))
      None !candidates
  in
  (best, { walked = List.length !candidates; lookups = !lookups })

let lookup t ~src ~tag =
  match t.index with
  | Some idx when src <> -1 && tag <> -1 ->
    let best, probe = index_lookup idx ~src ~tag in
    (Option.map fst best, Option.map snd best, probe)
  | _ ->
    let e, probe = walk t ~src ~tag in
    (e, None, probe)

(* Mark [e] removed. [ring] is the ring [e] was just popped from, if
   any; otherwise [e] may sit anywhere in its ring and is swept out. *)
let tombstone t e ring =
  e.removed <- true;
  t.live <- t.live - 1;
  match t.index, ring with
  | Some idx, None -> index_forget idx e ~sweep:true
  | Some idx, Some r when Desc_ring.is_empty r -> index_forget idx e ~sweep:false
  | _ -> ()

let remove t e ring =
  (* The winning ring's head is this entry: pop it eagerly (before
     tombstoning, or the reap would swallow the next live head too) so
     ring occupancy tracks live descriptors. *)
  (match ring with Some r -> ignore (Desc_ring.pop r) | None -> ());
  tombstone t e ring;
  compact t

let unpost t e =
  if e.removed then false
  else begin
    remove t e None;
    true
  end

let take t ~src ~tag =
  match lookup t ~src ~tag with
  | Some e, ring, probe ->
    remove t e ring;
    (Some e.value, probe)
  | None, _, probe -> (None, probe)

let find t ~src ~tag =
  let e, _, probe = lookup t ~src ~tag in
  (Option.map (fun e -> e.value) e, probe)

let remove_first t pred =
  let n = Vec.length t.entries in
  let rec go i =
    if i >= n then None
    else begin
      let e = Vec.get t.entries i in
      if (not e.removed) && pred e.value then begin
        remove t e None;
        Some e.value
      end
      else go (i + 1)
    end
  in
  go 0

let unpost_all t =
  let vs =
    Vec.fold (fun acc e -> if e.removed then acc else e.value :: acc) [] t.entries
  in
  Vec.iter (fun e -> e.removed <- true) t.entries;
  Vec.clear t.entries;
  t.live <- 0;
  (match t.index with
  | None -> ()
  | Some idx ->
    Hashtbl.reset idx.exact;
    Hashtbl.reset idx.any_src;
    Hashtbl.reset idx.any_tag;
    Desc_ring.clear idx.all_wild;
    idx.any_src_used <- false;
    idx.any_tag_used <- false);
  List.rev vs

let unpost_matching t pred =
  let removed = ref [] in
  Vec.iter
    (fun e ->
      if (not e.removed) && pred e.value then begin
        tombstone t e None;
        removed := e.value :: !removed
      end)
    t.entries;
  compact t;
  List.rev !removed

let iter t f =
  Vec.iter (fun e -> if not e.removed then f e.value) t.entries

let index_keys t =
  match t.index with
  | None -> 0
  | Some idx ->
    Hashtbl.length idx.exact + Hashtbl.length idx.any_src
    + Hashtbl.length idx.any_tag
