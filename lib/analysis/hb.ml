(* Vector-clock happens-before tracking over the engine's sync
   primitives.

   Every fiber carries a vector clock (an int array indexed by the
   sim's dense deterministic fiber ids). Release operations
   (Cond.signal/broadcast, Mailbox.send, spawn) publish the acting
   fiber's clock into the sync object's clock; acquire operations
   (Cond wake-up, Mailbox.recv) join the object's clock into the
   fiber's; Resource.completion_after is a serialization point and does
   both. Two operations are concurrent iff neither clock snapshot is
   componentwise <= the other.

   The racing-pair report is the diagnostic this buys: when two
   *conflicting* operations — two takes from the same mailbox, two
   sends into it, or two signals of the same condition — by different
   fibers have no happens-before edge, their outcome depends on
   dispatch order, and we record the pair (object label, both fiber
   names, both operation names). Benign concurrent pairs exist in
   correct code (two producers feeding one consumer commute), so pairs
   are reported only attached to a flagged finding, as the explanation
   of *what* raced — the fingerprint/invariant divergence remains the
   ground truth for *whether* the race matters.

   Joins are deliberately over-approximate in the standard condition-
   variable way (an object clock accumulates every past releaser, so a
   waiter appears ordered after all of them): extra edges can only
   suppress pair reports, never fabricate them.

   The tracker also records, per dispatched task, the set of sync-object
   uids it touched — the footprint the explorer's independence pruning
   is built on. *)

open Uls_engine

let kind_name : Sim.op_kind -> string = function
  | Op_spawn -> "spawn"
  | Op_cond_wait -> "Cond.wait"
  | Op_cond_wake -> "Cond.wake"
  | Op_cond_signal -> "Cond.signal"
  | Op_cond_broadcast -> "Cond.broadcast"
  | Op_mailbox_send -> "Mailbox.send"
  | Op_mailbox_recv -> "Mailbox.recv"
  | Op_resource_use -> "Resource.use"

(* Conflict classes: operations whose relative order changes the
   outcome when concurrent. Resource uses and cond waits/wakes are
   tracked for happens-before edges but excluded here — concurrent
   resource uses merely reorder a FIFO queue's timing, and wait/wake
   pairs are the synchronisation itself. *)
let conflict_class : Sim.op_kind -> int = function
  | Op_mailbox_send -> 1
  | Op_mailbox_recv -> 2
  | Op_cond_signal | Op_cond_broadcast -> 3
  | Op_spawn | Op_cond_wait | Op_cond_wake | Op_resource_use -> 0

type hist_entry = {
  h_fiber : int;
  h_fiber_name : string;
  h_kind : Sim.op_kind;
  h_clock : int array;  (* acting fiber's clock just after the op *)
}

type obj_state = {
  ob_label : string;
  mutable ob_clock : int array;
  mutable ob_hist : hist_entry list;  (* newest first, capped *)
  mutable ob_hist_len : int;
}

type pair = {
  p_label : string;  (* sync-object label *)
  p_a_fiber : string;
  p_a_op : string;
  p_b_fiber : string;
  p_b_op : string;
  mutable p_count : int;
}

(* Footprint of one dispatched task: the sync-object uids it touched. *)
type slice = {
  s_seq : int;
  mutable s_uids : int list;
}

type t = {
  sim : Sim.t;
  mutable fclocks : int array array;  (* fiber id -> vector clock *)
  mutable fnames : string array;
  objects : (int, obj_state) Hashtbl.t;
  pairs : (string, pair) Hashtbl.t;
  mutable log : slice list;  (* newest first *)
  mutable dispatches : int;
}

let hist_cap = 16
let pairs_cap = 64

(* --- vector clocks ------------------------------------------------------ *)

(* Missing components are 0: clocks only grow as high-id fibers act. *)

let leq a b =
  let lb = Array.length b in
  let ok = ref true in
  Array.iteri (fun i x -> if x > (if i < lb then b.(i) else 0) then ok := false) a;
  !ok

let join dst src =
  let ld = Array.length dst and ls = Array.length src in
  if ls <= ld then begin
    for i = 0 to ls - 1 do
      if src.(i) > dst.(i) then dst.(i) <- src.(i)
    done;
    dst
  end
  else begin
    let a = Array.make ls 0 in
    Array.blit dst 0 a 0 ld;
    for i = 0 to ls - 1 do
      if src.(i) > a.(i) then a.(i) <- src.(i)
    done;
    a
  end

let ensure_fiber t f =
  let n = Array.length t.fclocks in
  if f >= n then begin
    let n' = max (f + 1) (2 * n) in
    let c = Array.make n' [||] in
    Array.blit t.fclocks 0 c 0 n;
    t.fclocks <- c;
    let m = Array.make n' "fiber" in
    Array.blit t.fnames 0 m 0 n;
    t.fnames <- m
  end

let tick t f =
  let c = t.fclocks.(f) in
  if f < Array.length c then c.(f) <- c.(f) + 1
  else begin
    let a = Array.make (f + 1) 0 in
    Array.blit c 0 a 0 (Array.length c);
    a.(f) <- 1;
    t.fclocks.(f) <- a
  end

(* --- handlers ----------------------------------------------------------- *)

let record_pair t ~label a_name a_op b_name b_op =
  let a_name, a_op, b_name, b_op =
    if (a_name, a_op) <= (b_name, b_op) then (a_name, a_op, b_name, b_op)
    else (b_name, b_op, a_name, a_op)
  in
  let key = String.concat "|" [ label; a_name; a_op; b_name; b_op ] in
  match Hashtbl.find_opt t.pairs key with
  | Some p -> p.p_count <- p.p_count + 1
  | None ->
    (* bounded: a pathological run can't grow the table without limit *)
    if Hashtbl.length t.pairs < pairs_cap then
      Hashtbl.add t.pairs key
        {
          p_label = label;
          p_a_fiber = a_name;
          p_a_op = a_op;
          p_b_fiber = b_name;
          p_b_op = b_op;
          p_count = 1;
        }

let on_op t kind uid label =
  let f = Sim.current_fiber_id t.sim in
  ensure_fiber t f;
  let ob =
    match Hashtbl.find_opt t.objects uid with
    | Some ob -> ob
    | None ->
      let ob =
        { ob_label = label; ob_clock = [||]; ob_hist = []; ob_hist_len = 0 }
      in
      Hashtbl.add t.objects uid ob;
      ob
  in
  (match t.log with
  | s :: _ -> s.s_uids <- uid :: s.s_uids
  | [] -> ()  (* op from main, outside the run loop: no footprint slice *));
  let cls = conflict_class kind in
  (* racing-pair check against recent conflicting ops, before this op's
     own joins create any new edges *)
  if cls <> 0 then begin
    let fc = t.fclocks.(f) in
    List.iter
      (fun h ->
        if
          h.h_fiber <> f
          && conflict_class h.h_kind = cls
          && not (leq h.h_clock fc)
        then
          record_pair t ~label h.h_fiber_name (kind_name h.h_kind) t.fnames.(f)
            (kind_name kind))
      ob.ob_hist
  end;
  (* tick before publishing so the release edge carries this op itself *)
  tick t f;
  (match kind with
  | Op_cond_signal | Op_cond_broadcast | Op_mailbox_send ->
    ob.ob_clock <- join ob.ob_clock t.fclocks.(f)
  | Op_cond_wake | Op_mailbox_recv ->
    t.fclocks.(f) <- join t.fclocks.(f) ob.ob_clock
  | Op_resource_use ->
    t.fclocks.(f) <- join t.fclocks.(f) ob.ob_clock;
    ob.ob_clock <- join ob.ob_clock t.fclocks.(f)
  | Op_spawn | Op_cond_wait -> ());
  if cls <> 0 then begin
    let entry =
      {
        h_fiber = f;
        h_fiber_name = t.fnames.(f);
        h_kind = kind;
        h_clock = Array.copy t.fclocks.(f);
      }
    in
    if ob.ob_hist_len >= hist_cap then begin
      (* drop the oldest: history is a recency window, races between
         far-apart ops still surface as fingerprint divergence *)
      ob.ob_hist <- entry :: List.filteri (fun i _ -> i < hist_cap - 1) ob.ob_hist
    end
    else begin
      ob.ob_hist <- entry :: ob.ob_hist;
      ob.ob_hist_len <- ob.ob_hist_len + 1
    end
  end

let on_spawn t ~parent ~child ~name =
  ensure_fiber t parent;
  ensure_fiber t child;
  t.fnames.(child) <- name;
  tick t parent;
  (* child begins with everything the parent had done at spawn time *)
  t.fclocks.(child) <- join (Array.copy t.fclocks.(parent)) [||];
  tick t child

let on_dispatch t ~seq =
  t.dispatches <- t.dispatches + 1;
  t.log <- { s_seq = seq; s_uids = [] } :: t.log

(* --- lifecycle ---------------------------------------------------------- *)

let attach sim =
  let t =
    {
      sim;
      fclocks = Array.make 16 [||];
      fnames = Array.make 16 "fiber";
      objects = Hashtbl.create 64;
      pairs = Hashtbl.create 16;
      log = [];
      dispatches = 0;
    }
  in
  t.fnames.(0) <- "main";
  Sim.set_hooks sim
    (Some
       {
         Sim.on_op = (fun kind uid label -> on_op t kind uid label);
         on_spawn = (fun ~parent ~child ~name -> on_spawn t ~parent ~child ~name);
         on_dispatch = (fun ~seq ~pri:_ ~time:_ -> on_dispatch t ~seq);
       });
  t

let detach t = Sim.set_hooks t.sim None

(* --- reports ------------------------------------------------------------ *)

(* Competing consumers (recv/recv) are almost always the bug when a
   divergence is flagged; concurrent producers and signallers into one
   object are routine infrastructure, so they rank below. *)
let pair_rank p =
  match p.p_a_op with
  | "Mailbox.recv" -> 0
  | "Cond.signal" | "Cond.broadcast" -> 1
  | _ -> 2

let pairs t =
  Hashtbl.fold (fun _ p acc -> p :: acc) t.pairs []
  |> List.sort (fun a b ->
         let c = compare (pair_rank a) (pair_rank b) in
         if c <> 0 then c
         else
           let c = compare b.p_count a.p_count in
           if c <> 0 then c
           else
             compare
               (a.p_label, a.p_a_fiber, a.p_a_op)
               (b.p_label, b.p_b_fiber, b.p_b_op))

let render_pair p =
  Printf.sprintf
    "racing pair on '%s': %s %s  <->  %s %s  (no happens-before edge, %d occurrence%s)"
    p.p_label p.p_a_fiber p.p_a_op p.p_b_fiber p.p_b_op p.p_count
    (if p.p_count = 1 then "" else "s")

let dispatch_count t = t.dispatches

let dispatch_log t =
  let n = t.dispatches in
  let a = Array.make n (0, []) in
  List.iteri (fun i s -> a.(n - 1 - i) <- (s.s_seq, s.s_uids)) t.log;
  a
