(* Same-timestamp dispatch order. FIFO gives every task the same
   priority, so the [seq] fallback reproduces strict scheduling order;
   the seeded shuffle draws a random priority per task, perturbing the
   order of simultaneous events only — the race detector's schedule
   perturbation (timestamps themselves never move). [Controlled] hands
   each same-timestamp tie to an external chooser as an explicit
   decision point: the systematic explorer's instrument. *)
type tiebreak =
  | Fifo
  | Shuffle of Rng.t
  | Controlled of (int array -> int)

(* Sync-point instrumentation. Constructors are argless so classifying
   an operation never allocates; the entire hooks-off cost is one field
   read and branch per sync operation ([note_op]). *)
type op_kind =
  | Op_spawn
  | Op_cond_wait
  | Op_cond_wake
  | Op_cond_signal
  | Op_cond_broadcast
  | Op_mailbox_send
  | Op_mailbox_recv
  | Op_resource_use

type hooks = {
  on_op : op_kind -> int -> string -> unit;
      (* kind, sync-object uid, label; the acting fiber is
         [current_fiber_id] at call time *)
  on_spawn : parent:int -> child:int -> name:string -> unit;
  on_dispatch : seq:int -> pri:int -> time:Time.ns -> unit;
}

type park = {
  pk_fiber : string;
  pk_label : string;
  pk_since : Time.ns;
  pk_daemon : bool;
}

type parked = {
  fiber : string;
  label : string;
  since : Time.ns;
  daemon : bool;
}

(* Event queue: the hierarchical timing wheel. The binary heap is the
   reference it is checked and measured against ([create_reference]);
   both dispatch in identical (time, pri, seq) order. *)
type queue =
  | Q_wheel of Wheel.t
  | Q_heap of Task.t Heap.t

type t = {
  uid : int;  (* process-unique: lets side tables key off a simulation *)
  q : queue;
  mutable now : Time.ns;
  mutable seq : int;
  mutable live : int;
  mutable blocked : int;
  mutable stopped : bool;
  mutable executed : int;
  mutable tiebreak : tiebreak;
  mutable cur_fiber : string;
  mutable cur_fiber_id : int;  (* 0 = main; deterministic spawn order *)
  mutable next_fiber_id : int;
  mutable next_sync_uid : int;  (* Cond/Mailbox/Resource identities *)
  mutable hooks : hooks option;
  parked : (int, park) Hashtbl.t;
  mutable next_park : int;
  mutable free : Task.t;  (* head of the recycled task-cell list *)
  mutable pooled : int;
}

exception Fiber_failure of string * exn

let next_uid = ref 0

(* Module-level creation hook: the analysis layer attaches happens-before
   tracking to sims it cannot construct itself (scenarios build their own
   clusters deep inside [sc_run]). Unset in normal operation. *)
let create_hook : (t -> unit) option ref = ref None
let set_create_hook h = create_hook := h

let make q =
  incr next_uid;
  let t = {
    uid = !next_uid;
    q;
    now = 0;
    seq = 0;
    live = 0;
    blocked = 0;
    stopped = false;
    executed = 0;
    tiebreak = Fifo;
    cur_fiber = "main";
    cur_fiber_id = 0;
    next_fiber_id = 0;
    next_sync_uid = 0;
    hooks = None;
    parked = Hashtbl.create 16;
    next_park = 0;
    free = Task.dummy;
    pooled = 0;
  }
  in
  (match !create_hook with None -> () | Some f -> f t);
  t

let create () = make (Q_wheel (Wheel.create ()))
let create_reference () = make (Q_heap (Heap.create ~cmp:Task.compare))

let uid t = t.uid
let now t = t.now
let blocked_fibers t = t.blocked
let live_fibers t = t.live
let events_executed t = t.executed
let tasks_scheduled t = t.seq
let stop t = t.stopped <- true
let current_fiber t = t.cur_fiber
let current_fiber_id t = t.cur_fiber_id

type tiebreak_spec =
  [ `Fifo | `Seeded_shuffle of int | `Controlled of (int array -> int) ]

let set_tiebreak t = function
  | `Fifo -> t.tiebreak <- Fifo
  | `Seeded_shuffle seed -> t.tiebreak <- Shuffle (Rng.create ~seed)
  | `Controlled choose -> t.tiebreak <- Controlled choose

let set_hooks t h = t.hooks <- h

let new_sync_uid t =
  t.next_sync_uid <- t.next_sync_uid + 1;
  t.next_sync_uid

let note_op t kind uid label =
  match t.hooks with None -> () | Some h -> h.on_op kind uid label

let blocked_report t =
  Hashtbl.fold
    (fun _ p acc ->
      { fiber = p.pk_fiber; label = p.pk_label; since = p.pk_since;
        daemon = p.pk_daemon }
      :: acc)
    t.parked []
  |> List.sort (fun a b ->
         let c = compare a.since b.since in
         if c <> 0 then c
         else
           let c = compare a.fiber b.fiber in
           if c <> 0 then c else compare a.label b.label)

(* Pool cap: beyond this, freed cells go to the GC instead — bounds the
   retained memory of a sim that briefly spiked its outstanding-event
   count. *)
let pool_max = 4096

let alloc_task t ~time ~pri ~seq ~run =
  let cell = t.free in
  if cell == Task.dummy then Task.make ~time ~pri ~seq run
  else begin
    t.free <- cell.free_next;
    t.pooled <- t.pooled - 1;
    cell.free_next <- Task.dummy;
    cell.time <- time;
    cell.pri <- pri;
    cell.seq <- seq;
    cell.run <- run;
    cell
  end

let release_task t (cell : Task.t) =
  cell.run <- Task.nop;  (* drop the closure and everything it captured *)
  if t.pooled < pool_max then begin
    cell.free_next <- t.free;
    t.free <- cell;
    t.pooled <- t.pooled + 1
  end

let q_push t cell =
  match t.q with Q_wheel w -> Wheel.push w cell | Q_heap h -> Heap.push h cell

(* [Task.dummy] when the queue is empty; the heap reference's options
   are its own cost, the wheel allocates nothing. *)
let q_peek t =
  match t.q with
  | Q_wheel w -> Wheel.peek w
  | Q_heap h -> Option.value (Heap.peek h) ~default:Task.dummy

let q_pop t =
  match t.q with
  | Q_wheel w -> Wheel.pop w
  | Q_heap h -> Option.value (Heap.pop h) ~default:Task.dummy

let schedule t ~time run =
  if time < t.now then invalid_arg "Sim: scheduling in the past";
  t.seq <- t.seq + 1;
  let pri =
    match t.tiebreak with
    | Fifo | Controlled _ -> 0  (* Controlled: FIFO order inside a tie *)
    | Shuffle rng -> Rng.int rng 0x4000_0000
  in
  q_push t (alloc_task t ~time ~pri ~seq:t.seq ~run)

let at t time run = schedule t ~time run

type _ Effect.t +=
  | Delay : t * Time.ns -> unit Effect.t
  | Suspend : t * string * ((unit -> unit) -> unit) -> unit Effect.t

let delay t d = if d > 0 then Effect.perform (Delay (t, d))

let suspend t ?(label = "suspend") register =
  Effect.perform (Suspend (t, label, register))

let run_fiber t ~daemon ~fid name f =
  let open Effect.Deep in
  (* Exactly-once exit bookkeeping, shared by the normal return, an
     uncaught exception in the fiber body, and a failure inside a
     suspend registration — so [live] can never go stale on the failure
     path. *)
  let finished = ref false in
  let finish () =
    if not !finished then begin
      finished := true;
      t.live <- t.live - 1
    end
  in
  let body () =
    t.cur_fiber <- name;
    t.cur_fiber_id <- fid;
    (try f ()
     with e ->
       finish ();
       raise (Fiber_failure (name, e)));
    finish ()
  in
  let effc : type a. a Effect.t -> ((a, unit) continuation -> unit) option =
    function
    | Delay (t', d) ->
      Some
        (fun k ->
          assert (t' == t);
          schedule t ~time:(t.now + d) (fun () ->
              t.cur_fiber <- name;
              t.cur_fiber_id <- fid;
              continue k ()))
    | Suspend (t', label, register) ->
      Some
        (fun k ->
          assert (t' == t);
          t.blocked <- t.blocked + 1;
          t.next_park <- t.next_park + 1;
          let park_id = t.next_park in
          Hashtbl.replace t.parked park_id
            { pk_fiber = name; pk_label = label; pk_since = t.now;
              pk_daemon = daemon };
          let resumed = ref false in
          let unpark () =
            resumed := true;
            t.blocked <- t.blocked - 1;
            Hashtbl.remove t.parked park_id
          in
          let resume () =
            if not !resumed then begin
              unpark ();
              schedule t ~time:t.now (fun () ->
                  t.cur_fiber <- name;
                  t.cur_fiber_id <- fid;
                  continue k ())
            end
          in
          (* If registration itself raises, the fiber can never be
             resumed: undo the parking bookkeeping and account the fiber
             as dead before the exception escapes, or [blocked] (and
             [live]) would stay stale forever. *)
          match register resume with
          | () -> ()
          | exception e ->
            if not !resumed then unpark ();
            finish ();
            raise (Fiber_failure (name, e)))
    | _ -> None
  in
  match_with body () { retc = Fun.id; exnc = raise; effc }

let spawn_at t ?(name = "fiber") ?(daemon = false) time f =
  t.live <- t.live + 1;
  t.next_fiber_id <- t.next_fiber_id + 1;
  let fid = t.next_fiber_id in
  (match t.hooks with
  | None -> ()
  | Some h -> h.on_spawn ~parent:t.cur_fiber_id ~child:fid ~name);
  schedule t ~time (fun () -> run_fiber t ~daemon ~fid name f)

let spawn t ?name ?daemon f = spawn_at t ?name ?daemon t.now f

(* Under [Controlled], every task sharing the minimum timestamp is popped
   and the chooser picks which runs next (by index into the seq array,
   which is in FIFO order since Controlled pri is always 0); the rest are
   re-inserted untouched. A singleton tie is not a decision point. Due
   tasks re-insert into the wheel's exact-order near-future heap, so
   push-back is order-safe. *)
let pop_controlled t (first : Task.t) choose =
  let rec gather acc =
    let tk = q_peek t in
    if tk != Task.dummy && tk.time = first.time then begin
      ignore (q_pop t);
      gather (tk :: acc)
    end
    else List.rev acc
  in
  match gather [] with
  | [] -> first
  | rest ->
    let all = Array.of_list (first :: rest) in
    let idx = choose (Array.map (fun (tk : Task.t) -> tk.seq) all) in
    let idx = if idx < 0 || idx >= Array.length all then 0 else idx in
    Array.iteri (fun i tk -> if i <> idx then q_push t tk) all;
    all.(idx)

(* One peek per event, then the pop of exactly the task peeked: the
   wheel walks its cursor at most once per dispatch and nothing is
   allocated. *)
let run ?until t =
  t.stopped <- false;
  let limit = match until with Some l -> l | None -> max_int in
  let rec loop () =
    if t.stopped then `Stopped
    else
      let task = q_peek t in
      if task == Task.dummy then `Quiescent
      else if task.time > limit then begin
        t.now <- limit;
        `Time_limit
      end
      else begin
        let task =
          match t.tiebreak with
          | Fifo | Shuffle _ -> q_pop t
          | Controlled choose -> pop_controlled t (q_pop t) choose
        in
        t.now <- task.time;
        t.executed <- t.executed + 1;
        (match t.hooks with
        | None -> ()
        | Some h -> h.on_dispatch ~seq:task.seq ~pri:task.pri ~time:task.time);
        (* Recycle the cell before running: the closure is extracted
           first, so even a raising task doesn't leak its cell, and
           tasks the closure schedules can safely reuse it. *)
        let f = task.run in
        release_task t task;
        f ();
        loop ()
      end
  in
  loop ()
