(* Hierarchical timing wheel (hashed calendar queue) of {!Task} cells
   with a near-future heap, an exact-order contract, and an overflow heap
   for far-future timers.

   Layout: [levels] wheels of [W = 256] slots each. A level-[l] slot
   spans [grain << (slot_bits * l)] ns, so the whole level-[l] wheel
   spans exactly one level-[l+1] slot. Elements land in the lowest
   level whose wheel still covers their delta from [base] (the start of
   the level-0 cursor slot); anything beyond the top level's range goes
   to the [ovf] heap and migrates down when the cursor approaches.

   Exactness: everything with [time < base + grain] lives in [cur], a
   binary heap ordered by the full (time, pri, seq) key, so extraction
   order is *identical* to a plain comparison heap — the wheel only
   replaces where far-out elements wait, not how due elements are
   ordered. Advancing works slot-batch at a time: the next occupied
   level-0 slot is dumped into [cur] wholesale; occupied higher-level
   slots cascade down when the cursor enters them. Insertions are O(1)
   (an array append), extraction is O(log batch) on a batch that is one
   grain wide, and cursor movement amortizes to O(1) per element.

   Ordering safety of the near-future heap: [base] only moves forward,
   and any later insertion with [time < base + grain] is routed into
   [cur] where the comparator orders it exactly — so peeking ahead
   (which advances [base]) can never misorder a subsequent insert, even
   one earlier than the peeked element. *)

let grain_bits = 8  (* 256 ns: the level-0 slot width *)
let slot_bits = 8
let wsize = 1 lsl slot_bits
let wmask = wsize - 1
let levels = 4

(* Dummy-backed binary min-heap of tasks in (time, pri, seq) order. *)
type heap = {
  mutable ha : Task.t array;
  mutable hn : int;
}

(* Slot storage, per level: [items.(l).(i)] holds slot [i]'s elements
   (appended on insert) and [fill.(l).(i)] how many. A level's two
   arrays are allocated the first time an element lands in it, so a
   sim whose timers never reach the upper levels never pays for them;
   a slot's own array likewise appears on first use, and a drained
   slot keeps it, dummy-filled, for reuse. *)
type t = {
  items : Task.t array array array;
  fill : int array array;
  counts : int array;  (* elements resident per level *)
  mutable base : int;  (* start of the level-0 cursor slot; grain-aligned *)
  cur : heap;
  ovf : heap;
  mutable len : int;
}

exception Order_violation of string

let create () =
  {
    items = Array.make levels [||];
    fill = Array.make levels [||];
    counts = Array.make levels 0;
    base = 0;
    cur = { ha = [||]; hn = 0 };
    ovf = { ha = [||]; hn = 0 };
    len = 0;
  }

(* log2 of the level-l slot width *)
let shift l = grain_bits + (slot_bits * l)
let grain = 1 lsl grain_bits

(* --- heap ops ----------------------------------------------------------- *)

let heap_push (h : heap) x =
  if h.hn = Array.length h.ha then begin
    let a = Array.make (max 16 (2 * h.hn)) Task.dummy in
    Array.blit h.ha 0 a 0 h.hn;
    h.ha <- a
  end;
  (* sift up: move parents down into the hole, then drop [x] in *)
  let a = h.ha and i = ref h.hn in
  h.hn <- h.hn + 1;
  while !i > 0 && Task.before x a.((!i - 1) / 2) do
    a.(!i) <- a.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  a.(!i) <- x

let heap_pop (h : heap) =
  let a = h.ha and n = h.hn - 1 in
  let top = a.(0) and x = a.(n) in
  a.(n) <- Task.dummy;
  h.hn <- n;
  if n > 0 then begin
    (* sift down: move the smaller child up into the hole until [x] fits *)
    let i = ref 0 and c = ref 1 in
    while !c < n do
      if !c + 1 < n && Task.before a.(!c + 1) a.(!c) then incr c;
      if Task.before a.(!c) x then begin
        a.(!i) <- a.(!c);
        i := !c;
        c := (2 * !c) + 1
      end
      else c := n
    done;
    a.(!i) <- x
  end;
  top

(* --- placement ---------------------------------------------------------- *)

(* Place [x] into the structure appropriate for its delta from [base].
   Shared by push and cascade; does not touch [len]. *)
let place w (x : Task.t) =
  let t = x.time in
  if t < w.base + grain then heap_push w.cur x
  else begin
    let delta = t - w.base in
    let l = ref 0 in
    while !l < levels && delta asr shift (!l + 1) <> 0 do
      incr l
    done;
    if !l = levels then heap_push w.ovf x
    else begin
      let l = !l in
      if Array.length w.fill.(l) = 0 then begin
        w.items.(l) <- Array.make wsize [||];
        w.fill.(l) <- Array.make wsize 0
      end;
      let s = (t asr shift l) land wmask in
      let n = w.fill.(l).(s) in
      let a = w.items.(l).(s) in
      let a =
        if n < Array.length a then a
        else begin
          let b = Array.make (max 4 (2 * n)) Task.dummy in
          Array.blit a 0 b 0 n;
          w.items.(l).(s) <- b;
          b
        end
      in
      a.(n) <- x;
      w.fill.(l).(s) <- n + 1;
      w.counts.(l) <- w.counts.(l) + 1
    end
  end

let push w x =
  w.len <- w.len + 1;
  place w x

(* Dump a slot's elements through [place] (level-0 slots land in [cur],
   higher-level slots redistribute downward) and reset it, overwriting
   the tail with the dummy so nothing dispatched is retained. *)
let cascade w l idx =
  (* an empty level may not have its arrays yet *)
  let n = if w.counts.(l) = 0 then 0 else w.fill.(l).(idx) in
  if n > 0 then begin
    let a = w.items.(l).(idx) in
    w.counts.(l) <- w.counts.(l) - n;
    w.fill.(l).(idx) <- 0;
    for i = 0 to n - 1 do
      let x = a.(i) in
      a.(i) <- Task.dummy;
      place w x
    done
  end

let top_range = 1 lsl shift levels

(* Pull every overflow element the wheel can now cover back down. Runs
   whenever the cursor enters a new top-level slot (and when the wheels
   drain entirely), so an overflow timer always migrates long before
   the wheel's range reaches it. *)
let migrate_ovf w =
  let limit = w.base + top_range in
  while w.ovf.hn > 0 && w.ovf.ha.(0).time < limit do
    place w (heap_pop w.ovf)
  done

(* Advance [base] until [cur] is non-empty; called only when [cur] is
   empty and the wheel is not. Scans the lowest occupied level for its
   next slot; an exhausted window crosses the parent boundary, cascading
   the parent slot the cursor enters. Amortized O(1) per element: every
   scan either finds a batch or retires a whole window. *)
let advance w =
  while w.cur.hn = 0 do
    let l = ref 0 in
    while !l < levels && w.counts.(!l) = 0 do
      incr l
    done;
    if !l = levels then begin
      (* wheels empty: jump to the first overflow element *)
      let t = w.ovf.ha.(0).Task.time in
      w.base <- t land lnot (grain - 1);
      migrate_ovf w
    end
    else begin
      let l = !l in
      let cursor = (w.base asr shift l) land wmask in
      (* Mid-window, the cursor slot holds only wrapped next-window
         elements, so the scan starts after it. But when [base] sits
         exactly at the cursor slot's start (right after a boundary
         cross or jump), wrapped elements there have just become due
         and must be scanned — and only then is cascading the cursor
         slot safe: every element re-places strictly below level [l],
         never back into the slot being drained. *)
      let aligned = w.base land ((1 lsl shift l) - 1) = 0 in
      let start = if aligned then cursor else cursor + 1 in
      let found = ref (-1) in
      let i = ref start and fill = w.fill.(l) in
      while !found < 0 && !i < wsize do
        if fill.(!i) > 0 then found := !i;
        incr i
      done;
      if !found >= 0 then begin
        let s = !found in
        let slot_start =
          ((w.base asr shift l) + (s - cursor)) lsl shift l
        in
        if slot_start > w.base then begin
          w.base <- slot_start;
          (* a top-level jump enters a new top slot: pull newly
             coverable overflow elements down before cascading, or one
             parked just above an old base's horizon is overtaken *)
          if l = levels - 1 then migrate_ovf w
        end;
        cascade w l s
      end
      else begin
        (* Window exhausted: cross into the next parent slot. The new
           base is aligned at the level-(l+1) slot width, but it may
           coincide with boundaries at several levels at once (a
           level-0 window ending exactly at a level-2 slot edge), so
           the cursor can enter a NEW slot at every level above l in
           the same step. Enter them top-down — migrate overflow when
           a fresh top-level slot comes into range, then cascade each
           newly entered slot, higher levels first so their contents
           re-place below before the lower slot is drained. Cascading
           only the immediate parent would leave anything parked in a
           coincidentally entered higher slot to be silently overtaken
           until the wheel wrapped back around. That includes crossing
           out of the top level's window: migrating overflow alone there
           let a migrated entry end the advance before the top cursor
           slot's wrapped, now-due entries were cascaded. *)
        let pshift = shift (l + 1) in
        w.base <- ((w.base asr pshift) + 1) lsl pshift;
        (* Down to 0, not l+1: a higher cascade can feed [cur] directly,
           ending the advance loop before the scan would ever revisit the
           lower cursor slots — so their wrapped, now-due entries must be
           cascaded here as well. *)
        for lv = levels - 1 downto 0 do
          if w.base land ((1 lsl shift lv) - 1) = 0 then begin
            if lv = levels - 1 then migrate_ovf w;
            cascade w lv ((w.base asr shift lv) land wmask)
          end
        done
      end
    end
  done

(* The cursor walk runs only when the near-future heap is empty, so a
   peek followed by the pop of what it returned walks at most once. *)
let[@inline] ensure w = if w.cur.hn = 0 && w.len > 0 then advance w

let peek w =
  ensure w;
  if w.cur.hn = 0 then Task.dummy else w.cur.ha.(0)

let debug_check = Sys.getenv_opt "ULS_WHEEL_CHECK" <> None

(* The sanitizer's reference: an exhaustive minimum over every
   residence, and where it lives. *)
let true_min w =
  let best = ref Task.dummy and at = ref (-1) in
  let consider where x =
    if Task.before x !best then begin
      best := x;
      at := where
    end
  in
  for i = 0 to w.cur.hn - 1 do consider (-1) w.cur.ha.(i) done;
  for i = 0 to w.ovf.hn - 1 do consider (-2) w.ovf.ha.(i) done;
  Array.iteri
    (fun l slots ->
      Array.iteri
        (fun i a ->
          for k = 0 to w.fill.(l).(i) - 1 do
            consider ((l lsl slot_bits) lor i) a.(k)
          done)
        slots)
    w.items;
  ( !best,
    match !at with
    | -1 -> "cur"
    | -2 -> "ovf"
    | s -> Printf.sprintf "L%d[%d]" (s lsr slot_bits) (s land wmask) )

let pop w =
  ensure w;
  if w.cur.hn = 0 then Task.dummy
  else begin
    (if debug_check then
       let m, at = true_min w and top = w.cur.ha.(0) in
       if m != top then
         raise
           (Order_violation
              (Printf.sprintf "true min t=%d at %s but cur top t=%d; base=%d"
                 m.time at top.time w.base)));
    w.len <- w.len - 1;
    heap_pop w.cur
  end
