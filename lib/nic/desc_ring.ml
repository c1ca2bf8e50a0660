type 'a t = {
  mutable buf : 'a array;
  mutable head : int;
  mutable len : int;
  dead : 'a -> bool;
}

let create ~dead () = { buf = [||]; head = 0; len = 0; dead }

let length r = r.len
let is_empty r = r.len = 0

let cap r = Array.length r.buf

let grow r x =
  let old_cap = cap r in
  let new_cap = if old_cap = 0 then 8 else 2 * old_cap in
  let buf' = Array.make new_cap x in
  for i = 0 to r.len - 1 do
    buf'.(i) <- r.buf.((r.head + i) mod old_cap)
  done;
  r.buf <- buf';
  r.head <- 0

let push r x =
  if r.len = cap r then grow r x;
  r.buf.((r.head + r.len) mod cap r) <- x;
  r.len <- r.len + 1

(* Dead entries (descriptors unposted through the global list) are
   reaped lazily when they surface at the head; the slot is overwritten
   with the next element (or itself at the tail) so the ring never
   retains a reaped descriptor. *)
let reap r =
  while r.len > 0 && r.dead r.buf.(r.head) do
    let next = (r.head + 1) mod cap r in
    r.buf.(r.head) <- r.buf.(if r.len = 1 then r.head else next);
    r.head <- next;
    r.len <- r.len - 1
  done

let peek r =
  reap r;
  if r.len = 0 then None else Some r.buf.(r.head)

let pop r =
  reap r;
  if r.len = 0 then None
  else begin
    let x = r.buf.(r.head) in
    let next = (r.head + 1) mod cap r in
    r.buf.(r.head) <- r.buf.(if r.len = 1 then r.head else next);
    r.head <- next;
    r.len <- r.len - 1;
    Some x
  end

let clear r =
  r.buf <- [||];
  r.head <- 0;
  r.len <- 0

(* Drop every dead entry, wherever it sits, keeping the live ones in
   order; vacated slots are overwritten so nothing dead stays
   reachable. *)
let sweep r =
  let c = cap r in
  let w = ref 0 in
  for i = 0 to r.len - 1 do
    let x = r.buf.((r.head + i) mod c) in
    if not (r.dead x) then begin
      r.buf.((r.head + !w) mod c) <- x;
      incr w
    end
  done;
  if !w = 0 then clear r
  else begin
    for i = !w to r.len - 1 do
      r.buf.((r.head + i) mod c) <- r.buf.(r.head)
    done;
    r.len <- !w
  end
