(* Host-speed calibration. On a shared 2-vCPU virtual machine, host
   speed drifts by up to 2x over minutes as co-tenants come and go, so
   raw host seconds from runs minutes apart are not comparable. A fixed
   kernel, timed in the same process around every repetition, measures
   the speed of the moment; host times are reported scaled by
   [nominal_s / median kernel time], i.e. in seconds of a host on which
   the kernel takes [nominal_s]. The kernel is a small discrete-event
   loop (a binary heap of timed closures, allocation and a hash table,
   like the engine's dispatch path) that shares no code with the
   library, so a change to the library moves the scaled times and a
   change of host speed mostly does not. *)

let nominal_s = 0.05
let events = 150_000

let run () =
  let t0 = Unix.gettimeofday () in
  let cap = 1 lsl 12 in
  let times = Array.make cap 0 and fns = Array.make cap ignore in
  let n = ref 0 in
  let push t f =
    let i = ref !n in
    incr n;
    while !i > 0 && times.((!i - 1) / 2) > t do
      let p = (!i - 1) / 2 in
      times.(!i) <- times.(p);
      fns.(!i) <- fns.(p);
      i := p
    done;
    times.(!i) <- t;
    fns.(!i) <- f
  in
  let pop () =
    let f = fns.(0) in
    decr n;
    let t = times.(!n) and g = fns.(!n) in
    let i = ref 0 and fin = ref false in
    while not !fin do
      let l = (2 * !i) + 1 in
      if l >= !n then fin := true
      else begin
        let c = if l + 1 < !n && times.(l + 1) < times.(l) then l + 1 else l in
        if times.(c) < t then begin
          times.(!i) <- times.(c);
          fns.(!i) <- fns.(c);
          i := c
        end
        else fin := true
      end
    done;
    times.(!i) <- t;
    fns.(!i) <- g;
    f
  in
  let tbl = Hashtbl.create 4096 in
  let now = ref 0 and count = ref 0 and x = ref 12345 in
  let rec event k () =
    incr count;
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    Hashtbl.replace tbl (!x land 4095) (k, [ !now ]);
    if !count < events then push (!now + 1 + (!x land 1023)) (event (k + 1))
  in
  for i = 0 to 999 do
    push i (event i)
  done;
  while !n > 0 do
    now := times.(0);
    (pop ()) ()
  done;
  ignore (Sys.opaque_identity tbl);
  Unix.gettimeofday () -. t0
