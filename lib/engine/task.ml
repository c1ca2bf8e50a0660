type t = {
  mutable time : Time.ns;
  mutable pri : int;
  mutable seq : int;
  mutable run : unit -> unit;
  mutable free_next : t;
}

let nop () = ()

let rec dummy =
  { time = max_int; pri = max_int; seq = max_int; run = nop; free_next = dummy }

let make ~time ~pri ~seq run = { time; pri; seq; run; free_next = dummy }

let[@inline] before a b =
  a.time < b.time
  || a.time = b.time && (a.pri < b.pri || (a.pri = b.pri && a.seq < b.seq))

let compare a b =
  if a.time <> b.time then if a.time < b.time then -1 else 1
  else if a.pri <> b.pri then if a.pri < b.pri then -1 else 1
  else Int.compare a.seq b.seq
