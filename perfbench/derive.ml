(* Pure derivations behind the benchmark's reported numbers, kept apart
   from the workload legs so the test suite can pin each rule. *)

(* --- percentiles ---------------------------------------------------------- *)

let min_beyond = 10

(* Nearest rank: the smallest sample with at least [p] of the samples at
   or below it. *)
let rank ~n p = max 1 (min n (int_of_float (Float.ceil (p *. float_of_int n -. 1e-9))))

let beyond ~n p = n - rank ~n p

type pct = { value : float; n : int; beyond : int; supported : bool }

(* A percentile counts as measured only when at least [min_beyond]
   samples lie beyond it; otherwise the figure is the sample's extreme
   relabelled, and callers must not report it as that percentile. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then { value = 0.; n; beyond = 0; supported = false }
  else
    let r = rank ~n p in
    let b = n - r in
    { value = sorted.(r - 1); n; beyond = b; supported = b >= min_beyond }

let sorted_of_list xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let mean xs =
  match xs with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let median xs =
  let a = sorted_of_list xs in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* --- capacity ladder ------------------------------------------------------- *)

(* Geometric ladder [lo, lo*step, ...] up to [hi]; rungs are rounded to
   whole operations per second so every run probes identical rates. *)
let ladder ~lo ~hi ~step =
  if lo <= 0. || step <= 1. || hi < lo then invalid_arg "Derive.ladder";
  let rec go r acc =
    if r > hi *. (1. +. 1e-9) then List.rev acc
    else go (r *. step) (Float.round r :: acc)
  in
  Array.of_list (go lo [])

(* Highest rung at which [ok] holds, assuming [ok] is monotone (true
   below the knee, false above): a binary search probing O(log rungs)
   rates. [None] when even the lowest rung fails. Returns the probes in
   the order they were made, so callers can print every rung run. *)
let capacity rungs ok =
  let probes = ref [] in
  let test i =
    let r = ok rungs.(i) in
    probes := (rungs.(i), r) :: !probes;
    r
  in
  let rec search lo hi best =
    if lo > hi then best
    else
      let mid = (lo + hi) / 2 in
      if test mid then search (mid + 1) hi (Some rungs.(mid))
      else search lo (mid - 1) best
  in
  let best = search 0 (Array.length rungs - 1) None in
  (best, List.rev !probes)

(* --- the paper's Figure 13 ------------------------------------------------- *)

type paper_ref = {
  ds_lat_us : float;  (** DS_DA_UQ 4 B one-way latency *)
  tcp_lat_us : float;  (** kernel TCP 4 B one-way latency *)
  tcp_mbps : float;  (** kernel TCP, 16 KB buffers, 64 KiB messages *)
  ds_mbps_floor : float;  (** substrate: stated only as "> 840" *)
}

let paper = { ds_lat_us = 37.; tcp_lat_us = 120.; tcp_mbps = 340.; ds_mbps_floor = 840. }

let rel_err ~model ~paper = Float.abs (model -. paper) /. paper

(* The paper states the substrate's bandwidth only as a lower bound, so a
   model above it is in agreement and only a shortfall counts. *)
let floor_err ~model ~floor = if model >= floor then 0. else (floor -. model) /. floor

let paper_err_pct ~ds_lat_us ~tcp_lat_us ~tcp_mbps ~ds_mbps =
  100.
  *. List.fold_left max 0.
       [
         rel_err ~model:ds_lat_us ~paper:paper.ds_lat_us;
         rel_err ~model:tcp_lat_us ~paper:paper.tcp_lat_us;
         rel_err ~model:tcp_mbps ~paper:paper.tcp_mbps;
         floor_err ~model:ds_mbps ~floor:paper.ds_mbps_floor;
       ]
