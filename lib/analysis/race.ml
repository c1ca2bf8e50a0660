(* Schedule-perturbation race detector driver. One baseline run under
   FIFO dispatch, then K runs under seeded-shuffled same-timestamp
   ordering. Every run of a correct scenario must reach the same
   semantic end state (Fingerprint), record no invariant violations,
   and leave no fiber deadlocked; any seed that differs is reported and
   can be replayed deterministically. *)

type run = {
  r_seed : int option;  (* None = FIFO baseline *)
  r_outcome : Scenarios.outcome;
}

type verdict = {
  v_scenario : Scenarios.t;
  v_baseline : run;
  v_perturbed : run list;
  v_divergent : (int * string) list;  (* seed, first differing line *)
  v_violating : (int * string) list;  (* seed (-1 = baseline), first violation *)
  v_deadlocked : int list;  (* seeds (-1 = baseline) with stuck fibers *)
}

let seed_of r = match r.r_seed with None -> -1 | Some s -> s

let verdict_of sc baseline perturbed =
  let divergent =
    List.filter_map
      (fun r ->
        match
          Fingerprint.first_difference baseline.r_outcome.Scenarios.fingerprint
            r.r_outcome.Scenarios.fingerprint
        with
        | None -> None
        | Some diff -> Some (seed_of r, diff))
      perturbed
  in
  let violating =
    List.filter_map
      (fun r ->
        match r.r_outcome.Scenarios.violations with
        | [] -> None
        | v :: _ -> Some (seed_of r, Uls_engine.Invariant.string_of_violation v))
      (baseline :: perturbed)
  in
  let deadlocked =
    List.filter_map
      (fun r ->
        match r.r_outcome.Scenarios.deadlock with
        | None -> None
        | Some _ -> Some (seed_of r))
      (baseline :: perturbed)
  in
  {
    v_scenario = sc;
    v_baseline = baseline;
    v_perturbed = perturbed;
    v_divergent = divergent;
    v_violating = violating;
    v_deadlocked = deadlocked;
  }

let clean v = v.v_divergent = [] && v.v_violating = [] && v.v_deadlocked = []

let flagged v = not (clean v)

let baseline_run sc =
  { r_seed = None; r_outcome = sc.Scenarios.sc_run `Fifo }

let run_scenario ?(seeds = 16) sc =
  let baseline = baseline_run sc in
  let perturbed =
    List.init seeds (fun s ->
        {
          r_seed = Some s;
          r_outcome = sc.Scenarios.sc_run (`Seeded_shuffle s);
        })
  in
  verdict_of sc baseline perturbed

let run_until_flagged ?(max_seeds = 16) sc =
  (* Grow the perturbed set one seed at a time and stop at the first
     flagged verdict: a buggy fixture only needs one catching seed, and
     in smoke mode CI shouldn't pay for the other fifteen. *)
  let baseline = baseline_run sc in
  let rec go acc s =
    if s >= max_seeds then verdict_of sc baseline (List.rev acc)
    else begin
      let r =
        {
          r_seed = Some s;
          r_outcome = sc.Scenarios.sc_run (`Seeded_shuffle s);
        }
      in
      let acc = r :: acc in
      let v = verdict_of sc baseline (List.rev acc) in
      if flagged v then v else go acc (s + 1)
    end
  in
  go [] 0

let replay sc ~seed = sc.Scenarios.sc_run (`Seeded_shuffle seed)

let seed_name s = if s < 0 then "baseline" else Printf.sprintf "seed %d" s

let render ?(verbose = false) v =
  let b = Buffer.create 256 in
  let sc = v.v_scenario in
  let runs = 1 + List.length v.v_perturbed in
  Buffer.add_string b
    (Printf.sprintf "%-20s %-7s %d runs: " sc.Scenarios.sc_name
       (if sc.Scenarios.sc_buggy then "[buggy]" else "[clean]")
       runs);
  if clean v then Buffer.add_string b "no divergence, no violations, no deadlock"
  else begin
    Buffer.add_string b
      (Printf.sprintf "%d divergent, %d violating, %d deadlocked"
         (List.length v.v_divergent)
         (List.length v.v_violating)
         (List.length v.v_deadlocked));
    let shown = if verbose then max_int else 3 in
    let take n l = List.filteri (fun i _ -> i < n) l in
    List.iter
      (fun (s, diff) ->
        Buffer.add_string b
          (Printf.sprintf "\n  divergence at %s: %s" (seed_name s) diff))
      (take shown v.v_divergent);
    List.iter
      (fun (s, viol) ->
        Buffer.add_string b
          (Printf.sprintf "\n  violation at %s: %s" (seed_name s) viol))
      (take shown v.v_violating);
    List.iter
      (fun s ->
        Buffer.add_string b (Printf.sprintf "\n  deadlock at %s" (seed_name s));
        if verbose then
          let r =
            if s < 0 then v.v_baseline
            else List.nth v.v_perturbed s
          in
          match r.r_outcome.Scenarios.deadlock with
          | Some rep -> Buffer.add_string b ("\n" ^ Deadlock.render rep)
          | None -> ())
      (take shown v.v_deadlocked);
    match (v.v_divergent, v.v_violating) with
    | (s, _) :: _, _ | [], (s, _) :: _ when s >= 0 ->
      Buffer.add_string b
        (Printf.sprintf
           "\n  replay deterministically with: ulsbench races --scenario %s --replay %d"
           sc.Scenarios.sc_name s)
    | _ -> ()
  end;
  Buffer.contents b
