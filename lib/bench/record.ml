type value = Int of int | Float of float | Str of string | Bool of bool
type t = (string * value) list

(* Bumped when a field changes meaning; every record carries it so
   readers can tell record generations apart. *)
let schema = 3

let render = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.3f" f
  | Str s -> Printf.sprintf "%S" s
  | Bool b -> string_of_bool b

let emit ~file fields =
  let line =
    ("schema", Int schema) :: fields
    |> List.map (fun (k, v) -> Printf.sprintf "%S:%s" k (render v))
    |> String.concat ","
  in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 file in
  output_string oc ("{" ^ line ^ "}\n");
  close_out oc;
  Printf.printf "record appended -> %s\n" file

(* Parses exactly what [emit] writes: no whitespace, [%S] escapes. *)
let parse line =
  let n = String.length line in
  let i = ref 0 in
  let expect c = if !i < n && line.[!i] = c then incr i else raise Exit in
  let quoted () =
    expect '"';
    let start = !i in
    while !i < n && line.[!i] <> '"' do
      if line.[!i] = '\\' then incr i;
      incr i
    done;
    let body = String.sub line start (min !i n - start) in
    expect '"';
    try Scanf.unescaped body with Scanf.Scan_failure _ -> raise Exit
  in
  let bare () =
    let start = !i in
    while !i < n && line.[!i] <> ',' && line.[!i] <> '}' do
      incr i
    done;
    let s = String.sub line start (!i - start) in
    match bool_of_string_opt s, int_of_string_opt s with
    | Some b, _ -> Bool b
    | None, Some k -> Int k
    | None, None -> (
      match float_of_string_opt s with Some f -> Float f | None -> raise Exit)
  in
  let rec fields acc =
    let k = quoted () in
    expect ':';
    let v = if !i < n && line.[!i] = '"' then Str (quoted ()) else bare () in
    if !i < n && line.[!i] = ',' then (
      incr i;
      fields ((k, v) :: acc))
    else List.rev ((k, v) :: acc)
  in
  match
    expect '{';
    let r = fields [] in
    expect '}';
    if !i <> n then raise Exit;
    r
  with
  | r -> Some r
  | exception Exit -> None

let read file =
  match open_in file with
  | exception Sys_error e -> Error e
  | ic ->
    let rec go lineno acc =
      match input_line ic with
      | exception End_of_file -> Ok (List.rev acc)
      | line -> (
        match parse line with
        | Some r -> go (lineno + 1) (r :: acc)
        | None -> Error (Printf.sprintf "%s:%d: malformed record" file lineno))
    in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go 1 [])

let last recs ~where key =
  List.fold_left
    (fun found r ->
      match List.assoc_opt key r with
      | Some v
        when List.for_all (fun (k, w) -> List.assoc_opt k r = Some w) where ->
        Some v
      | _ -> found)
    None recs
