(** Benchmark records: the flat JSON lines of the committed
    [BENCH_*.json] files.

    A record is one object per line, fields in the order given, with
    ["schema"] first; values are ints, [%.3f] floats, OCaml-escaped
    ([%S]) strings and booleans. [--json] runs append records and the
    [--check] gates read them back as baselines. *)

type value = Int of int | Float of float | Str of string | Bool of bool
type t = (string * value) list

val emit : file:string -> t -> unit
(** Append the record to [file] (created on first use) behind
    ["schema":3], and say so on stdout. *)

val read : string -> (t list, string) result
(** Every record of the file, in order. [Error] names the file, and the
    line for a malformed one; no line is skipped. *)

val last : t list -> where:t -> string -> value option
(** The field [key] of the last record that has it and agrees with
    every field of [where]. *)
