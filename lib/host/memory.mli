(** Host memory regions. Regions carry real bytes end-to-end so tests can
    assert data integrity through every protocol layer, and each region
    has an identity used by the OS pin/translation cache. *)

type region

val alloc : int -> region
val of_string : string -> region
val length : region -> int

val id : region -> int
val bytes : region -> Bytes.t

val sub_string : region -> off:int -> len:int -> string
val blit_from_string : string -> region -> off:int -> unit

val blit : src:region -> src_off:int -> dst:region -> dst_off:int -> len:int -> unit
(** Pure data movement, no simulated cost. *)

val copy :
  Uls_engine.Sim.t ->
  Cost_model.t ->
  src:region ->
  src_off:int ->
  dst:region ->
  dst_off:int ->
  len:int ->
  unit
(** Costed host memcpy: blits and delays the calling fiber by the
    model's per-byte copy cost. *)
