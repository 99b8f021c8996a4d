(** Entity and partition addresses.

    "An entity is referenced by its memory address (Segment Number,
    Partition Number, and Partition Offset)."  The partition offset in this
    implementation is a {e slot index} within the partition's slot
    directory, which stays stable across intra-partition compaction. *)

(** Address of a whole partition. *)
type partition = { segment : int; partition : int }

(** Address of an entity (tuple or index component). *)
type t = { segment : int; partition : int; slot : int }

val make : segment:int -> partition:int -> slot:int -> t
val partition_of : t -> partition
val in_partition : partition -> slot:int -> t

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val equal_partition : partition -> partition -> bool
val compare_partition : partition -> partition -> int

val pp : Format.formatter -> t -> unit
val pp_partition : Format.formatter -> partition -> unit
val to_string : t -> string

val encode : Mrdb_util.Codec.Enc.t -> t -> unit
val decode : Mrdb_util.Codec.Dec.t -> t
val encode_partition : Mrdb_util.Codec.Enc.t -> partition -> unit
val decode_partition : Mrdb_util.Codec.Dec.t -> partition

val null : t
(** A distinguished invalid address (all components -1), used as the "no
    parent / no child" marker inside serialized index nodes. *)

val is_null : t -> bool

(** Hashtbl over entity addresses. *)
module Table : Hashtbl.S with type key = t

(** Hashtbl over partition addresses. *)
module Partition_table : Hashtbl.S with type key = partition
