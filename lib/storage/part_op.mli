(** Partition operations: the REDO/UNDO vocabulary.

    Every logged change in the system — relation tuple writes, index
    component writes, catalog entity writes — reduces to one of these three
    slot-level operations on a single partition ("a given log record always
    affects exactly one partition").  Applying a sequence of operations to
    a checkpoint image in original order reproduces the partition: this is
    the contract the Stable Log Tail's per-partition grouping relies on. *)

type t =
  | Insert of { slot : int; data : bytes }
  | Update of { slot : int; data : bytes }
  | Delete of { slot : int }

val apply : Partition.t -> t -> unit
(** @raise Failure when the operation does not fit the partition state
    (occupied/free slot mismatch, out of space). *)

val apply_encoded : Partition.t -> bytes -> pos:int -> stop:int -> unit
(** [decode] then {!apply} without the intermediate value: the operation
    encoded at [b.[pos .. stop)] is applied in place, its entity bytes
    blitted straight from [b] into the partition.  The replay kernel uses
    this on log-page bytes.
    @raise Mrdb_util.Fatal.Invariant on a bad tag or an encoding that does
    not end exactly at [stop]. *)

val undo_of : before:bytes option -> t -> t
(** [undo_of ~before op] is the inverse operation, where [before] is the
    entity image prior to [op] ([None] for inserts).
    @raise Invalid_argument when [before]'s presence contradicts [op]. *)

val slot : t -> int

val encode : Mrdb_util.Codec.Enc.t -> t -> unit
val decode : Mrdb_util.Codec.Dec.t -> t

val encoded_size : t -> int
(** Bytes the encoding occupies, computed without serializing. *)

val encode_into : t -> bytes -> pos:int -> int
(** Serialize at [pos] into a caller-owned buffer (the zero-copy logging
    path; byte-identical to {!encode}); returns the offset one past the
    last byte written, [pos + encoded_size op].  The caller must have
    reserved [encoded_size op] bytes. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
