(** Binary encoding/decoding over [Bytes].

    All on-"disk" and stable-memory structures in the reproduction (log
    records, log pages, partition images, catalog snapshots) are serialized
    with these little-endian primitives so that a crash really does reduce
    the database to byte images that must be decoded back. *)

(** Append-only encoder with automatic growth. *)
module Enc : sig
  type t

  val create : ?capacity:int -> unit -> t
  val length : t -> int
  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u32 : t -> int -> unit
  (** Values must fit the width; out-of-range raises [Invalid_argument]. *)

  val i64 : t -> int64 -> unit
  val int_as_i64 : t -> int -> unit
  val varint : t -> int -> unit
  (** LEB128, non-negative ints only. *)

  val bytes : t -> bytes -> unit
  (** Raw bytes, no length prefix. *)

  val string : t -> string -> unit
  (** Varint length prefix followed by the bytes. *)

  val to_bytes : t -> bytes
  (** Copy of the encoded contents. *)
end

(** Cursor-based decoder. Reading past the end raises [Failure]. *)
module Dec : sig
  type t

  val of_bytes : ?pos:int -> bytes -> t
  val pos : t -> int
  val remaining : t -> int
  val at_end : t -> bool
  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int
  val i64 : t -> int64
  val int_of_i64 : t -> int
  val varint : t -> int
  val bytes : t -> int -> bytes
  val string : t -> string
end

val put_u16 : bytes -> int -> int -> unit
val put_u32 : bytes -> int -> int -> unit
val put_i64 : bytes -> int -> int64 -> unit
val get_u16 : bytes -> int -> int
val get_u32 : bytes -> int -> int
val get_i64 : bytes -> int -> int64
(** Fixed-offset accessors used by slotted-page structures. *)

(** {2 Scratch-buffer varint helpers}

    The zero-copy logging hot path ([Mrdb_wal.Slb.Region.append] and
    friends) serializes records directly into reusable scratch buffers
    instead of going through an {!Enc}, so it needs positional varint
    primitives whose sizes can be computed up front. *)

val varint_size : int -> int
(** Bytes [put_varint] will write for this value (LEB128, non-negative). *)

val put_varint : bytes -> int -> int -> int
(** [put_varint b off v] writes [v] as LEB128 at [off] and returns the
    offset one past the last byte written.  The caller must have reserved
    [varint_size v] bytes; non-negative ints only. *)

val get_varint : bytes -> int -> int
(** [get_varint b off] reads the LEB128 value starting at [off] — the
    positional twin of {!put_varint}, allocation-free.
    @raise Invalid_argument when the varint runs past the end of [b]. *)

val skip_varint : bytes -> int -> int
(** The offset one past the LEB128 value starting at [off].
    @raise Invalid_argument when the varint runs past the end of [b]. *)
