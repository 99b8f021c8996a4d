(** Volatile UNDO space.

    "UNDO log records are placed in the volatile UNDO space ... they are
    not needed after a transaction commits", and like the Stable Log Buffer
    it is "managed as a set of fixed-size blocks ... allocated to
    transactions on a demand basis, and a given block will be dedicated to
    a single transaction during its lifetime" — so the only critical
    section is block allocation, never record writing.

    Undo records are (partition, inverse-operation) pairs serialized into
    the transaction's block chain.  At abort they are decoded and applied
    in reverse order; at commit the chain is discarded wholesale.  Being
    volatile, the whole space vanishes on a crash (enforced via a
    {!Mrdb_hw.Volatile.Epoch}). *)

open Mrdb_storage

type t

val create :
  ?block_bytes:int -> ?block_count:int -> Mrdb_hw.Volatile.Epoch.t -> t
(** Default geometry: 2 KiB blocks, 1024 blocks. *)

val block_bytes : t -> int
val blocks_in_use : t -> int
val blocks_free : t -> int

exception Out_of_undo_space

type chain
(** A transaction's private undo chain. *)

val open_chain : t -> chain
(** Allocate the first block for a transaction.
    @raise Out_of_undo_space when the space is exhausted. *)

val push : t -> chain -> Addr.partition -> Part_op.t -> unit
(** Append an undo record (allocating further blocks as needed).
    @raise Out_of_undo_space when the space is exhausted. *)

val record_count : chain -> int

val pop_all : t -> chain -> (Addr.partition * Part_op.t) list
(** Decode the chain's records in {e reverse} (most-recent-first) order —
    the order aborts must apply them — and release its blocks. *)

val discard : t -> chain -> unit
(** Commit path: release the chain's blocks without decoding. *)
