(** Two-phase lock manager.

    "To maintain serializability and to simplify UNDO processing for
    transactions, index components and relation tuples are locked with
    two-phase locks that are held until transaction commit."

    Hierarchical modes on two granularities: relations take intention modes
    (IS/IX) or S/SIX/X; entities (tuples, index components) take S/X.  A
    checkpoint transaction's single relation S lock therefore conflicts
    with any writer's relation IX — which is exactly how the paper
    guarantees "only committed data is checkpointed".

    Deadlocks are detected at request time by a waits-for cycle search; the
    requester whose wait would close a cycle is told [`Deadlock] and is
    expected to abort. *)

type mode = IS | IX | S | SIX | X

type resource =
  | Relation of int        (** relation id *)
  | Entity of Mrdb_storage.Addr.t

type outcome =
  | Granted
  | Blocked
  | Deadlock

type t

val create : ?shards:int -> unit -> t
(** [shards] (default 1) partitions the resource table by resource hash.
    Sharding only partitions storage: grant, FIFO and deadlock semantics
    are identical for any shard count — the waits-for search follows the
    per-transaction resource index and so crosses shards freely.
    @raise Invalid_argument when [shards < 1]. *)

val shard_count : t -> int

val shard_of : t -> resource -> int
(** The shard a resource hashes to (test hook for constructing
    cross-shard scenarios). *)

val compatible : mode -> mode -> bool
(** The standard hierarchical-locking compatibility matrix. *)

val supremum : mode -> mode -> mode
(** Least mode covering both (lock upgrade arithmetic). *)

val acquire : t -> txn:int -> resource -> mode -> outcome
(** Request (or upgrade) a lock.  [Granted] may reflect an already-held
    covering mode.  [Blocked] means the request was queued; the caller
    waits until a {!release_all} hands the lock over.  [Deadlock] means the
    request was refused because waiting would create a cycle (nothing is
    queued). *)

val holds : t -> txn:int -> resource -> mode -> bool
(** Does [txn] hold a mode covering [mode] on the resource? *)

val release_all : t -> txn:int -> int list
(** Strict 2PL release at commit/abort: drop every lock and queued request
    of [txn]; returns the transactions whose queued requests became fully
    granted as a result (for the scheduler to wake). *)

val locked_resources : t -> txn:int -> resource list

val pp_resource : Format.formatter -> resource -> unit
