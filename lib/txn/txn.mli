(** Transaction lifecycle.

    States follow the paper's commit pipeline:

    {v Active --(abort)--> Aborted
       Active --(precommit)--> Precommitted --(commit record written)--> Committed v}

    With a {e stable} log buffer, transactions "commit instantly — they do
    not need to wait until the REDO log records are flushed to disk"
    (§2.3.1): the commit record is one stable-memory write, made right
    after precommit.  Under FASTPATH-style group commit (§1.2) a
    precommitted transaction releases its locks and waits in
    [Precommitted] until its group's commit records are written.

    A transaction carries its UNDO chain; abort decodes it and applies the
    inverse operations in reverse order through a partition resolver, then
    invalidates any index overlay caches (physical undo may have rewritten
    index node entities behind the overlays' backs). *)

open Mrdb_storage

type status = Active | Precommitted | Committed | Aborted

type t

val id : t -> int

val executor : t -> int
(** The logical executor the transaction runs on (0 for system
    transactions and single-executor instances).  Fixed at
    {!Manager.begin_txn}; the facade routes the transaction's SLB appends
    to the region this id owns. *)

val status : t -> status
val undo_records : t -> int
val redo_records : t -> int
val is_terminated : t -> bool

val started_us : t -> float
(** Simulated-clock stamp taken at [begin_txn] (0.0 when the manager was
    created without a [now] source) — the observability layer derives the
    transaction-latency histogram from it. *)

val sink : t -> (Addr.partition -> redo:Part_op.t -> undo:Part_op.t -> unit) option
val set_sink : t -> (Addr.partition -> redo:Part_op.t -> undo:Part_op.t -> unit) -> unit
(** Per-transaction redo-sink cache: the facade builds the closure once on
    the transaction's first write and reuses it for every later operation
    (one closure per transaction, not per DML call). *)

(** Transaction manager: id assignment, live-transaction registry, undo
    bookkeeping. *)
module Manager : sig
  type mgr

  val create :
    undo:Undo_space.t ->
    resolve_partition:(Addr.partition -> Partition.t) ->
    invalidate_overlay:(int -> unit) ->
    ?now:(unit -> float) ->
    ?recorder:Mrdb_obs.Flight_recorder.t ->
    ?executors:int ->
    unit -> mgr
  (** [resolve_partition] maps a partition address to its resident memory
      copy (abort must find the partitions it wrote).
      [invalidate_overlay seg] tells the owner of segment [seg] that its
      partition bytes changed underneath (index cache coherence).
      [now] supplies the simulated clock for {!started_us} stamps (defaults
      to a constant 0.0); [recorder] receives begin/commit/abort flight
      events.  [executors] (default 1) sizes the per-executor arena and
      active-transaction arrays. *)

  val arena : mgr -> executor:int -> Arena.t
  (** The executor's staging arena.  It is reset automatically whenever
      the executor has no [Active] transaction left (commit, precommit or
      abort of the last one) — system transactions nest inside user
      transactions on the same executor, so the reset fires only when the
      whole nest has unwound. *)

  val begin_txn : ?executor:int -> mgr -> t
  (** [executor] (default 0) tags the transaction with its originating
      executor; flight events carry it.
      @raise Invalid_argument when negative. *)

  val find : mgr -> int -> t option
  val active_count : mgr -> int

  val record_update : mgr -> t -> Addr.partition -> redo:Part_op.t -> undo:Part_op.t -> unit
  (** Called once per partition operation the transaction performs; stores
      the undo record and counts the redo (the WAL layer receives the redo
      through its own sink).
      @raise Invalid_argument when the transaction is not active. *)

  val precommit : mgr -> t -> unit
  (** First phase: undo discarded, status [Precommitted]; locks may be
      released.
      @raise Invalid_argument when not active. *)

  val finalize_commit : mgr -> t -> unit
  (** Second phase, once the commit record is durable: [Precommitted] →
      [Committed]. *)

  val commit : mgr -> t -> unit
  (** {!precommit} then {!finalize_commit} — for system transactions,
      which write their commit record at once. *)

  val abort : mgr -> t -> unit
  (** Apply the undo chain in reverse, invalidate touched overlays, mark
      aborted.  @raise Invalid_argument when not active. *)

  val crash_discard : mgr -> unit
  (** Crash simulation support: forget all volatile transaction state
      without running any undo (memory is gone anyway). *)
end
