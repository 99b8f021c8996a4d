(** Logging plumbing and system transactions.

    The main CPU's half of the logging contract: stamp each physical
    operation with its partition's bin-table index and sequence number and
    append it to the SLB (commit is one stable-memory write).  Every
    transaction logs through one sink, UNDO and REDO alike.  Catalog
    maintenance — DDL, partition registration, the checkpoint's location
    install, the bootstrap — runs as short {!system_txn}s that commit and
    abort like user transactions.  Draining the SLB into bins is the
    recovery CPU's job ({!Mrdb_recovery.Log_sorter}); [drain] here just
    delegates. *)

open Mrdb_storage
open Db_state

val drain : ctx -> unit
(** Delegate to the recovery component's sorter: SLB → partition bins →
    page writes, costed on the recovery CPU. *)

val abort : vol -> Mrdb_txn.Txn.t -> unit
(** Roll a transaction back: free its SLB chain, apply its UNDO, release
    its locks. *)

val system_txn : ctx -> vol -> (Mrdb_txn.Txn.t -> Relation.log_sink -> 'a) -> 'a
(** Run [f] under a fresh system transaction and its sink (a partition it
    touches first registers under it), then commit at once in SLB region
    0 whatever {!Config.commit_mode} says.  When [f] or the ring entry
    raises, {!abort}, rebuild the catalog in place from its rolled-back
    segment (runtimes and overlays rebuild lazily), and re-raise. *)

val user_sink : ctx -> vol -> Mrdb_txn.Txn.t -> Relation.log_sink
(** The log sink for a user transaction: records UNDO in the volatile undo
    space and REDO in the SLB.  A partition the transaction touches first
    is registered by a system transaction of its own. *)

val update_wellknown : ctx -> vol -> unit
(** Refresh the well-known stable area from the catalog (delegates to
    {!Mrdb_recovery.Ckpt_mgr.update_wellknown}). *)

(** {2 DDL (system transactions; logged and recoverable)} *)

val create_relation : ctx -> vol -> name:string -> schema:Schema.t -> unit

val create_index :
  ctx -> vol -> rel:string -> name:string -> kind:Catalog.index_kind ->
  key_column:string -> unit

val drop_relation : ctx -> vol -> name:string -> unit
(** The X lock is taken inside the system transaction.
    @raise Unknown_relation / [Aborted] when a live transaction holds the
    relation (the drop then aborts). *)
