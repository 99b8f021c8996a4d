(** Logging plumbing and system transactions.

    The main CPU's half of the logging contract: stamp each physical
    operation with its partition's bin-table index and sequence number and
    append it to the SLB (commit is one stable-memory write).  User
    transactions log through {!user_sink}; catalog maintenance runs under
    short system transactions ({!with_system_txn}), including the DDL
    operations and partition registration.  Draining the SLB into bins is
    the recovery CPU's job ({!Mrdb_recovery.Log_sorter}); [drain] here
    just delegates. *)

open Mrdb_storage
open Db_state

val drain : ctx -> unit
(** Delegate to the recovery component's sorter: SLB → partition bins →
    page writes, costed on the recovery CPU. *)

val log_redo_raw :
  ctx -> vol -> ?exec:int -> txn_id:int -> Addr.partition -> Part_op.t -> unit
(** Append one REDO record under [txn_id] into executor [exec]'s SLB
    region (default 0, the system region), registering the partition in
    the catalog first if needed (itself a logged system transaction). *)

val commit_system_txn : ctx -> vol -> Mrdb_txn.Txn.t -> unit
(** Commit a system transaction now, whatever {!Config.commit_mode} says:
    its ring entry in SLB region 0, release any locks it holds, drain. *)

val with_system_txn : ctx -> vol -> (Relation.log_sink -> 'a) -> 'a
(** Run [f] under a fresh system transaction whose sink logs REDO records,
    then {!commit_system_txn} it. *)

val user_sink : ctx -> vol -> Mrdb_txn.Txn.t -> Relation.log_sink
(** The log sink for a user transaction: records UNDO in the volatile undo
    space and REDO in the SLB. *)

val update_wellknown : ctx -> vol -> unit
(** Refresh the well-known stable area from the catalog (delegates to
    {!Mrdb_recovery.Ckpt_mgr.update_wellknown}). *)

(** {2 DDL (system transactions; logged and recoverable)} *)

val create_relation : ctx -> vol -> name:string -> schema:Schema.t -> unit

val create_index :
  ctx -> vol -> rel:string -> name:string -> kind:Catalog.index_kind ->
  key_column:string -> unit

val drop_relation : ctx -> vol -> name:string -> unit
(** @raise Unknown_relation / [Aborted] when a live transaction holds the
    relation. *)
