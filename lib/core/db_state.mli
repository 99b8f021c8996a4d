(** Volatile execution state of one database instance.

    Everything {!Db} loses at a crash lives in a {!vol}: the stable-memory
    front ends (SLB handle, SLT handle), the decoded catalog, segment and
    relation runtimes, index instances, the lock and transaction managers,
    and the checkpoint queue.  This module owns the record and the
    relation-runtime / index-instance management over it; restores are
    delegated to the recovery component's {!Mrdb_recovery.Restorer}. *)

open Mrdb_storage

exception Aborted of string
exception Crashed
exception Unknown_relation of string
exception Unknown_index of string

(** The slice of the database instance the state and system layers need. *)
type ctx = {
  cfg : Config.t;
  trace : Mrdb_sim.Trace.t;
  epoch : Mrdb_hw.Volatile.Epoch.t;
  recovery : Mrdb_recovery.Recovery_mgr.t;
  layout : unit -> Mrdb_wal.Stable_layout.t;
      (** Getter: recovery re-attaches the stable layout. *)
  obs : Mrdb_obs.Obs.t;
      (** The instance's observability handle (crash-surviving, like the
          trace). *)
}

type index_inst = Tt of Mrdb_index.T_tree.t | Lh of Mrdb_index.Linear_hash.t

type rel_rt = {
  desc : Catalog.rel_desc;
  relation : Relation.t;
  mutable index_insts : (Catalog.index_desc * index_inst) list;
  mutable indices_attached : bool;
}

type vol = {
  slb : Mrdb_wal.Slb.t;
  slt : Mrdb_wal.Slt.t;
  cat : Catalog.t;
  segments : (int, Segment.t) Hashtbl.t;
  rels : (string, rel_rt) Hashtbl.t;
  lock_mgr : Mrdb_txn.Lock_mgr.t;
  txn_mgr : Mrdb_txn.Txn.Manager.mgr;
  disk_map : Mrdb_ckpt.Disk_map.t;
  ckpt_q : Mrdb_ckpt.Ckpt_queue.t;
  seq : int Addr.Partition_table.t;
  group : (Mrdb_txn.Txn.t * float) Queue.t;
      (** precommitted transactions awaiting the group flush, with their
          precommit times (simulated µs) for the wait histogram *)
  mutable group_epoch : int;
      (** bumped on every group flush; a pending timeout event compares
          its captured epoch so a stale deadline never double-flushes *)
  overlay_by_segment : (int, index_inst) Hashtbl.t;
  cmd_rel_by_seg : (int, int) Hashtbl.t;
      (** rel_segment -> rel_id for all-Int relations — the only shape the
          command emitter can derive deltas for *)
}

val mk_vol :
  ctx ->
  slb:Mrdb_wal.Slb.t ->
  slt:Mrdb_wal.Slt.t ->
  cat:Catalog.t ->
  ckpt_q:Mrdb_ckpt.Ckpt_queue.t ->
  vol

(** {2 Residency (delegated to the restorer)} *)

val restorer : ctx -> Mrdb_recovery.Restorer.t
val segment_of : ctx -> int -> Segment.t
val ensure_partition : ctx -> Addr.partition -> unit
val ensure_segment : ctx -> int -> unit

(** {2 Relation runtimes} *)

val rt_of : ctx -> vol -> string -> rel_rt
(** The relation's runtime, built on first use (registering it in
    [cmd_rel_by_seg] when its schema is all-Int).
    @raise Unknown_relation when the catalog has no such relation. *)

val ensure_indices : ctx -> vol -> rel_rt -> unit
val ensure_rel_resident : ctx -> vol -> rel_rt -> unit

(** {2 Index maintenance} *)

val inst_insert :
  index_inst -> log:Relation.log_sink -> Schema.value -> Addr.t -> unit

val inst_delete :
  index_inst -> log:Relation.log_sink -> Schema.value -> Addr.t -> unit

val index_insert_all :
  rel_rt -> log:Relation.log_sink -> Tuple.t -> Addr.t -> unit

val index_delete_all :
  rel_rt -> log:Relation.log_sink -> Tuple.t -> Addr.t -> unit

val find_index : rel_rt -> string -> Catalog.index_desc * index_inst
(** @raise Unknown_index *)
