(** Checkpoint manager: the scheduling half of the recovery component
    (§2.4).

    Owns the checkpoint queue processing loop, the per-partition
    checkpoint transaction (snapshot at memory speed under a short
    relation lock, bin cut, image write, atomic location switch), the
    disk-map bookkeeping, and the well-known-area updates that make the
    catalog partitions' images findable after a crash. *)

open Mrdb_storage

(** What the checkpoint manager needs from the transaction facade.
    [system_txn f] runs [f] as the facade's system transaction: its sink
    logs the catalog update with UNDO, the transaction commits (and
    drains) when [f] returns and aborts when it raises.  [layout] is a
    getter because recovery re-attaches the stable layout. *)
type deps = {
  system_txn : 'a. (Mrdb_txn.Txn.t -> Relation.log_sink -> 'a) -> 'a;
  layout : unit -> Mrdb_wal.Stable_layout.t;
}

type t

val create :
  env:Recovery_env.t ->
  deps:deps ->
  restorer:Restorer.t ->
  cat:Catalog.t ->
  slt:Mrdb_wal.Slt.t ->
  lock_mgr:Mrdb_txn.Lock_mgr.t ->
  seq:int Addr.Partition_table.t ->
  disk_map:Mrdb_ckpt.Disk_map.t ->
  ckpt_q:Mrdb_ckpt.Ckpt_queue.t ->
  t

val queue : t -> Mrdb_ckpt.Ckpt_queue.t
val disk_map : t -> Mrdb_ckpt.Disk_map.t

val run : t -> Addr.partition -> [ `Done | `Deferred ]
(** Run one partition-checkpoint transaction now, as a system transaction.
    [`Deferred] (relation lock held by a live transaction) bumps the
    [ckpt_deferred_lock_held] counter and leaves the request to be
    retried.  When the transaction aborts, the catalog keeps the old
    location and the new image's disk run is freed.
    @raise Mrdb_util.Fatal.Invariant when the checkpoint disk is full. *)

val process : t -> int
(** Drain the request queue (the main CPU's between-transaction polling);
    returns how many checkpoints completed.  Stops at the first deferred
    request. *)

val pending : t -> int

val release_partition : t -> Catalog.partition_desc -> unit
(** Reclaim a dropped partition's recovery-side resources: queued request,
    bin, checkpoint-disk run, sequence counter.  Idempotent. *)

val update_wellknown : layout:Mrdb_wal.Stable_layout.t -> cat:Catalog.t -> unit
(** Store the catalog partitions' checkpoint locations into the
    well-known stable area (both redundant copies). *)

val on_checkpoint_request :
  trace:Mrdb_sim.Trace.t ->
  ckpt_q:(unit -> Mrdb_ckpt.Ckpt_queue.t) ->
  recorder:Mrdb_obs.Flight_recorder.t ->
  Addr.partition ->
  Mrdb_wal.Slt.trigger ->
  unit
(** The SLT's checkpoint-trigger callback: classify the trigger, count it,
    record a [Ckpt_trigger] flight event, enqueue the request.  [ckpt_q]
    is a getter because the queue is re-created before the SLT during
    restart. *)

val rebuild_disk_map : disk_map:Mrdb_ckpt.Disk_map.t -> cat:Catalog.t -> unit
(** Restart: reconstruct the checkpoint-disk allocation map from the
    catalog's image locations. *)
