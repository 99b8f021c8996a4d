(** The recovery component (§2.2): facade over the recovery CPU and the
    three recovery-side modules.

    The paper's architecture dedicates a processor to recovery work; this
    facade owns that CPU (it survives crashes, like the hardware it
    models) and composes the volatile per-incarnation components — the
    {!Log_sorter} (SLB drain → bin sort → page flush), the {!Restorer}
    (checkpoint images, partition restore, background sweep) and the
    {!Ckpt_mgr} (checkpoint scheduling and the well-known area).
    {!detach} models the crash (components lost, CPU survives);
    {!attach} wires a fresh set against new volatile state. *)

open Mrdb_storage

type t

val create : sim:Mrdb_sim.Sim.t -> mips:float -> t
(** Create the recovery CPU (named ["recovery"]); no components are
    attached yet. *)

val cpu : t -> Mrdb_sim.Cpu.t

val attach :
  t ->
  env:Recovery_env.t ->
  deps:Ckpt_mgr.deps ->
  log_disk:Mrdb_wal.Log_disk.t ->
  slb:Mrdb_wal.Slb.t ->
  slt:Mrdb_wal.Slt.t ->
  cat:Catalog.t ->
  seq:int Addr.Partition_table.t ->
  segments:(int, Segment.t) Hashtbl.t ->
  lock_mgr:Mrdb_txn.Lock_mgr.t ->
  disk_map:Mrdb_ckpt.Disk_map.t ->
  ckpt_q:Mrdb_ckpt.Ckpt_queue.t ->
  unit
(** Build and attach a fresh sorter/restorer/checkpoint-manager trio
    against the given volatile state. *)

val detach : t -> unit
(** Crash: drop the attached components (the CPU persists). *)

val sorter : t -> Log_sorter.t
val restorer : t -> Restorer.t
val ckpt_mgr : t -> Ckpt_mgr.t
(** @raise Failure when detached (crashed). *)

val restart :
  env:Recovery_env.t ->
  layout:Mrdb_wal.Stable_layout.t ->
  log_disk:Mrdb_wal.Log_disk.t ->
  n_update:int ->
  age_grace_pages:int option ->
  ckpt_q:Mrdb_ckpt.Ckpt_queue.t ->
  Mrdb_wal.Slb.t * Mrdb_wal.Slt.t * Segment.t * (Addr.partition * int) list
(** Phase 1 of post-crash recovery, stable side: re-attach the SLB,
    rebuild the SLT from stable memory, sort the committed-but-undrained
    backlog, and restore the catalog partitions named by the well-known
    area.  Returns the recovered SLB/SLT, the catalog segment, and each
    catalog partition's sequence watermark. *)

val finish_restart :
  slt:Mrdb_wal.Slt.t -> cat:Catalog.t -> disk_map:Mrdb_ckpt.Disk_map.t -> unit
(** Phase 1, after the catalog is decoded: rebuild the checkpoint-disk
    allocation map and reap orphan bins left by a crash-interrupted
    [drop_relation]. *)
