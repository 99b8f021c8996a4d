(** The Main-Memory DBMS with the paper's recovery architecture.

    One [Db.t] is a simulated machine: volatile main memory holding the
    primary database (segments of fixed-size partitions, T-tree /
    linear-hash indices, catalogs), a few megabytes of stable reliable
    memory (Stable Log Buffer + Stable Log Tail), a duplexed log disk with
    a reusable window, and a checkpoint disk organized as a pseudo-circular
    queue.

    Transactions run under strict two-phase locking, write REDO records to
    the SLB (stable — commit is instant) and UNDO records to the volatile
    undo space.  The recovery component sorts committed records into
    per-partition bins, writes full log pages, and triggers per-partition
    checkpoints by update count or age.  {!crash} destroys all volatile
    state; {!recover} restores the catalogs from the well-known stable
    area and resumes transaction processing, with remaining partitions
    recovered on demand or in the background.

    This facade is synchronous: operations that need simulated I/O pump the
    discrete-event clock internally, so functional callers never deal with
    callbacks; benches read the clock via {!sim} to measure elapsed
    simulated time. *)

open Mrdb_storage

type t
type txn

exception Aborted of string
(** The transaction was aborted (deadlock victim, or a lock conflict in
    this synchronous facade) and its effects rolled back. *)

exception Crashed
(** Raised by operations attempted between {!crash} and {!recover}. *)

exception Unknown_relation of string
exception Unknown_index of string

(** {2 Lifecycle} *)

val create : ?config:Config.t -> unit -> t
val config : t -> Config.t
val sim : t -> Mrdb_sim.Sim.t
val trace : t -> Mrdb_sim.Trace.t

val obs : t -> Mrdb_obs.Obs.t
(** The instance's observability handle: metrics registry (with the trace
    attached), flight recorder and recovery timeline.  Like the trace, it
    survives crashes — the flight recorder keeps its pre-crash events. *)

val quiesce : t -> unit
(** Run the simulated clock until all in-flight device work completes.
    It does not flush a waiting commit group: only an armed group
    timeout fires on the clock, so with [timeout_us = 0] transactions
    parked by {!commit} stay uncommitted until a full batch or
    {!flush_group} closes the group.  Settle with [flush_group] first. *)

(** {2 DDL (system transactions; logged and recoverable)} *)

val create_relation : t -> name:string -> schema:Schema.t -> unit
val create_index :
  t -> rel:string -> name:string -> kind:Catalog.index_kind -> key_column:string -> unit
(** @raise Unknown_relation / Invalid_argument on bad arguments.  Building
    an index over existing tuples backfills it. *)

val drop_relation : t -> name:string -> unit
(** Drop a relation, its indices, partitions, bin-table entries and
    checkpoint-disk space.  The catalog deletions commit atomically in one
    system transaction before any resource is reclaimed, so a crash at any
    point either preserves the relation entirely or drops it entirely.
    @raise Unknown_relation / [Aborted] when a live transaction holds it. *)

val relations : t -> string list

(** {2 Transactions} *)

val begin_txn : ?declare:string list -> ?executor:int -> t -> txn
(** [declare] names the relations the transaction will touch; after a
    crash, any of their partitions not yet resident are restored before
    the transaction starts (§2.5 method 1).  Undeclared relations fault
    their partitions in on first access (§2.5 method 2).  Each
    transaction makes this choice; there is no database-wide mode.
    [executor] (default 0) is the logical executor the
    transaction runs on: its REDO records go to that executor's SLB
    region and its flight events carry the id.
    @raise Invalid_argument when [executor] is outside
    [0 .. Config.executors - 1], or when the node is a {!Standby}. *)

val txn_id : txn -> int
val commit : t -> txn -> unit
(** Commit per the configured {!Config.commit_mode}.  The transaction's
    REDO chain is already in stable memory; commit adds its commit record
    (the SLB ring entry).  A transaction that fills its batch writes the
    waiting group's commit records and then its own, releases its locks
    and is durable when this returns — with the default [Config.group 1]
    that is every transaction, the paper's commit.  Under [Disk_force]
    the same commit is followed by a forced log write and a wait for it.
    A transaction that does not fill the batch releases its locks and
    waits: its commit record is written when the batch fills, the group
    timeout fires on the simulated clock, or {!flush_group} is called. *)

val abort : t -> txn -> unit
val flush_group : t -> unit
(** Officially commit the waiting group now: write each waiting
    transaction's commit record in precommit order — a stable-memory
    write, not a disk force.  No-op when no transaction is waiting. *)

val with_txn : ?executor:int -> t -> (txn -> 'a) -> 'a
(** Run, commit on return, abort on exception (re-raised); [executor] as
    in {!begin_txn}. *)

(** {2 DML} *)

val insert : t -> txn -> rel:string -> Tuple.t -> Addr.t
val read : t -> txn -> rel:string -> Addr.t -> Tuple.t option
(** Address-level read: on-demand recovers only the addressed partition
    (§2.5 method 2). *)

val update : t -> txn -> rel:string -> Addr.t -> Tuple.t -> Addr.t
val update_field :
  t -> txn -> rel:string -> Addr.t -> column:string -> Schema.value -> Addr.t
val delete : t -> txn -> rel:string -> Addr.t -> unit
val lookup :
  t -> txn -> rel:string -> index:string -> Schema.value -> (Addr.t * Tuple.t) list
val range :
  t -> txn -> rel:string -> index:string -> lo:Schema.value option ->
  hi:Schema.value option -> (Schema.value * Addr.t) list
val scan : t -> txn -> rel:string -> (Addr.t * Tuple.t) list
val cardinality : t -> rel:string -> int
(** Untransactional count (ensures residency). *)

(** {2 Checkpointing} *)

val process_checkpoints : t -> int
(** Run pending checkpoint transactions (the main CPU's between-transaction
    polling); returns how many completed.  Requests whose relation lock is
    held by a live transaction are deferred.  Under group commit the
    pending group is flushed first (as in {!checkpoint_partition}): a
    precommitted transaction has already released its locks, so an image
    taken before the flush could durably capture effects whose commit
    record is not yet written — recovery would then resurrect a
    transaction that never durably committed. *)

val checkpoint_partition : t -> Addr.partition -> unit
(** Force one partition checkpoint now. *)

val checkpoint_all : t -> unit
(** Checkpoint every active partition (e.g. before a planned shutdown). *)

(** {2 Crash and recovery} *)

val crash : t -> unit
(** Power failure: all volatile memory lost, in-flight disk work lost;
    stable memory and durable disk contents survive. *)

val is_crashed : t -> bool

val recover : t -> unit
(** The one restart path (§2.5): rebuild the recovery component from
    stable memory, drain committed-but-unsorted records and restore the
    catalogs from the well-known area.  Transaction processing may resume
    on return; partitions are then restored as transactions declare or
    touch them ({!begin_txn}), and by the background sweep
    ({!background_recovery_step}).  The database-level full-reload
    baseline (§3.4) is [recover] followed by {!recover_everything}.
    @raise Mrdb_util.Fatal.Invariant when a catalog partition's durable
    state is unreadable, or its checkpoint image belongs to another
    partition. *)

(** {2 Replication roles and failover ({!Mrdb_replica})} *)

type role = Primary | Standby

val role : t -> role
(** Every instance is born [Primary].  A [Standby] refuses {!begin_txn}
    and DDL ([Invalid_argument]) — the split-brain guard — while still
    accepting {!crash}, {!recover} (local warm-up, role unchanged) and the
    shipped-artifact installs performed by {!Mrdb_replica}. *)

val demote_to_standby : t -> unit
(** Make a crashed node a standby.
    @raise Invalid_argument while volatile state exists: quiesce and
    {!crash} first, so demotion can never strand live transactions. *)

val promote : t -> unit
(** Failover: make this standby the primary.  A cold standby first runs
    {!recover} against its shipped durable artifacts (so promotion works
    mid-catchup — remaining partitions restore on demand);
    a warm standby just flips the role.  The elapsed simulated time lands
    in the timeline's [Failover] phase and the ["promotions"] trace
    counter.
    @raise Invalid_argument when the node is already the primary. *)

val background_recovery_step : t -> bool
(** Restore one more not-yet-resident partition (the paper's low-priority
    background sweep); false when the database is fully resident. *)

val recover_everything : t -> unit
(** Drain the background sweep: restore every partition not yet
    resident. *)

val resident_fraction : t -> float
(** Fraction of catalogued partitions currently memory-resident. *)

(** {2 Archive and media failure (§2.6)} *)

val archiver : t -> Mrdb_archive.Archive.t option
(** The archive component, when [Config.archive] is set.  It taps every
    log-disk page write and receives every checkpoint image. *)

val fail_checkpoint_disk : t -> unit
(** Media failure: replace the checkpoint disk with a blank drive.  With
    the archive enabled, subsequent recovery transparently falls back to
    the newest archived image of each partition; without it, recovery of
    checkpointed partitions fails loudly. *)

(** {2 Introspection (benches, tests)} *)

val main_cpu : t -> Mrdb_sim.Cpu.t
val recovery_cpu : t -> Mrdb_sim.Cpu.t
(** The two processors of §2.2 (instruction-time accounting). *)

val slt : t -> Mrdb_wal.Slt.t
val slb : t -> Mrdb_wal.Slb.t
val log_disk : t -> Mrdb_wal.Log_disk.t
val ckpt_disk : t -> Mrdb_hw.Disk.t
val stable_mem : t -> Mrdb_hw.Stable_mem.t
(** The stable memory backing the layout — exposed so fault campaigns can
    target it (injection itself is lint-restricted to lib/fault / tests). *)

val catalog : t -> Catalog.t

(** {3 Replication introspection (untimed; {!Mrdb_replica} shipping side)} *)

val commit_seq : t -> int
(** The stable global commit sequence counter — on a standby this reads
    the value carried by the last installed stable-memory image, so
    [primary commit_seq - standby commit_seq] is the replication lag in
    committed records. *)

val partition_snapshot : t -> Addr.partition -> bytes option
(** Byte snapshot of a memory-resident partition ([None] when the node is
    crashed or the partition is absent/non-resident) — the divergence
    handshake's source of per-partition CRCs. *)

val checkpoint_location : t -> Addr.partition -> (int * int) option
(** [(first_page, page_count)] of the partition's checkpoint image on the
    checkpoint disk; [None] when never checkpointed. *)

val all_partitions : t -> Addr.partition list
(** Every catalogued partition (tuple and index segments), sorted. *)

val partition_of_addr : t -> rel:string -> Addr.t -> Addr.partition
val relation_partitions : t -> rel:string -> Addr.partition list
(** Tuple-segment partitions of a relation (catalogued). *)
