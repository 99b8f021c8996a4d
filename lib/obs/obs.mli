(** The observability handle: one {!Metrics} registry, one
    {!Flight_recorder} and one recovery {!Timeline}, threaded together
    through every layer of the database instance.

    Created by [Db.create] with the simulated clock as its time source and
    handed down (via [Recovery_env] and the per-module [set_obs]/optional
    arguments) so that the WAL, the transaction manager, the recovery
    component and the fault injector all report into the same snapshot.
    Recording through this handle costs zero simulated time and must keep
    the determinism golden byte-identical: it only {e reads} the clock and
    never schedules events or bumps [Trace] counters. *)

type t

val create : ?capacity:int -> now:(unit -> float) -> unit -> t
(** [now] is the simulated clock in µs (e.g. [fun () -> Sim.now sim]);
    [capacity] sizes the flight-recorder ring (default 4096). *)

val metrics : t -> Metrics.t
val recorder : t -> Flight_recorder.t
val timeline : t -> Timeline.t

val now_us : t -> float
(** Read the attached clock. *)

(** {2 Canonical histograms}

    The three latency/volume distributions every snapshot carries.  Each
    is created lazily on first access — callers hold the histogram and
    observe into it without a name lookup per sample. *)

val txn_latency : t -> Metrics.histogram
(** ["txn_latency_ns"]: facade transaction latency, begin → commit/abort,
    in simulated ns (includes lock waits, on-demand restores and
    synchronous checkpoint work absorbed by the commit path). *)

val txn_latency_exec : t -> exec:int -> Metrics.histogram
(** ["txn_latency_ns.e<exec>"]: the per-executor slice of {!txn_latency}.
    [Db] records into it only when the instance runs more than one
    executor, so single-executor snapshots keep the /1-era histogram
    set. *)

val restore_latency : t -> Metrics.histogram
(** ["restore_latency_ns"]: per-partition restore latency in simulated ns
    (checkpoint-image read ∥ log-stream read + replay). *)

val drain_batch : t -> Metrics.histogram
(** ["drain_batch_records"]: committed records moved per sorter drain. *)

val ship_batch : t -> Metrics.histogram
(** ["ship_batch_records"]: committed records carried per log-shipping
    batch (a replication ship cut delivered to the warm standby).  The
    companion ["replication_lag_records"] gauge is registered by
    {!Mrdb_replica.Replica} on the standby's registry. *)

val group_batch : t -> Metrics.histogram
(** ["group_batch_txns"]: transactions per group-commit flush, sampled
    only for batches in which at least one transaction waited (a
    transaction committing alone, as every one does at batch size 1, is
    not a sample). *)

val group_commit_wait : t -> Metrics.histogram
(** ["group_commit_wait_ns"]: simulated time each waiting transaction
    spent precommitted until its group flushed (0 when the batch-size
    trigger fires within one synchronous call, up to the configured
    timeout when the deadline flushes a partial group).  The transaction
    that fills a batch did not wait and is not a sample. *)
