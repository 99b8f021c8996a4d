(** Warm-standby replication driver: a primary {!Mrdb_core.Db} paired with
    a second instance that consumes the primary's durable artifacts over a
    simulated shipping link.

    The protocol ships {e ship cuts}: the primary flushes its pending
    commit group and every partial log-page bin, quiesces, and sends one
    CRC-enveloped batch — unacked sealed log pages, checkpoint-disk pages
    changed since the last acked cut, a per-partition divergence
    handshake, and (as the batch's commit point) the full stable-memory
    image.  The standby installs a verified batch atomically between
    simulated events, so its durable state is always some cut's
    crash-consistent image of the primary; promotion is therefore the
    standard {!Mrdb_core.Db.recover} against local artifacts, and the
    promoted state is a commit-order prefix of the primary's history by
    construction.

    Loss handling is cursor/ack: the shipped-page cursor and checkpoint
    CRC map advance only on an [Applied] ack, so dropped, delayed or
    corrupted frames (a partitioned link, a down standby) are re-covered
    by the next cut without timers.  A [Diverged] ack — the standby's
    audit could not reproduce a partition from its own artifacts — forces
    the next cut to be a {e full re-seed} under a bumped epoch.

    Both channels run on the {e primary's} simulated clock; the standby's
    own clock only advances during its local recoveries.  Observability:
    the [replication_lag_records] gauge (primary metrics), the
    [ship_batch_records] histogram, [ship_*] / [replica_*] trace counters
    on the respective nodes, and the timeline's [failover] phase. *)

type t

val create : ?config:Mrdb_core.Config.t -> ?lag_bound:int -> ?delay_us:float -> unit -> t
(** A fresh pair: the primary live, the standby born, crashed cold and
    demoted to a durable receptacle awaiting the first full seed (the
    first {!ship_cut} is always a full batch).  [lag_bound] (default 64
    records) is {!maybe_ship}'s trigger; [delay_us] the one-way link
    latency. *)

(** {2 Shipping} *)

val ship_cut : t -> bool
(** Take a cut and ship one batch, then pump the clock through delivery
    and ack.  [false] when the primary is crashed (nothing to cut). *)

val maybe_ship : t -> bool
(** {!ship_cut} iff the records committed since the last cut reach the
    lag bound — the bounded-lag driver to call from a workload loop. *)

val lag_records : t -> int
(** Primary commit-seq minus the standby's last installed commit-seq: how
    many committed records the standby's durable state is behind. *)

(** {2 Node lifecycle (harness hooks for {!Mrdb_fault} node events)} *)

val crash_primary : t -> unit
val recover_primary : t -> unit
(** {!Mrdb_core.Db.recover} the primary. *)

val crash_standby : t -> unit
(** The standby node goes down: receiver detached (frames arriving now
    are dropped by the wire, acks stop, the cursor freezes) and any warm
    volatile state is lost.  Its durable artifacts survive. *)

val resume_standby : t -> unit
(** The standby node restarts cold and reattaches; the next cut resends
    everything past the frozen cursor. *)

val warm_standby : t -> unit
(** Local recovery on a live cold standby (role unchanged): proves the
    shipped artifacts restore and leaves the node warm — a subsequent
    batch drops it cold again (the installs invalidate the volatile
    view). *)

val promote : t -> Mrdb_core.Db.t
(** Failover: detach the standby from the stream and
    {!Mrdb_core.Db.promote} it.  Returns the new primary, possibly still
    mid-restore — it serves transactions, restoring partitions on demand,
    while the background sweep finishes. *)

(** {2 Introspection} *)

val primary : t -> Mrdb_core.Db.t
val standby : t -> Mrdb_core.Db.t

val fwd_channel : t -> Mrdb_hw.Ship_channel.t
val rev_channel : t -> Mrdb_hw.Ship_channel.t
(** The two simulated links (batches out, acks back) — exposed so fault
    harnesses can degrade them ({!Mrdb_hw.Ship_channel.set_extra_delay} /
    [set_drop] are lint-restricted to lib/fault and tests). *)

val epoch : t -> int
(** Current seed generation (bumped by every forced re-seed). *)

val cuts_shipped : t -> int
