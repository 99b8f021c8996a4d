(** The three headline replication flows, as deterministic, seeded,
    torture-able scripts shared by the CLI ([mrdb replicate]) and the test
    suite.

    Each scenario builds a {!Replica} pair, drives a seeded key-value
    workload against the primary, exercises one failure story, promotes
    the standby and checks the promoted state against the commit-order
    history.  Scenarios never print and never assert — they return a
    {!report} whose [prefix_ok] field folds in the scenario's own
    acceptance criteria, so callers decide how to surface a failure. *)

type report = {
  seed : int;
  committed : int;  (** transactions committed on the old primary *)
  cuts : int;  (** batches shipped *)
  prefix_len : int;  (** commit-order prefix reproduced by the promoted standby *)
  prefix_ok : bool;  (** the scenario's acceptance criteria, all folded in *)
  durable_len : int;  (** history length at the last acked cut (prefix floor) *)
  divergences : int;  (** standby audits that failed *)
  reseeds : int;  (** full re-seeds forced *)
  promote_us : float;  (** simulated time charged to the [failover] phase *)
  lag_at_failover : int;
}

val catchup : seed:int -> unit -> report
(** Standby-down-then-catchup: outage, dead-wire cuts, local recovery on
    resume, one backlog-draining cut.  Accepts iff the promoted standby
    reproduces the {e entire} history and the post-catchup lag is zero. *)

val failover : seed:int -> unit -> report
(** Primary-crash-then-failover: the primary dies holding committed work
    past the last cut; the standby is promoted and serves transactions
    mid-restore, restoring partitions on demand.  Accepts iff the promoted state is a
    commit-order prefix of the old history (plus the post-failover work)
    no shorter than the last acked cut. *)

val divergence : seed:int -> unit -> report
(** Divergence detection: scripted rot on the standby's copy of a
    checkpoint image; the per-partition CRC audit flags it, the ack
    forces a full re-seed under a bumped epoch.  Accepts iff divergence
    was detected, a re-seed happened, and the promoted standby reproduces
    the entire history. *)
