(** Standby-side batch apply and divergence audit.

    This module is the ONLY sanctioned writer of a standby's durable state
    (lint rule R9 pins the [Stable_mem] mutation and the
    [install_page] entry points here): a shipped, CRC-verified batch lands
    on the standby's log disk, checkpoint disk and stable memory as
    untimed installs executed synchronously between simulated events, so a
    crash bomb can never tear an apply — the standby's durable state is
    always some cut's crash-consistent image of the primary.

    The audit half re-derives each checked partition from the standby's
    {e own} durable artifacts — checkpoint image plus log replay through
    {!Mrdb_recovery.Restorer.replay}, the same REDO kernel a
    restart uses — and compares the result against the primary's
    at-the-cut CRC.  A mismatch is a divergence: the standby's durable
    state cannot reproduce the primary's, and only a full re-seed fixes
    it. *)

val content_crc : Mrdb_storage.Partition.t -> int32
(** Entity-level digest: live slots in slot order, each chained as
    (slot, length, bytes).  Deliberately ignores heap placement — logical
    replay reproduces entities exactly, while physical layout may legally
    differ between a live partition and an image-plus-replay rebuild. *)

val install_batch : standby:Mrdb_core.Db.t -> Ship_log.batch -> unit
(** Install one decoded batch: log pages, checkpoint pages, then — as the
    commit point — the full stable-memory image.  A warm standby is
    dropped cold first (its volatile state described the pre-batch bytes).
    Counters on the standby trace: [replica_log_pages_installed],
    [replica_ckpt_pages_installed], [replica_batches_applied]. *)

val audit :
  standby:Mrdb_core.Db.t ->
  Ship_log.part_check list ->
  Mrdb_storage.Addr.partition list
(** Diverged partitions (empty = clean).  Counters on the standby trace:
    [replica_audit_partitions], [replica_divergences]. *)
