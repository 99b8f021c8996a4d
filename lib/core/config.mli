(** MM-DBMS configuration.

    Groups every tunable the paper discusses: partition size, log page
    size, the N_update checkpoint threshold, log window size, stable memory
    geometry, plus the commit-path policy used by the baseline
    comparisons.  Restart has one policy (§2.5) and no knob here: see
    {!Db.recover}. *)

(** Group-commit tuning: flush when [batch_size] precommitted transactions
    have accumulated, or — when [timeout_us > 0] — when the oldest has
    waited that long on the simulated clock, whichever comes first. *)
type group_commit = { batch_size : int; timeout_us : float }

(** How transactions reach the committed state (§1.2 / §2.3.1).  Every
    mode appends REDO to the transaction's SLB region as it is produced;
    they differ only in when the commit record (the SLB ring entry) is
    written and what the commit waits for after it. *)
type commit_mode =
  | Group of group_commit
      (** Commit records written in batches.  [Group { batch_size = 1; _ }]
          (the default, [group 1]) is the paper's commit: the committing
          transaction writes its own ring entry at once and is durable the
          moment that stable-memory write lands.  With a larger batch a
          transaction that does not fill the batch waits FASTPATH-style —
          locks released, ring entry deferred — and the batch officially
          commits, ring entries
          in precommit order, when [batch_size] transactions have
          accumulated, the [timeout_us] deadline fires, or
          {!Db.flush_group} is called. *)
  | Disk_force
      (** Conventional disk-WAL baseline: the [group 1] commit, followed by
          a force of the transaction's log records to the log disk and a
          wait for it. *)

(** Which REDO record family the commit path emits for relation data
    partitions.  Catalog, index and string-heap records are always
    physical; checkpoint images are codec-oblivious. *)
type redo_codec =
  | Physical
      (** Slot-level after-images only — the paper's design and the
          default; the log stream is byte-identical to the pre-logical
          encoding. *)
  | Logical
      (** Emit a {!Mrdb_logical.Cmd_op} command record whenever the
          operation on an all-integer relation can be expressed as one
          (single-cell delta or whole-tuple insert); other operations fall
          back to physical records in the same stream.
          [Mrdb_analysis.Codec_model] estimates the log-volume saving and
          the replay-cost price for a given workload. *)

type t = {
  partition_bytes : int;
  executors : int;
      (** logical transaction executors (default 1).  [Db.create] stripes
          the SLB into this many regions and sizes the lock-manager shard
          space from it; [config.stable.slb_regions] is overridden to
          match.  Block and ring capacities must divide evenly. *)
  stable : Mrdb_wal.Stable_layout.config;
  log_window_pages : int;
  ckpt_disk_pages : int;
  n_update : int;            (** checkpoint trigger threshold (N_update) *)
  age_grace_pages : int option;
  commit_mode : commit_mode;
  redo_codec : redo_codec;  (** REDO record family policy (default [Physical]) *)
  main_cpu_mips : float;     (** paper: 6 MIPS *)
  recovery_cpu_mips : float; (** paper: 1 MIPS *)
  undo_block_bytes : int;
  undo_block_count : int;
  ttree_max_items : int;     (** entries per T-tree node *)
  lhash_node_capacity : int; (** entries per linear-hash node *)
  archive : bool;
      (** roll every log page and checkpoint image onto the archive tape
          (§2.6); enables recovery from checkpoint-disk media failure *)
  auto_checkpoint : bool;
      (** process checkpoint requests between transactions (the paper's
          main-CPU polling); when false, call {!Db.process_checkpoints}
          manually *)
}

val group : int -> commit_mode
(** [group n] is [Group { batch_size = n; timeout_us = 0.0 }] — flush on
    batch size only.  [group 1] is the paper's commit and the default. *)

val default : t
(** Paper-flavoured geometry: 48 KB partitions, 8 KB log pages,
    N_update = 1000. *)

val small : t
(** Miniature geometry for tests: 2 KB partitions, 512 B log pages,
    N_update = 16 — small enough that every structural path (page seals,
    directory spans, window wrap, age triggers) is exercised quickly. *)

val validate : t -> unit
(** @raise Invalid_argument on inconsistent geometry (e.g. a partition
    image that cannot fit the checkpoint disk). *)
