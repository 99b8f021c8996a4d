(** MM-DBMS configuration.

    Groups every tunable the paper discusses: partition size, log page
    size, the N_update checkpoint threshold, log window size, stable memory
    geometry, plus the commit-path and post-crash recovery policies used by
    the baseline comparisons. *)

(** Group-commit tuning: flush when [batch_size] precommitted transactions
    have accumulated, or — when [timeout_us > 0] — when the oldest has
    waited that long on the simulated clock, whichever comes first. *)
type group_commit = { batch_size : int; timeout_us : float }

(** How transactions reach the committed state (§1.2 / §2.3.1). *)
type commit_mode =
  | Instant
      (** Stable-SLB commit: durable the moment the committed-list entry is
          written to stable memory — the paper's design. *)
  | Group of group_commit
      (** FASTPATH-style group commit: the REDO reaches the SLB exactly as
          under [Instant], but precommit releases locks without writing
          the commit record; the group officially commits — commit records
          written in precommit order — when [batch_size] transactions have
          accumulated, the [timeout_us] deadline fires, or
          {!Db.flush_group} is called. *)
  | Disk_force
      (** Conventional disk-WAL baseline: commit additionally forces the
          transaction's log records to the log disk and waits. *)

(** Post-crash policy (§2.5 / §3.4). *)
type recovery_mode =
  | On_demand
      (** Restore catalogs, then partitions as transactions touch them,
          with a low-priority background sweep — the paper's design. *)
  | Predeclare
      (** Transactions declare their relations up front and wait for them
          (§2.5 method 1). *)
  | Full_reload
      (** Database-level recovery baseline (Hagmann-style): reload
          everything and process all log before any transaction runs. *)

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
          back to physical records in the same stream. *)
  | Adaptive
      (** Per-partition policy ({!Mrdb_logical.Codec_policy}): windowed
          update-rate and record-size counters flip hot well-formed
          partitions to command logging and back. *)

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
  recovery_mode : recovery_mode;
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
    batch size only. *)

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
