type group_commit = { batch_size : int; timeout_us : float }

type commit_mode = Group of group_commit | Disk_force

(* Batch-size-only group commit (no timeout), the common test spelling. *)
let group n = Group { batch_size = n; timeout_us = 0.0 }

type redo_codec = Physical | Logical

type t = {
  partition_bytes : int;
  executors : int;
  stable : Mrdb_wal.Stable_layout.config;
  log_window_pages : int;
  ckpt_disk_pages : int;
  n_update : int;
  age_grace_pages : int option;
  commit_mode : commit_mode;
  redo_codec : redo_codec;
  main_cpu_mips : float;
  recovery_cpu_mips : float;
  undo_block_bytes : int;
  undo_block_count : int;
  ttree_max_items : int;
  lhash_node_capacity : int;
  archive : bool;
  auto_checkpoint : bool;
}

let default =
  {
    partition_bytes = 48 * 1024;
    executors = 1;
    stable = Mrdb_wal.Stable_layout.default_config;
    log_window_pages = 4096;
    ckpt_disk_pages = 8192;
    n_update = 1000;
    age_grace_pages = None;
    commit_mode = group 1;
    redo_codec = Physical;
    main_cpu_mips = 6.0;
    recovery_cpu_mips = 1.0;
    undo_block_bytes = 2048;
    undo_block_count = 1024;
    ttree_max_items = 16;
    lhash_node_capacity = 8;
    archive = false;
    auto_checkpoint = true;
  }

let small =
  {
    partition_bytes = 2048;
    executors = 1;
    stable =
      {
        Mrdb_wal.Stable_layout.slb_block_bytes = 512;
        slb_block_count = 1024;
        slb_regions = 1;
        committed_capacity = 256;
        log_page_bytes = 512;
        page_pool_count = 96;
        bin_count = 64;
        dir_size = 4;
        wellknown_bytes = 2048;
      };
    log_window_pages = 256;
    ckpt_disk_pages = 512;
    n_update = 16;
    age_grace_pages = Some 4;
    commit_mode = group 1;
    redo_codec = Physical;
    main_cpu_mips = 6.0;
    recovery_cpu_mips = 1.0;
    undo_block_bytes = 512;
    undo_block_count = 2048;
    ttree_max_items = 4;
    lhash_node_capacity = 3;
    archive = false;
    auto_checkpoint = true;
  }

let validate t =
  let cfg = t.stable in
  if t.partition_bytes < 256 then Mrdb_util.Fatal.misuse "Config: partition_bytes too small";
  if t.executors < 1 then Mrdb_util.Fatal.misuse "Config: executors must be >= 1";
  if cfg.Mrdb_wal.Stable_layout.slb_block_count mod t.executors <> 0 then
    Mrdb_util.Fatal.misuse "Config: slb_block_count not divisible by executors";
  if cfg.Mrdb_wal.Stable_layout.committed_capacity mod t.executors <> 0 then
    Mrdb_util.Fatal.misuse "Config: committed_capacity not divisible by executors";
  let image_pages =
    (t.partition_bytes + 64 + cfg.Mrdb_wal.Stable_layout.log_page_bytes - 1)
    / cfg.Mrdb_wal.Stable_layout.log_page_bytes
  in
  if image_pages > t.ckpt_disk_pages then
    Mrdb_util.Fatal.misuse "Config: checkpoint disk cannot hold a single partition image";
  if t.log_window_pages < 2 * cfg.Mrdb_wal.Stable_layout.dir_size then
    Mrdb_util.Fatal.misuse "Config: log window too small for directory spans";
  (match t.commit_mode with
  | Group { batch_size; _ } when batch_size < 1 ->
      Mrdb_util.Fatal.misuse "Config: group size must be >= 1"
  | Group { timeout_us; _ } when timeout_us < 0.0 ->
      Mrdb_util.Fatal.misuse "Config: group timeout must be >= 0"
  | Group _ | Disk_force -> ());
  if t.n_update < 1 then Mrdb_util.Fatal.misuse "Config: n_update must be >= 1";
  (* Index node records must fit a log page and an SLB block. *)
  let record_overhead = 32 in
  let max_node =
    Stdlib.max
      (Mrdb_index.T_tree.node_pad_bytes ~max_items:t.ttree_max_items)
      (Mrdb_index.Linear_hash.node_pad_bytes ~node_capacity:t.lhash_node_capacity)
  in
  let payload =
    Mrdb_wal.Log_page.payload_capacity
      ~page_bytes:cfg.Mrdb_wal.Stable_layout.log_page_bytes
      ~dir_size:cfg.Mrdb_wal.Stable_layout.dir_size
  in
  if max_node + record_overhead > payload then
    Mrdb_util.Fatal.misuse "Config: index node records exceed log page capacity";
  if max_node + record_overhead > cfg.Mrdb_wal.Stable_layout.slb_block_bytes - 16 then
    Mrdb_util.Fatal.misuse "Config: index node records exceed SLB block capacity";
  if max_node + 64 > t.partition_bytes then
    Mrdb_util.Fatal.misuse "Config: index nodes exceed partition size";
  (* Every active partition needs a page buffer (§2.3.3); the pool must
     cover the whole bin table plus in-flight slack. *)
  if
    cfg.Mrdb_wal.Stable_layout.page_pool_count
    < cfg.Mrdb_wal.Stable_layout.bin_count + 8
  then Mrdb_util.Fatal.misuse "Config: page pool smaller than bin table + in-flight slack"
