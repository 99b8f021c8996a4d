(** Layout of the stable reliable memory.

    Carves one {!Mrdb_hw.Stable_mem.t} into the regions the recovery
    component needs:

    - a small header (the global log sequence number, the global commit
      sequence counter, bin-count cell);
    - per-region committed-ring cursor cells (head/tail for each SLB
      region);
    - the {e well-known area} holding the catalog partition list — "this is
      kept in a well-known location" (§2.5);
    - the committed-transaction ring (commit order of SLB chains — writing
      an entry here {e is} the commit point), striped into [slb_regions]
      contiguous per-region sub-rings;
    - the Stable Log Buffer block pool, striped the same way with one
      block allocator per region;
    - the partition-bin info blocks of the Stable Log Tail;
    - the log-page buffer pool (bins borrow page buffers from here;
      in-flight pages keep theirs until the disk write is durable).

    Each ring entry carries the commit sequence number assigned from the
    global header counter at commit time; recovery merges the striped
    rings back into one totally ordered stream by that sequence.

    The layout object itself is volatile; after a crash a fresh layout with
    the same configuration re-attaches to the same stable memory and finds
    all regions where they were. *)

type config = {
  slb_block_bytes : int;
  slb_block_count : int;
  slb_regions : int;         (** SLB stripes, one per executor *)
  committed_capacity : int;  (** max undrained committed transactions, all regions *)
  log_page_bytes : int;
  page_pool_count : int;
  bin_count : int;           (** max partitions with bin-table entries *)
  dir_size : int;            (** N, the log page directory size *)
  wellknown_bytes : int;
}

val default_config : config
(** 2 KiB × 512 SLB blocks, 8 KiB log pages × 576 pool buffers (one buffer
    per possible active partition plus in-flight slack), 512 bins,
    directory size 8, one SLB region — about 6 MB of stable memory, the
    paper's "few megabytes". *)

val required_bytes : config -> int

type t

val attach : config -> Mrdb_hw.Stable_mem.t -> t
(** Bind regions over (possibly pre-existing) stable memory.
    @raise Invalid_argument when the memory is too small, [slb_regions]
    is not ≥ 1, or the block/ring counts are not divisible by
    [slb_regions]. *)

val config : t -> config
val mem : t -> Mrdb_hw.Stable_mem.t

val regions : t -> int
(** [config t].slb_regions. *)

(** {2 Header cells} *)

val next_lsn : t -> int64
val set_next_lsn : t -> int64 -> unit

val committed_head : t -> region:int -> int
val committed_tail : t -> region:int -> int
val set_committed_head : t -> region:int -> int -> unit
val set_committed_tail : t -> region:int -> int -> unit
(** Per-region ring cursors (monotonic; slot = cursor mod region ring
    capacity). *)

val commit_seq : t -> int
val set_commit_seq : t -> int -> unit
(** The global commit sequence counter: incremented once per commit,
    stamped into the ring entry — the total order recovery merges the
    striped rings by. *)

val bin_count_used : t -> int
val set_bin_count_used : t -> int -> unit

(** {2 Region offsets} *)

val wellknown_off : t -> int

val region_ring_capacity : t -> int
(** Ring slots per region ([committed_capacity / slb_regions]). *)

val committed_entry_off : t -> region:int -> int -> int
(** Offset of ring slot [i] of [region] (entries are 16 bytes: u32 txn,
    u32 first block+1, u32 commit sequence, 4 bytes pad). *)

val bin_info_off : t -> int -> int

val slb_blocks : t -> region:int -> Mrdb_hw.Stable_mem.Blocks.alloc
val page_pool : t -> Mrdb_hw.Stable_mem.Blocks.alloc
(** Block allocators over the per-region SLB stripes and the page-pool
    region.  Block ids are region-local.  Allocation maps are volatile;
    rebuild them after a crash from the recovered chain and bin state
    ({!Mrdb_hw.Stable_mem.Blocks.rebuild_after_crash}). *)
