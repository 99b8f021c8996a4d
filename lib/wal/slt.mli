(** Stable Log Tail: the per-partition grouping engine of the recovery
    component.

    Running on the recovery CPU, the SLT: assigns bin-table indices to
    partitions; sorts committed REDO records from the {!Slb} into partition
    bins; seals and writes full bin pages to the duplexed log disk; tracks
    each partition's update count and first-LSN against the two checkpoint
    triggers ("partitions are checkpointed if they have accumulated a
    threshold count of log records ... or if they have old log information
    that is about to fall off the end of the log window"); and reassembles
    a partition's complete, ordered record stream at recovery time by
    hopping backward through log page directories and reading each span
    forward. *)

open Mrdb_storage

exception Bin_table_full of { partition : Addr.partition }
(** The stable bin table has no free slot for this partition: capacity
    exhaustion (raise the configured bin count), never corruption. *)

type trigger = Update_count | Age

type t

val create :
  layout:Stable_layout.t -> log_disk:Log_disk.t ->
  ?n_update:int -> ?age_grace_pages:int ->
  on_checkpoint_request:(Addr.partition -> trigger -> unit) -> unit -> t
(** [n_update] is the paper's N_update threshold (default 1000 records);
    [age_grace_pages] is the slack between the age trigger and actual
    window exhaustion (default window/8). *)

val recover :
  layout:Stable_layout.t -> log_disk:Log_disk.t ->
  ?n_update:int -> ?age_grace_pages:int ->
  on_checkpoint_request:(Addr.partition -> trigger -> unit) -> unit -> t
(** Re-attach after a crash: reload every bin from stable memory and
    rebuild the page-pool allocation map and first-LSN list from them. *)

val layout : t -> Stable_layout.t
val log_disk : t -> Log_disk.t
val n_update : t -> int

val set_recorder : t -> Mrdb_obs.Flight_recorder.t option -> unit
(** Attach a flight recorder: each sealed bin page then records a
    [Bin_flush] event.  [None] detaches. *)

val bin_index_of : t -> Addr.partition -> int
(** The partition's permanent bin-table index, allocating a slot on first
    use (the main CPU stamps this into each log record).
    @raise Failure when the bin table is full. *)

val find_bin : t -> Addr.partition -> Partition_bin.t option

val accept_raw : t -> bytes -> pos:int -> len:int -> unit
(** The sorting step: place one committed record frame — as handed out by
    {!Slb.drain_raw}, u16 header at [pos - 2] — into its bin, sealing and
    writing pages as they fill, and fire checkpoint triggers.  The record
    is neither decoded nor copied: the bin index and sequence watermark
    are peeked out of the encoding, and the frame lands in the bin buffer
    as one stable-memory write.  The frame must fit an empty log page,
    which {!Slb.Region.append} guarantees for every logged record.
    @raise Mrdb_util.Fatal.Invariant on an unknown bin index or a frame
    larger than a page's payload. *)

val flush_partition : t -> Addr.partition -> unit
(** Seal and write the partition's partial page, if any (checkpoint step 7
    and the age-trigger path). *)

val begin_checkpoint : t -> Addr.partition -> [ `Cut | `Nothing_to_cut | `Shadow_busy ]
(** Take the checkpoint cut at memory-copy time (atomically with reading
    the watermark): the bin's pre-copy records move to its shadow
    generation; see {!Partition_bin.begin_cut}. *)

val checkpoint_finished : t -> Addr.partition -> watermark:int -> unit
(** Invoked when a checkpoint transaction reaches the [finished] state,
    with the sequence watermark its image captured.  Normally this simply
    discards the bin's shadow generation (parked by {!begin_checkpoint});
    records that arrived after the cut stay in the live generation,
    recoverable on top of the new image.  When no cut exists (non-resident
    partition, or shadow left over from a crash-interrupted checkpoint),
    it falls back to a full reset if nothing newer than the watermark has
    reached the bin, and otherwise leaves the bin intact (the watermark
    filter neutralizes the stale prefix at replay). *)

val drop_partition : t -> Addr.partition -> unit
(** Partition de-allocated (relation dropped): release the bin's buffers
    and clear its slot.  Bin-table indices are not recycled within a run
    (the paper's "permanent entry" simplification). *)

val active_partitions : t -> Addr.partition list
(** Partitions with outstanding log information. *)

val oldest_first_lsn : t -> (int64 * Addr.partition) option

val window_pressure : t -> float
(** Fraction of the log window consumed by the oldest active partition
    (1.0 = about to fall off). *)

val frames_for_recovery :
  t -> Addr.partition -> ((Log_page.frames list, string) result -> unit) -> unit
(** Gather the partition's full record stream in original write order:
    disk pages (located via the directory spans, read oldest-span-first,
    with in-flight stable images overlaying unreadable slots) followed by
    the records still buffered in the bin — shadow pages, shadow buffer,
    live pages, live buffer.  Each element is one page's or one buffer's
    frames, undecoded: only page headers are read, for the LSN check and
    the directory walk.  Asynchronous: disk reads go through the
    simulated clock. *)

val pending_page_writes : t -> int
(** Seals issued whose disk writes have not yet completed. *)
