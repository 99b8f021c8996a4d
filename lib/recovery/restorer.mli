(** The restoring half of the recovery component (§2.5, §2.6).

    Everything that brings partitions back into volatile memory after a
    crash: reading checkpoint images (with transparent archive fallback on
    media failure), replaying each partition's log-record stream above its
    image watermark, restoring whole segments, the restart-time catalog
    bootstrap from the well-known area, and the low-priority background
    sweep that restores whatever transactions have not yet touched. *)

open Mrdb_storage

type t

val create :
  env:Recovery_env.t ->
  slt:Mrdb_wal.Slt.t ->
  cat:Catalog.t ->
  seq:int Addr.Partition_table.t ->
  segments:(int, Segment.t) Hashtbl.t ->
  t
(** [seq] and [segments] are the volatile per-partition sequence counters
    and segment table shared with the transaction facade; restores update
    both. *)

val segment_of : t -> int -> Segment.t
(** The segment runtime for [seg_id], creating it (and reserving all
    catalogued partition numbers) on first touch. *)

type replayed = {
  max_seq : int;  (** highest sequence number seen, or the watermark *)
  frames : int;   (** records walked, skipped ones included *)
  applied : int;  (** records applied (those above the watermark) *)
}

val replay :
  partition:Partition.t ->
  ?rel:Relation.t Lazy.t ->
  watermark:int ->
  Mrdb_wal.Log_page.frames list ->
  replayed
(** The REDO kernel shared by every replay path: walk the frames in
    stream order straight from the page bytes and apply each record with
    [seq > watermark] to the partition.  Records at or below the
    watermark are skipped on their peeked sequence number, undecoded; so
    is a record that repeats its transaction's run in the stream (same
    txn id, [seq] at or below the run's top) — the second copy a crash
    mid-drain leaves — so each record applies exactly once.
    Physical records apply in place, their entities blitted from the page
    ({!Part_op.apply_encoded}); logical command records are decoded in
    place and go through {!Mrdb_logical.Replay} — against the relation
    layer when [rel] is supplied (restart recovery builds one from the
    catalog schema; it is forced on the first applied command), else as
    schema-free partition-cell patches.  Reused by the warm-standby audit
    ({!Mrdb_replica}), which replays the standby's own log pages onto
    rebuilt partitions exactly as restart replay does onto restored ones
    (no [rel]: a standby audits without catalog access).
    @raise Mrdb_util.Fatal.Invariant on a malformed frame or a record
    that does not fit the partition state. *)

val ensure_partition : t -> Addr.partition -> unit
(** Restore the partition if it is not memory-resident: checkpoint image
    and log stream are fetched in parallel (different disks), records with
    [seq > watermark] replayed in original order.
    @raise Mrdb_util.Fatal.Invariant when the partition is not catalogued,
    its durable state is unreadable and unarchived, or its checkpoint
    image belongs to another partition. *)

val ensure_segment : t -> int -> unit
(** Restore every catalogued partition of a segment.  O(1) when the
    segment is already resident ({!Catalog.non_resident_in_segment}). *)

val background_step : t -> bool
(** Restore one more not-yet-resident partition (the paper's low-priority
    background sweep), lowest address first; [false] when the database is
    fully resident.  The pick comes from a per-restorer queue built on the
    first step, so a step does not rescan the catalog. *)

val sweep : t -> unit
(** Drain the background sweep. *)

val restore_catalog :
  Recovery_env.t ->
  slt:Mrdb_wal.Slt.t ->
  entries:Wellknown.entry list ->
  Segment.t * (Addr.partition * int) list
(** Restart-time bootstrap: restore each catalog partition named by the
    well-known area into a fresh catalog segment, through the same
    image ∥ log kernel as {!ensure_partition}.  Returns the segment and
    each partition's recovered sequence watermark.
    @raise Mrdb_util.Fatal.Invariant when an entry's durable state is
    unreadable and unarchived, or its checkpoint image belongs to another
    partition. *)

val drop_uncatalogued_bins : slt:Mrdb_wal.Slt.t -> cat:Catalog.t -> unit
(** Orphan bins: a crash between a [drop_relation]'s catalog commit and
    its resource reclamation leaves bins whose partitions no longer exist;
    finish the reclamation. *)
