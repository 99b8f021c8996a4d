(** Fixed-size partition: the unit of memory allocation, checkpointing and
    recovery.

    "Segments are composed of one or more fixed-size partitions ...
    Partitions represent a complete unit of storage; database entities
    (tuples or index components) are stored in partitions and do not cross
    partition boundaries.  Partitions are also used as the unit of transfer
    to disk in checkpoint operations."

    Internally a partition is one [bytes] buffer laid out as a slotted
    page: a header, a slot directory growing up, and an entity heap (the
    paper's "string space", managed as a heap and not two-phase locked)
    growing down.  Entity addresses use the {e slot index}, which is stable
    under compaction, so a checkpoint copy is literally [Bytes.copy] — the
    paper's "copy the partition at memory speeds".

    All mutating operations are expressed so that replaying them (via the
    [*_at] forms carrying explicit slots) against the checkpoint image
    reproduces the exact byte state — the REDO property the Stable Log Tail
    relies on.

    Besides the buffer, a partition keeps two volatile summaries of its
    slot directory, rebuilt by {!of_snapshot} and never written into the
    byte image:
    - a lower bound on the lowest free slot: every slot below it is live.
      {!insert} starts its free-slot scan there and every mutating
      operation keeps the bound (a delete lowers it to the freed slot);
    - the sum of live entity lengths, so {!free_space} and the room test
      before an allocation cost O(1).

    Neither changes the byte image or the slot {!insert} picks (still the
    lowest free slot), so log records and checkpoint images are the same
    as with a full directory scan. *)

type t

exception No_space of { partition : Addr.partition; needed : int }
(** Capacity exhaustion: the entity does not fit even after compaction.
    Callers (relation update, catalog store, index component write) catch
    this to relocate; it is never a corruption signal — those raise
    {!Mrdb_util.Fatal.Invariant}. *)

val header_bytes : int
val slot_entry_bytes : int

val create : size:int -> segment:int -> partition:int -> t
(** Fresh empty partition.  [size] must be at least 256 bytes. *)

val size : t -> int
val segment_id : t -> int
val partition_id : t -> int
val address : t -> Addr.partition

val live_entities : t -> int
val slot_count : t -> int
(** Slot-directory length (includes free slots). *)

val free_space : t -> int
(** Bytes available for new entity data (after compaction; the insert path
    compacts automatically when fragmentation blocks an otherwise-fitting
    allocation).  O(1): read from the live-length sum. *)

(** {2 Normal-path operations (choose their own slot)} *)

val insert : t -> bytes -> int option
(** [insert t entity] stores the entity and returns its slot, or [None]
    when the partition cannot hold it.  Slot choice is deterministic
    (lowest free slot), so a log-driven replay of inserts allocates
    identically.  The scan starts at the free-slot bound, so filling a
    partition costs O(1) per insert. *)

(** {2 Replay-path operations (explicit slot, used by REDO)} *)

val insert_at : t -> slot:int -> bytes -> pos:int -> len:int -> unit
(** [insert_at t ~slot src ~pos ~len] stores [src.[pos .. pos+len)] at
    [slot].  The source is read in place, so replay blits an entity
    straight out of a log-page buffer.
    @raise Mrdb_util.Fatal.Invariant if the slot is occupied.
    @raise No_space when space is exhausted. *)

val update_at : t -> slot:int -> bytes -> pos:int -> len:int -> unit
(** Replace the entity at [slot] with [src.[pos .. pos+len)] (any size,
    reallocating in the heap).
    @raise Mrdb_util.Fatal.Invariant if the slot is free.
    @raise No_space when space is exhausted. *)

val delete_at : t -> slot:int -> unit
(** @raise Failure if the slot is already free. *)

(** {2 Reads} *)

val read : t -> slot:int -> bytes option
(** Copy of the entity at [slot]; [None] when free or out of range. *)

val read_with : t -> slot:int -> alloc:(int -> bytes) -> bytes option
(** {!read} into a caller-supplied buffer source — the transaction arena
    stages before-images through this without a fresh [bytes] per read.
    [alloc] must return a buffer of exactly the requested length. *)

val read_exn : t -> slot:int -> bytes
val is_live : t -> slot:int -> bool
val iter : (int -> bytes -> unit) -> t -> unit
(** All live entities in slot order. *)

val fold : ('a -> int -> bytes -> 'a) -> 'a -> t -> 'a

(** {2 Checkpoint / recovery} *)

val snapshot : t -> bytes
(** Byte image of the whole partition (a checkpoint copy). *)

val unsafe_raw : t -> bytes
(** The partition's backing buffer itself, no copy.  Strictly read-only
    for the caller, and only valid until the next mutating operation on
    the partition — the checkpoint manager encodes its disk image straight
    out of this under the checkpoint's relation lock, where no simulated
    time passes before the bytes are captured. *)

val of_snapshot : ?pos:int -> ?len:int -> bytes -> t
(** Rebuild a partition from the checkpoint image at [b.[pos .. pos+len)]
    (default: all of [b]).  The image is copied once, into the partition;
    the restart path hands in the checkpoint track buffer itself.
    @raise Failure on bad magic or corrupt header. *)

val compact : t -> unit
(** Force heap compaction (normally automatic). *)

val equal_contents : t -> t -> bool
(** Same live slots with identical entity bytes (ignores physical layout —
    two partitions that differ only in heap placement are equal). *)

val pp : Format.formatter -> t -> unit
