(** Logical segment: a growable collection of fixed-size partitions.

    "Every database object (relation, index, or system data structure) is
    stored in its own logical segment."  Partition numbers are dense within
    the segment; allocation is append-only (partition de-allocation keeps a
    tombstone so numbers are never recycled within a run, which keeps
    partition-bin indices unambiguous). *)

type t

val create : id:int -> partition_bytes:int -> t

val id : t -> int
val partition_bytes : t -> int
val partition_count : t -> int
(** Includes de-allocated slots. *)

val allocate_partition : t -> Partition.t
(** New empty partition with the next partition number. *)

val find : t -> int -> Partition.t option
val find_exn : t -> int -> Partition.t
(** @raise Not_found for missing/de-allocated partitions. *)

val deallocate : t -> int -> unit
(** @raise Not_found when absent. *)

val install : t -> Partition.t -> unit
(** Install a recovered partition under its own number (recovery path);
    grows the slot table as needed.
    @raise Invalid_argument if the partition belongs to another segment. *)

val reserve : t -> int -> unit
(** [reserve s pno] marks partition number [pno] as existing-but-evicted
    (unless already live).  Recovery uses this to claim the partition
    numbers the catalog says exist before any fresh allocation happens —
    otherwise a post-crash insert could allocate a number that still
    belongs to a not-yet-recovered partition. *)

val is_resident : t -> int -> bool
(** A partition is resident when its memory copy is installed. *)

val evict : t -> int -> unit
(** Drop the memory copy but keep the number allocated (crash simulation:
    memory lost, identity retained in catalogs). *)

val iter : (Partition.t -> unit) -> t -> unit
val fold : ('a -> Partition.t -> 'a) -> 'a -> t -> 'a
val partitions : t -> Partition.t list

(** Entity-level helpers addressing through the segment. *)

val insert_entity : t -> bytes -> Addr.t option
(** Store in the last partition with room, allocating a new partition when
    needed; [None] only if the entity exceeds the partition capacity. *)

val read_entity : t -> Addr.t -> bytes option

(** {!read_entity} into a caller-supplied buffer source (see
    {!Partition.read_with}); the write path reads before-images through
    the transaction arena with this. *)
val read_entity_with : t -> Addr.t -> alloc:(int -> bytes) -> bytes option
val update_entity : t -> Addr.t -> bytes -> unit
val delete_entity : t -> Addr.t -> unit
(** @raise Failure / [Not_found] on bad addresses.  [update_entity] falls
    back to delete+reinsert in another partition only via callers that
    understand address changes; here it requires in-partition room. *)
