(** System catalogs.

    The catalog stores one descriptor per relation: schema, owning segment,
    index descriptors, and "a list of partition descriptors that make up
    the relation ... each descriptor gives the disk location of the
    partition along with its current status (memory-resident or
    disk-resident)".

    The catalog is {e self-hosting}: every descriptor is an entity in the
    catalog's own segment (segment 0), so catalog updates generate ordinary
    partition log records and catalog partitions are checkpointed like any
    other (the paper checkpoints catalog partitions "in a manner similar to
    regular partitions", §2.4 step 5).  A distinguished descriptor named
    ["__catalog__"] covers the catalog segment itself, carrying the
    checkpoint locations of catalog partitions; the recovery component
    additionally mirrors those locations into a well-known stable-memory
    area so they can be found before any catalog has been decoded. *)

type index_kind = Ttree | Lhash

type index_desc = {
  idx_id : int;
  idx_name : string;
  kind : index_kind;
  key_column : int;
  idx_segment : int;
}

type partition_desc = private {
  part : Addr.partition;
  mutable ckpt_page : int;        (** first checkpoint-disk page; -1 = never checkpointed *)
  mutable ckpt_page_count : int;
  mutable resident : bool;  (** changed only through {!set_resident} *)
}
(** Read-only outside this module, so the per-segment residency counts
    ({!non_resident_in_segment}) cannot drift from the flags. *)

type rel_desc = {
  rel_id : int;
  rel_name : string;
  schema : Schema.t;
  rel_segment : int;
  mutable indices : index_desc list;
  mutable partitions : partition_desc list; (** tuple-segment AND index-segment partitions *)
}

type t

val catalog_segment_id : int
(** Always 0. *)

val create : partition_bytes:int -> log:Relation.log_sink -> t
(** Bootstrap a fresh catalog: creates segment 0 and the ["__catalog__"]
    descriptor (logged through [log]). *)

val segment : t -> Segment.t
(** The catalog's own segment. *)

val catalog_rel : t -> rel_desc

(** {2 Mutations (all logged through the sink argument)}

    Each change reaches the sink with its REDO image and a real UNDO
    before-image (the old bytes for an update, [Delete] for an insert,
    [Insert] of the old bytes for a delete), so a system transaction that
    fails part-way rolls the catalog segment back like any partition; the
    caller then {!reload}s the decoded state. *)

val create_relation : t -> log:Relation.log_sink -> name:string -> schema:Schema.t -> rel_desc * int
(** Returns the descriptor and the fresh segment id assigned to its tuples.
    @raise Invalid_argument on duplicate name. *)

val add_index :
  t -> log:Relation.log_sink -> rel:rel_desc -> name:string -> kind:index_kind ->
  key_column:int -> index_desc * int
(** Returns the descriptor and the fresh segment id assigned to the index.
    @raise Invalid_argument on duplicate index name or bad column. *)

val register_partition : t -> log:Relation.log_sink -> Addr.partition -> partition_desc
(** Record that a new partition now exists (descriptor starts disk-less and
    resident).  Attached to the relation owning the partition's segment.
    Idempotent: re-registering returns the existing descriptor.
    @raise Not_found when no relation owns the segment. *)

val set_ckpt_location : t -> log:Relation.log_sink -> Addr.partition -> page:int -> pages:int -> unit
(** Install a new checkpoint image location (the atomic catalog install of
    §2.4 step 6).  @raise Not_found for unregistered partitions. *)

val set_resident : t -> Addr.partition -> bool -> unit
(** Residency is volatile bookkeeping; not logged.  Keeps the
    per-segment counts of {!non_resident_in_segment} in step.
    @raise Not_found for unregistered partitions. *)

val non_resident_in_segment : t -> int -> int
(** Number of non-resident partition descriptors of a segment, in O(1):
    0 once every catalogued partition of the segment is in memory, and
    for a segment no relation owns.  {!decode_from_segment},
    {!set_resident}, {!register_partition} (whose descriptors start
    resident) and {!drop_relation} keep it equal to a count over the
    descriptors; a drop forgets its segments, so a segment id reused
    after restart starts at 0. *)

val resident_fraction : t -> float
(** Fraction of catalogued partitions currently memory-resident, from the
    counts above (1.0 for an empty catalog). *)

(** {2 Lookup} *)

val find_relation : t -> string -> rel_desc option
val find_relation_exn : t -> string -> rel_desc
val find_relation_by_id : t -> int -> rel_desc option
val drop_relation : t -> log:Relation.log_sink -> rel_desc -> unit
(** Remove a relation: its descriptor entity and every partition-descriptor
    entity of its tuple and index segments (all deletions logged, so the
    drop replays atomically with its transaction).
    @raise Invalid_argument when dropping ["__catalog__"]. *)

val relation_of_segment : t -> int -> rel_desc option
(** The relation owning a segment (its tuple segment or one of its index
    segments). *)

val partition_desc : t -> Addr.partition -> partition_desc option

val iter_relations : (rel_desc -> unit) -> t -> unit
(** Visits every relation (including ["__catalog__"]) in ascending
    [rel_id] order — checkpoint and restore schedules depend on the
    order being a pure function of the catalog contents (R8). *)

val fold_relations : (rel_desc -> 'a -> 'a) -> t -> 'a -> 'a
(** Same ascending-[rel_id] visit order as {!iter_relations}. *)

val relations : t -> rel_desc list
(** User relations (excludes ["__catalog__"]), in ascending [rel_id]
    order. *)

(** {2 Recovery} *)

val decode_from_segment : Segment.t -> t
(** Rebuild the in-memory catalog from a recovered catalog segment.  All
    partitions decode as non-resident except catalog partitions.
    @raise Failure on malformed entities. *)

val reload : t -> resident:(Addr.partition -> bool) -> unit
(** Rebuild the decoded state in place from the catalog segment, with
    {!decode_from_segment}'s loop: the abort path of a system transaction,
    after its UNDO has rolled the segment back.  [resident] gives each
    surviving partition descriptor its residency.  Descriptor records
    obtained before the call are stale afterwards. *)

val encode_rel : rel_desc -> bytes
val decode_rel : bytes -> rel_desc
(** Exposed for tests.  Relation descriptors are stored {e without} their
    partition lists: each partition descriptor is a separate, fixed-size
    catalog entity so that checkpoint-location installs log small records
    regardless of how many partitions a relation owns ([decode_rel] hence
    returns an empty [partitions] list). *)
