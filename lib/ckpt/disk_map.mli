(** Checkpoint-disk allocation map with pseudo-circular allocation.

    "Checkpoint images are simply written to the first available location
    on the checkpoint disks ... the disks holding partition checkpoint
    images are organized in a pseudo-circular queue.  Frequently updated
    partitions will periodically get written to new checkpoint disk
    locations, but read-only or infrequently updated partitions may stay in
    one location for a long time.  (We use a pseudo-circular queue rather
    than a real circular queue so that partitions that are rarely
    checkpointed don't move and are skipped over as the head of the queue
    passes by.)  New checkpoint copies of partitions never overwrite old
    copies."

    The map tracks page runs (a partition image occupies a contiguous run).
    The state is {e derivable}: at recovery it is rebuilt from the
    catalog's checkpoint locations, so it needs no stable storage of its
    own. *)

type t

val create : capacity_pages:int -> t

val capacity_pages : t -> int
val used_pages : t -> int
val head : t -> int
(** Current scan position of the pseudo-circular queue. *)

val allocate : t -> pages:int -> int option
(** First free run of [pages] contiguous pages at or after the head
    (wrapping, skipping over live images); advances the head past the
    allocation.  [None] when no such run exists. *)

val release : t -> page:int -> pages:int -> unit
(** Free a run (the old image, after the new one is installed).
    @raise Invalid_argument when any page in the run is not allocated. *)

val is_used : t -> page:int -> bool

val rebuild : t -> (int * int) list -> unit
(** Clear and re-mark from (page, pages) runs — from catalog descriptors. *)
