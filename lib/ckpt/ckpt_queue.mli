(** Checkpoint request communication buffer.

    "The recovery CPU issues a checkpoint request containing a partition
    address and a status flag in the Stable Log Buffer ... initially this
    flag is in the request state; it changes to the in-progress state while
    the checkpoint is running, and it finally reaches the finished state
    after the checkpoint transaction commits."

    The main CPU polls this queue between transactions.  Only the catalog
    install and the sequence watermark are correctness-critical across a
    crash (both are stable elsewhere); the queue itself is rebuilt by the
    triggers re-firing, so it is kept as an ordinary bounded structure. *)

open Mrdb_storage

type reason = Update_count | Age

type status = Requested | In_progress | Finished

type entry = {
  part : Addr.partition;
  reason : reason;
  mutable status : status;
}

type t

val create : ?capacity:int -> unit -> t

val request : t -> Addr.partition -> reason -> bool
(** Enqueue a request; false when the queue is full or the partition is
    already queued (not yet finished). *)

val next_requested : t -> entry option
(** Oldest entry still in [Requested] state, marking it [In_progress]. *)

val defer : t -> Addr.partition -> unit
(** Put an in-progress entry back to [Requested] (the checkpoint could not
    get its relation read lock; retry on the next poll). *)

val finish : t -> Addr.partition -> unit
(** Mark the partition's in-progress entry [Finished] and retire it.
    @raise Not_found when the partition has no in-progress entry. *)

val cancel : t -> Addr.partition -> unit
(** Drop any entry for the partition (e.g. partition deallocated). *)

val pending : t -> int
(** Entries not yet finished. *)
