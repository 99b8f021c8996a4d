(** Checkpoint image codec.

    A partition's checkpoint copy as stored on the checkpoint disk: the
    partition's byte snapshot together with its {e sequence watermark} (the
    per-partition log-record sequence current when the copy was taken,
    under the checkpoint's relation read lock).  Recovery applies only log
    records with seq > watermark, making replay idempotent across crashes
    that interleave with the checkpoint pipeline.

    Images are padded to whole disk pages ("partitions are written in whole
    tracks") and carry a CRC. *)

open Mrdb_storage

type t = {
  part : Addr.partition;
  watermark : int;
  snapshot : bytes;
      (** Holds the {!Partition.snapshot} image at
          [snapshot.[snapshot_pos .. snapshot_pos + snapshot_len)]: the
          whole buffer for an image built with {!make}, a window into the
          track buffer for a decoded one. *)
  snapshot_pos : int;
  snapshot_len : int;
}

val make : part:Addr.partition -> watermark:int -> snapshot:bytes -> t
(** An image of the whole [snapshot] buffer. *)

val encode : page_bytes:int -> t -> bytes
(** Page-multiple image ready for a track write. *)

val encode_into :
  page_bytes:int -> part:Addr.partition -> watermark:int -> snapshot:bytes ->
  bytes -> int
(** {!encode} into a caller-owned buffer, returning the page-rounded image
    length.  [snapshot] is only read, so it may be the partition's live
    backing buffer — the zero-copy checkpoint path encodes straight out of
    it instead of materializing a {!Mrdb_storage.Partition.snapshot}.
    @raise Invalid_argument when the buffer is smaller than the image. *)

val pages_needed : page_bytes:int -> snapshot_bytes:int -> int

val decode : bytes -> (t, string) result
(** Verify magic + CRC; tolerate trailing page padding.  The CRC runs in
    place and the result's snapshot is a window into the given buffer —
    nothing is copied, so the buffer must not be reused while the image
    is live. *)

val to_partition : t -> Partition.t
(** The partition the image holds: its snapshot window copied once, by
    {!Partition.of_snapshot}.
    @raise Mrdb_util.Fatal.Invariant on a corrupt partition image. *)
