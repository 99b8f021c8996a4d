(** On-disk log page format.

    Each page carries: the owning partition's address ("the entry serves as
    a consistency check during recovery so that the recovery manager can be
    assured of having the correct page"), its LSN, a backward link to the
    partition's previous log page, an optional embedded {e log page
    directory} (the LSNs of the previous directory-span of pages — stored
    "in every Nth log page" so recovery can locate whole spans with one
    read and then fetch their pages in the order they must be applied), the
    u16-framed REDO records, and a trailing CRC-32. *)

open Mrdb_storage

type header = {
  lsn : int64;
  part : Addr.partition;
  prev_lsn : int64;        (** -1 when this is the partition's first page *)
  dir : int64 array;       (** LSNs of the previous span, oldest first; [||] on non-directory pages *)
  nrecords : int;
  used : int;              (** payload bytes *)
}

val payload_off : dir_size:int -> int
val payload_capacity : page_bytes:int -> dir_size:int -> int
(** Bytes available for framed records. *)

val build :
  page_bytes:int -> dir_size:int -> lsn:int64 -> part:Addr.partition ->
  prev_lsn:int64 -> dir:int64 array -> payload:bytes -> nrecords:int -> bytes
(** Compose a full page image (payload = used bytes of framed records).
    @raise Invalid_argument when the payload or directory exceed capacity. *)

val prepare_into :
  dir_size:int -> lsn:int64 -> part:Addr.partition -> prev_lsn:int64 ->
  dir:int64 array -> used:int -> nrecords:int -> bytes -> unit
(** Write a page header into a caller-owned page buffer (its length is
    the page size): zeroes the buffer, writes the header, leaves the payload region
    for the caller to blit before {!finish}.  The hot seal path reuses one
    such buffer per bin so the steady state allocates no page images.
    @raise Invalid_argument when [used] or the directory exceed capacity. *)

val finish : bytes -> unit
(** Stamp the trailing CRC-32 over a {!prepare_into}d page once its
    payload is in place.  [build] is [prepare_into; blit; finish]
    byte-for-byte. *)

val verify : page_bytes:int -> bytes -> bool
(** Size + magic + CRC check only, no decoding — the acceptance predicate
    duplexed reads use to decide whether a mirror's copy is intact
    ({!Mrdb_hw.Duplex.read_page}'s [verify]). *)

(** A run of u16-framed REDO records, read in place: the payload region
    of a verified page image, or a copy of a bin buffer.  The recovery
    read path hands these to the replay kernel instead of decoded
    records. *)
type frames = { buf : bytes; pos : int; len : int }

val decode :
  page_bytes:int -> dir_size:int -> bytes -> (header * frames, string) result
(** Decode the header of a page that {!verify} has already accepted,
    without checking its CRC again: the log-disk read path checksums each
    page exactly once, at the duplex level.  The records are not decoded;
    the returned frames point into the image.  The image must be
    [page_bytes] long.  [Error] reports a directory or payload overflow. *)

val parse :
  page_bytes:int -> dir_size:int -> bytes -> (header * frames, string) result
(** {!verify} then {!decode}, for images no duplex read has checked (the
    stable-memory shadow of an in-flight page, a standby's raw peeks).
    [Error] explains the mismatch (torn page, wrong partition slot reuse,
    etc.). *)

val iter_frames : frames -> f:(bytes -> pos:int -> len:int -> unit) -> unit
(** Hand each framed record to [f] as ([buf], offset of the encoded
    record, its length), in order — no decoding, no copies.
    @raise Mrdb_util.Fatal.Invariant when a frame overruns the run. *)
