(** Page checksums.

    Every log page and checkpoint image carries a CRC so that recovery can
    detect torn or corrupted pages (the paper's "consistency check during
    recovery" on the partition address is strengthened to a whole-page
    check). *)

val crc32 : ?init:int32 -> bytes -> pos:int -> len:int -> int32
(** Standard CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of
    [b.[pos .. pos+len)].  [init] chains a previous result:
    [crc32 ~init:(crc32 a) b] is the CRC of [a] followed by [b].  Computed
    slice-by-8 (8 bytes per step; only the [int32] result is boxed),
    bit-exact with the byte-at-a-time definition for every [pos] and
    [len].
    @raise Invalid_argument on an out-of-bounds range. *)

val crc32_bytes : bytes -> int32
(** CRC-32 of an entire byte buffer. *)
