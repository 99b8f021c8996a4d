(** Fixed-size bitset.

    Tracks slot occupancy in partitions and free/used state in the
    checkpoint-disk allocation map. *)

type t

val create : int -> t
(** [create n] is a set over [\[0, n)], all bits clear. *)

val length : t -> int
val set : t -> int -> unit
val clear : t -> int -> unit
val mem : t -> int -> bool
val cardinal : t -> int
(** Number of set bits (cached; O(1)). *)

val first_clear : t -> int option
(** Lowest clear bit, if any. *)

val first_clear_from : t -> int -> int option
(** Lowest clear bit at or after the given index, wrapping around to 0 —
    the scan order of a pseudo-circular allocator. *)

val copy : t -> t
val reset : t -> unit
