(** Stable reliable memory.

    The paper's enabling hardware: "a few megabytes" of memory that is both
    stable (survives power loss) and reliable (protected from wild writes),
    at read/write performance two to four times slower than regular memory.
    It hosts the Stable Log Buffer and the Stable Log Tail.

    This model keeps a real byte array that {e survives [crash]}, counts
    accesses (so performance models can charge the slowdown), and hands out
    fixed-size blocks through a simple allocator — the paper manages both
    the SLB and the UNDO space "as a set of fixed-size blocks". *)

type t

val create : ?slowdown:float -> size:int -> unit -> t
(** [slowdown] is the access-time multiplier vs regular memory
    (paper: 2–4×; default 4). *)

val size : t -> int
val slowdown : t -> float

(** {2 Raw byte access} *)

val write : t -> off:int -> bytes -> unit
val write_sub : t -> off:int -> bytes -> pos:int -> len:int -> unit
val read : t -> off:int -> len:int -> bytes
val blit_out : t -> off:int -> bytes -> pos:int -> len:int -> unit
val fill : t -> off:int -> len:int -> char -> unit

val get_u32 : t -> off:int -> int
val put_u32 : t -> off:int -> int -> unit
val get_i64 : t -> off:int -> int64
val put_i64 : t -> off:int -> int64 -> unit

(** {2 Crash semantics} *)

val crash : t -> unit
(** A system crash: stable memory {e retains} its contents; only the access
    statistics note the event.  (Contrast {!Volatile.crash}.) *)

val bytes_read : t -> int
val bytes_written : t -> int
(** Access accounting for the performance model. *)

(** {2 Fault injection (lib/fault and tests only — enforced by lint R9)} *)

type fault_hook = { on_write : off:int -> len:int -> unit }
(** Observation hook on every mutation (one branch on the logging hot
    path when installed; zero-cost [None] check otherwise).  Every
    mutator ([write], [write_sub], [fill], [put_u32], [put_i64]) calls it
    before its store, so a hook that raises at the k-th call models a
    crash just before write k, and a run to completion covers the state
    after the last write. *)

val set_fault_hook : t -> fault_hook option -> unit

val corrupt : t -> off:int -> len:int -> unit
(** Flip (XOR 0xFF) [len] bytes at [off] — simulated bit rot behind the
    wild-write protection.  Does not count as an access. *)

(** {2 Fixed-size block allocator}

    Blocks are identified by index; allocation and free are the only
    critical sections in the paper's log-writing path. *)
module Blocks : sig
  type alloc

  val create : t -> region_off:int -> block_bytes:int -> count:int -> alloc
  (** Carve [count] blocks of [block_bytes] out of the stable memory
      starting at [region_off].
      @raise Invalid_argument if the region exceeds the memory size. *)

  val block_bytes : alloc -> int
  val count : alloc -> int
  val free_count : alloc -> int

  val alloc : alloc -> int option
  (** A free block index, or [None] when exhausted. *)

  val free : alloc -> int -> unit
  (** @raise Invalid_argument when the block is not currently allocated. *)

  val offset_of_block : alloc -> int -> int
  (** Byte offset of a block inside the stable memory. *)

  val is_allocated : alloc -> int -> bool

  val rebuild_after_crash : alloc -> live:int list -> unit
  (** Recovery: mark exactly [live] as allocated, everything else free.
      The block map itself is volatile bookkeeping; the paper's recovery
      manager reconstructs it from the committed-transaction list. *)
end
