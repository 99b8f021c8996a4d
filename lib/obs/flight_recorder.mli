(** Flight recorder: a fixed-size ring of typed events stamped with the
    simulated clock.

    Cheap enough to stay on everywhere — including the torture campaign
    and the logging hot path: recording an event is five array stores into
    preallocated parallel arrays (no allocation, no simulated time).  When
    a torture seed fails, the last ~200 events are dumped next to the
    [MRDB_TORTURE_SEED] replay line, turning "state diverged after
    recovery #3" into an inspectable history of what the machine was doing
    when it died.

    The decoded {!event} view is only materialized by the read side
    ({!events} / {!dump} / {!Export}); strings carried by rare events
    (fault kinds, recovery phases) are interned into a side table so the
    record path itself stays flat. *)

type t

(** Decoded event (read side). *)
type event =
  | Txn_begin of { txn : int; exec : int }
  | Txn_commit of { txn : int; exec : int }
  | Txn_abort of { txn : int; exec : int }
  | Slb_append of { txn : int; bytes : int; exec : int }
      (** [exec] is the id of the executor the event originated on (the
          SLB region id for appends); 0 for system transactions. *)
  | Sorter_drain of { txns : int; records : int }
  | Bin_flush of { segment : int; partition : int }
  | Ckpt_trigger of { segment : int; partition : int; by_age : bool }
  | Crash
  | Fault of string  (** injected fault, by its [fault_*] counter name *)
  | Partition_restored of { segment : int; partition : int; records : int }
  | Phase of string  (** recovery phase transition *)

val create : ?capacity:int -> now:(unit -> float) -> unit -> t
(** [capacity] (default 4096) is the ring size in events; [now] supplies
    the simulated clock in µs and must not perturb it. *)

(** {2 Recording} (allocation-free) *)

val txn_begin : t -> txn:int -> exec:int -> unit
val txn_commit : t -> txn:int -> exec:int -> unit
val txn_abort : t -> txn:int -> exec:int -> unit
val slb_append : t -> txn:int -> bytes:int -> exec:int -> unit
val sorter_drain : t -> txns:int -> records:int -> unit
val bin_flush : t -> segment:int -> partition:int -> unit
val ckpt_trigger : t -> segment:int -> partition:int -> by_age:bool -> unit
val crash : t -> unit
val fault : t -> kind:string -> unit
val partition_restored : t -> segment:int -> partition:int -> records:int -> unit
val phase : t -> string -> unit

(** {2 Reading} *)

val capacity : t -> int

val recorded : t -> int
(** Total events ever recorded (≥ the number still in the ring). *)

val events : ?limit:int -> t -> (float * event) list
(** The retained events, oldest first, each with its µs timestamp;
    [limit] keeps only the newest that many. *)

val dump : ?limit:int -> Format.formatter -> t -> unit
(** Human-readable dump, oldest first (default limit 200). *)

val pp_event : Format.formatter -> event -> unit

val clear : t -> unit
