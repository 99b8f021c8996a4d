(** Simulated disk drive.

    Reproduces the disk assumptions of §3.1:

    - a two-head-per-surface, high-performance drive with {e relatively low
      seek times}; the checkpoint disks see average seeks while successive
      log-page operations on the log disk see shorter "sibling" seeks;
    - log-disk sectors are {e interleaved}: logically adjacent sectors are
      physically one apart, giving the electronics a full sector time to
      set up the next single-page write, so back-to-back page writes incur
      one extra sector-pass each rather than a full revolution;
    - partitions are written in {e whole tracks} at double the single-page
      transfer rate.

    The drive stores real bytes per page: recovery reads back exactly what
    was written, and a crash loses nothing that completed.  Requests are
    serviced strictly FIFO (the recovery CPU "needs to do little more than
    append a disk write request to the disk device queue").

    Reads deliver a [result]: real drives return transient errors and media
    failures through the same completion path as data, and the resilience
    layers above (duplexing, checksum-verified log reads) are exercised
    only if the error is a value, not an exception escaping a completion
    continuation.  Faults never occur unless a {!fault_hook} is installed
    or {!fail}/{!corrupt_page} is called — the healthy path is
    deterministic and byte-identical to a fault-free drive. *)

type params = {
  page_bytes : int;        (** sector/page size (the paper's log page) *)
  pages_per_track : int;
  seek_avg_us : float;     (** average seek (checkpoint-style access) *)
  seek_near_us : float;    (** short seek between sibling log pages *)
  settle_us : float;       (** per-operation head-settle / setup time *)
  page_transfer_us : float;(** transfer time of one page, single-page mode *)
  interleaved : bool;      (** log-disk sector interleave *)
}

val default_log_params : page_bytes:int -> params
(** 1987-class drive tuned for log traffic (short seeks, interleave). *)

val default_ckpt_params : page_bytes:int -> params
(** Same drive, checkpoint usage (average seeks, whole-track writes). *)

type t

val create : ?name:string -> Mrdb_sim.Sim.t -> params:params -> capacity_pages:int -> t

val name : t -> string
val params : t -> params
val capacity_pages : t -> int

(** {2 Timed interface (goes through the simulated clock)} *)

val write_page : t -> page:int -> bytes -> (unit -> unit) -> unit
(** Queue a single-page write; the continuation fires when durable.
    @raise Invalid_argument on bad page index or wrong buffer size. *)

val read_page : t -> page:int -> ((bytes, string) result -> unit) -> unit
(** Queue a single-page read; the continuation receives a copy, or [Error]
    on an injected transient error or a failed drive. *)

val write_track : t -> first_page:int -> bytes -> (unit -> unit) -> unit
(** Whole-track (or shorter) multi-page write at track transfer rate; the
    buffer length must be a multiple of the page size. *)

val read_track :
  t -> first_page:int -> pages:int -> ((bytes, string) result -> unit) -> unit

val queue_depth : t -> int
(** Requests accepted but not yet completed. *)

val crash_queue : t -> unit
(** Crash semantics: drop every queued and in-service request without
    applying it — a write that had not completed is not durable.  Media
    contents are untouched, except that an installed {!fault_hook} may
    declare the in-service write {e torn}: a prefix of its bytes reached
    the platters.  Use together with {!Mrdb_sim.Sim.clear} so the orphaned
    completion events are discarded too (or use {!Crash.machine}). *)

val busy_until : t -> float

(** {2 Fault injection (lib/fault and tests only — enforced by lint R9)} *)

type fault_hook = {
  on_read : page:int -> string option;
      (** Consulted once per read operation at completion time; [Some msg]
          turns that read into [Error msg] (transient: the op is not
          retried by the drive — the caller decides). *)
  on_crash_tear : page:int -> len:int -> int option;
      (** Consulted by {!crash_queue} for the write under service; [Some
          keep] applies exactly the first [keep] bytes to the media (a torn
          write). *)
}

val set_fault_hook : t -> fault_hook option -> unit

val fail : t -> unit
(** Media failure: subsequent reads complete with [Error], writes complete
    without touching the media (the electronics still answer — a duplexed
    write never hangs on a dead mirror). *)

val failed : t -> bool

val corrupt_page : t -> page:int -> at:int -> len:int -> unit
(** Latent sector corruption: flip (XOR 0xFF) [len] bytes at offset [at]
    of the page's media content, untimed.  An unwritten page is corrupted
    starting from zeros.
    @raise Invalid_argument on a bad range. *)

(** {2 Untimed inspection and installation (tests, crash-state capture,
    replication apply)} *)

val peek_page : t -> page:int -> bytes option
(** Contents of a page if it has ever been written (copy). *)

val install_page : t -> page:int -> bytes -> unit
(** Install a page image directly onto the media, untimed and atomic —
    the replication apply path ({!Mrdb_replica}): a CRC-verified shipped
    batch lands on the standby's devices between simulated events, so a
    crash bomb can never observe a half-applied batch.  No-op on a failed
    drive.  @raise on bad page index or wrong buffer size. *)

val is_written : t -> page:int -> bool

val stats_ops : t -> int
val stats_pages_written : t -> int
val stats_pages_read : t -> int
val stats_busy_us : t -> float
