(** Stable Log Buffer: per-transaction REDO chains in stable memory.

    "Both the volatile UNDO space and the Stable Log Buffer are managed as
    a set of fixed-size blocks ... allocated to transactions on a demand
    basis ... critical sections are used only for block allocation — they
    are not a part of the log writing process itself.  Because of these
    separate lists, transactions do not have to synchronize with each other
    to write to the log", which removes the classical log-tail hot spot.

    The buffer is striped into [slb_regions] independent {e regions}, one
    per executor: each region has its own block allocator, its own
    uncommitted-chain table, its own committed ring stripe and its own
    scratch buffers, so executors never contend on append or commit.
    Commit stamps a global commit sequence number into the ring entry; the
    drain side merges the striped rings back into one stream ordered by
    that sequence, so {!Log_sorter} and everything behind it see exactly
    the commit-ordered stream of the single-region design.

    Chains live on one of two lists.  Commit moves a chain from the
    uncommitted to the {e committed} list — a stable ring written in commit
    order; appending that ring entry {e is} the commit point ("transactions
    can commit instantly — they do not need to wait until the REDO log
    records are flushed to disk").  The recovery CPU later drains committed
    chains into the Stable Log Tail ({!drain_raw}) and frees their blocks.

    After a crash, {!recover} rebuilds each region's block allocator from
    its committed ring stripe (uncommitted chains are garbage by
    definition) so the undrained records can still be sorted into bins. *)

type t

exception Slb_full
(** Raised when block or ring capacity is exhausted; the caller is expected
    to stall the writer until the recovery CPU drains. *)

exception Record_too_large of { bytes : int; limit : int }
(** A record's frame ([bytes], u16 header included) exceeds [limit], the
    smaller of an SLB block's payload and a log page's payload: the drain
    could never place it.  Raised by {!Region.append} before anything is
    written, so the transaction aborts cleanly; capacity exhaustion (raise
    the block or page size), never corruption. *)

val create : Stable_layout.t -> t
(** Fresh SLB over a fresh layout (zeroes volatile chain state only); one
    region per [slb_regions] in the layout's configuration. *)

val recover : Stable_layout.t -> t
(** Re-attach after a crash: scan each region's committed ring stripe,
    mark reachable blocks live, discard uncommitted chains. *)

val set_recorder : t -> Mrdb_obs.Flight_recorder.t option -> unit
(** Attach a flight recorder: every append then records an [Slb_append]
    event carrying the owning region id (five array stores —
    bench/hotpath.ml's [append_obs] bounds the cost).  [None] detaches;
    the recorder is shared by all regions. *)

(** Per-region operations — the striped API.  An executor only touches
    its own region: [Db_system] appends through the transaction's
    executor id. *)
module Region : sig
  type t

  val id : t -> int

  val append : t -> txn_id:int -> Log_record.t -> unit
  (** Add a REDO record to the transaction's (uncommitted) chain in this
      region.  The frame (u16 length + record) is composed in a reusable
      per-region scratch buffer and lands in stable memory as exactly one
      write — the steady-state append path allocates nothing.
      @raise Record_too_large when the frame exceeds an SLB block's or a
      log page's payload; nothing has been written.
      @raise Slb_full when the region has no free block. *)

  val commit : t -> txn_id:int -> unit
  (** Move the chain to this region's committed ring (the commit point),
      stamped with the next global commit sequence number.  A transaction
      with no records commits trivially without a ring entry.  Group
      commit calls this late, at the group flush: the chain has sat in
      stable memory as an uncommitted chain since the appends, so only
      the ring entry is deferred.
      @raise Slb_full when the region's ring stripe is full. *)

  val abort : t -> txn_id:int -> unit
  (** Discard the transaction's chain and free its blocks. *)

  val pending_committed : t -> int
  val uncommitted_count : t -> int
  val blocks_free : t -> int

end

val region : t -> int -> Region.t
(** The region owned by executor [i].
    @raise Invalid_argument when out of range. *)

(** {2 Whole-buffer surface}

    Queries that aggregate or search across all regions.  System
    transactions and the boot path log through region 0
    ([region t 0]). *)

val abort : t -> txn_id:int -> unit
(** Discard the transaction's chain whichever region holds it. *)

val pending_committed : t -> int
(** Committed transactions not yet drained, all regions. *)

val uncommitted_count : t -> int
val blocks_free : t -> int

val drain_raw : t -> f:(txn_id:int -> bytes -> pos:int -> len:int -> unit) -> int
(** Process every pending committed chain across all regions in global
    commit-sequence order: repeatedly pick the region whose oldest
    undrained entry has the smallest sequence, stream its record frames
    (oldest first) through [f], free the blocks, advance that region's
    ring head.  Returns the number of transactions drained.

    [f] receives each encoded record in place inside a per-region read
    buffer — valid only for the duration of the call, with the u16 frame
    header guaranteed at [pos - 2] (so a consumer may forward the whole
    [len + 2]-byte frame verbatim, e.g. {!Partition_bin.append_raw}).
    Nothing is decoded and nothing is allocated per record: this is the
    zero-copy drain path ({!Log_record.peek_bin_index} and [peek_seq]
    extract routing fields without materializing records).

    Reentrant calls (possible when [f] suspends on log-disk backpressure
    and the event loop runs another commit) return 0 immediately; the
    outer drain picks up anything committed meanwhile. *)
