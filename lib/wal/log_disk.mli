(** Duplexed log disk with a finite, reusable {e log window}.

    "The available log space remains constant, and it is reused over time
    ... The log window is a fixed amount of log disk space that moves
    forward through the total disk space as new log pages are written."
    LSNs increase monotonically (the counter lives in stable memory); page
    LSN [l] occupies disk page [l mod window_pages], so a page's slot is
    overwritten exactly when the window has advanced a full lap past it.

    Reads are checksum-verified {e at the duplex level}: a copy failing the
    CRC is retried once and then the other mirror is consulted, so a single
    corrupt or torn copy is invisible to callers.  Only a page bad on every
    mirror, a slot legitimately reused by a younger page, or an
    out-of-window request surfaces as a structured {!read_error}. *)

type t

(** Why a log-page read produced no usable page. *)
type read_error =
  | Out_of_window of { lsn : int64; window_start : int64; next_lsn : int64 }
      (** Never written, or already lapped by the moving window. *)
  | Stale_slot of { wanted : int64; found : int64 }
      (** The slot holds an intact {e younger} page — the window advanced
          past [wanted] (archive territory, §2.6). *)
  | Unreadable of { lsn : int64; reason : string }
      (** No mirror could produce an intact copy: media failure, latent
          corruption on both copies, or a torn tail page after a crash. *)

val read_error_to_string : read_error -> string

val create :
  Mrdb_sim.Sim.t -> layout:Stable_layout.t -> ?params:Mrdb_hw.Disk.params ->
  ?trace:Mrdb_sim.Trace.t -> window_pages:int -> unit -> t
(** [params] defaults to {!Mrdb_hw.Disk.default_log_params} at the layout's
    log page size.  [trace] receives the duplex resilience counters
    (retries, fallbacks, degraded writes); defaults to a private trace. *)

val sim : t -> Mrdb_sim.Sim.t
val window_pages : t -> int
val page_bytes : t -> int
val dir_size : t -> int
val duplex : t -> Mrdb_hw.Duplex.t
val trace : t -> Mrdb_sim.Trace.t

val next_lsn : t -> int64
(** The LSN the next allocated page will get. *)

val window_start : t -> int64
(** Oldest LSN still inside the window; pages below it are unreadable. *)

val in_window : t -> int64 -> bool

val alloc_lsn : t -> int64
(** Allocate and persist the next LSN (stable counter). *)

val write_page : t -> lsn:int64 -> bytes -> (unit -> unit) -> unit
(** Write a composed page image at its window slot; the continuation fires
    when all live mirrors are durable.
    @raise Invalid_argument for an out-of-window LSN or wrong image size. *)

val set_tap : t -> (lsn:int64 -> bytes -> unit) -> unit
(** Install a write tap: called once per {!write_page} with the image —
    the hook the archive component uses to roll log contents onto tape
    before window slots are reused (§2.6). *)

val read_page :
  t -> lsn:int64 ->
  ((Log_page.header * Log_page.frames, read_error) result -> unit) -> unit
(** Read and checksum-verify (with mirror fallback) the page at [lsn],
    then decode its header.  The CRC runs once per page, inside the
    duplex read; the accepted image is handed on with {!Log_page.decode},
    its records left in place as frames. *)

val install_page : t -> lsn:int64 -> bytes -> unit
(** Untimed atomic page install at [lsn]'s window slot on every live
    mirror — the replication apply path ({!Mrdb_replica}): a shipped,
    CRC-verified log page lands on the standby's log disk between
    simulated events.  Unlike {!write_page} the LSN is not checked against
    this node's window: the standby's stable [next_lsn] is advanced
    separately as part of the shipped stable-memory image, so during a
    batch apply the slot legitimately runs ahead of the local counter. *)

val peek_page : t -> lsn:int64 -> bytes option
(** Raw image of the in-window page at [lsn] from a surviving mirror
    (untimed; [None] when out of window or never written) — the shipping
    side reads sealed pages without disturbing device queues. *)

val pages_written : t -> int
