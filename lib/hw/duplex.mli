(** Duplexed (mirrored) disk pair.

    The paper keeps the log on "a set of (duplexed) disks".  A write
    completes only when every live mirror is durable; reads are served from
    the primary with bounded retry on transient errors and transparent
    fallback to the mirror on persistent errors or checksum failure.
    Failing both mirrors makes requests raise — media loss of every copy is
    the archive-recovery case, out of scope per §2.6.

    Degradation is never silent: writes with a single live mirror, read
    retries, mirror fallbacks, checksum failures and resilver runs all bump
    counters on the pair's {!Mrdb_sim.Trace.t}, and {!state} answers
    queries.  All counters are created lazily on first bump, so a healthy
    run's trace is byte-identical to one without this instrumentation. *)

exception Both_mirrors_failed of { op : string; page : int }
(** Both mirrors have suffered media failure: unrecoverable without the
    archive (§2.6).  Raised synchronously at submit time. *)

type t

val create :
  ?name:string -> ?trace:Mrdb_sim.Trace.t -> Mrdb_sim.Sim.t ->
  params:Disk.params -> capacity_pages:int -> t
(** [trace] receives the [duplex_*] counters; defaults to a private trace
    (counters invisible — pass the simulation's trace to observe them). *)

val primary : t -> Disk.t
val mirror : t -> Disk.t
val trace : t -> Mrdb_sim.Trace.t
val capacity_pages : t -> int
val page_bytes : t -> int

val state : t -> [ `Healthy | `Degraded | `Failed ]
(** [`Healthy] both mirrors live; [`Degraded] one failed (or under
    rebuild); [`Failed] no live copy remains. *)

val write_page : t -> page:int -> bytes -> (unit -> unit) -> unit
(** Write to every non-failed mirror (including one being resilvered); the
    continuation fires when all of them are durable.  With exactly one live
    mirror the write still succeeds but bumps [duplex_degraded_writes].
    @raise Both_mirrors_failed when no mirror is live. *)

val read_page :
  t -> page:int -> ?verify:(bytes -> bool) ->
  ((bytes, string) result -> unit) -> unit
(** Read with resilience: each readable mirror is tried with one retry on a
    transient error ([duplex_read_retries]); a copy rejected by [verify]
    (default: accept all) or erroring twice falls over to the other mirror
    ([duplex_read_fallbacks], [duplex_read_checksum_failures]).  [Error]
    when no mirror can produce an acceptable copy.
    @raise Both_mirrors_failed when no mirror is live at submit time. *)

val fail_primary : t -> unit
(** Simulate media failure of the primary (lint rule R9 restricts callers
    to lib/fault and tests): reads fall back to the mirror, writes continue
    single-copy and are counted as degraded. *)

val fail_mirror : t -> unit

val rebuild : t -> [ `Primary | `Mirror ] -> (unit -> unit) -> unit
(** Replace the named failed side with a blank drive and resilver it from
    the survivor, track by track, through the survivor's timed queue.  New
    writes reach the replacement concurrently (it is never stale).  The
    continuation fires when the copy completes and the pair is [`Healthy]
    again ([duplex_rebuilds], [duplex_pages_resilvered]); if the survivor
    fails mid-copy the rebuild aborts ([duplex_rebuild_failures]).
    @raise Invalid_argument unless the side failed and the other is live. *)

val crash_queue : t -> unit
(** {!Disk.crash_queue} on both members (see {!Crash.machine}). *)

val peek_page : t -> page:int -> bytes option
(** Reads the surviving copy (untimed). *)

val install_page : t -> page:int -> bytes -> unit
(** {!Disk.install_page} on every non-failed member: the replication apply
    path lands a shipped page on both mirrors atomically, untimed. *)
