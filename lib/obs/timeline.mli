(** Recovery timeline: where the simulated time of a recovery went,
    phase by phase.

    The paper's §3 evaluation is a story about recovery latency — how fast
    the catalogs come back, how soon the first transaction can run, how
    long until the database is fully resident.  This type makes that story
    a first-class runtime artifact: {!Mrdb_recovery.Recovery_mgr} resets it
    at restart and each recovery phase accumulates its simulated duration
    and invocation count.  All six phases are always present (zero when a
    phase did not run), so the [mrdb-obs/3] snapshot shape is stable. *)

type phase =
  | Wellknown_bootstrap  (** read the well-known area's catalog pointers *)
  | Catalog_restore      (** restore catalog partitions (image ∥ log) *)
  | Slt_scan             (** SLB/SLT stable-memory scan + backlog sort *)
  | On_demand_restore    (** per-partition restores driven by transactions *)
  | Background_sweep     (** the low-priority restore-everything sweep *)
  | Failover             (** standby promotion: recover-from-shipped + role flip *)

val phase_name : phase -> string
(** Stable snake_case name used in the JSON schema. *)

type t

val create : unit -> t

val reset : t -> now_us:float -> unit
(** Start a fresh timeline at the given simulated time (a new recovery);
    all phase accumulators return to zero. *)

val add : t -> phase -> dur_us:float -> unit
(** Charge one invocation of [phase] with [dur_us] of simulated time. *)

val started_us : t -> float
(** Simulated time of the last {!reset} (0 before any). *)

val phases : t -> (phase * int * float) list
(** [(phase, count, total_us)] for all six phases, canonical order. *)

val total_us : t -> float
(** Sum of all phase durations. *)
