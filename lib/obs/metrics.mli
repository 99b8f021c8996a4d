(** Metrics registry: gauges and allocation-free log2-bucketed latency
    histograms, plus the counters of an attached {!Mrdb_sim.Trace}.

    Counters live only in the [Trace] — they feed the determinism golden,
    and its timing series retain every sample.  This registry is the
    {e observability} surface: recording is a handful of array stores (no
    allocation, no simulated time), so instrumentation can stay enabled in
    the torture campaign and on the logging hot path.  The attached
    [Trace] is enumerated through the same registry, so one {!Export}
    snapshot covers both worlds.

    Histograms bucket by the value's binary order of magnitude with four
    linear sub-buckets per octave (HDR-style log-linear), giving quantile
    estimates within ~12.5 % at any scale.  Values are dimensionless
    integers; by convention the name's [unit_] says what they are
    (["ns"] for sim-time converted via {!observe_us}, or wall-clock
    nanoseconds, or plain counts like a drain batch size). *)

type t

type histogram

val create : unit -> t

(** {2 Gauges} *)

val gauge : t -> string -> (unit -> int) -> unit
(** Register (or replace) a gauge callback, sampled at snapshot time. *)

(** {2 Histograms} *)

val histogram : t -> ?unit_:string -> string -> histogram
(** The named histogram, created empty (with the given unit label,
    default ["ns"]) on first access and memoized thereafter. *)

val observe : histogram -> int -> unit
(** Record one value (negative values clamp to 0).  Allocation-free. *)

val observe_us : histogram -> float -> unit
(** Record a duration given in (simulated or wall) microseconds as
    integer nanoseconds. *)

val h_count : histogram -> int
val h_max : histogram -> int
val h_mean : histogram -> float

val quantile : histogram -> float -> int
(** [quantile h q] with [q] in [\[0, 1\]]: the representative value
    (bucket midpoint) of the bucket holding the q-th ranked sample;
    0 when empty.  [quantile h 1.0] reports the exact maximum. *)

val h_unit : histogram -> string
val h_name : histogram -> string

val h_clear : histogram -> unit

(** {2 Trace attachment and enumeration} *)

val attach_trace : t -> Mrdb_sim.Trace.t -> unit
(** Make the trace's counters (and timing series) part of this registry's
    snapshot. *)

val counters : t -> (string * int) list
(** The attached trace's counters, sorted by name (empty when none is
    attached). *)

val gauges : t -> (string * int) list
(** Sampled gauge values, sorted by name. *)

val histograms : t -> histogram list
(** All histograms, sorted by name. *)

val trace_series : t -> (string * Mrdb_util.Stats.t) list
(** The attached trace's timing series (empty when none attached). *)
