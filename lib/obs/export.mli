(** Stable machine- and human-readable renderings of an {!Obs} snapshot.

    The JSON schema is [mrdb-obs/3] (the /1 → /2 bump added the ["exec"]
    originating-executor field to the txn and slb_append flight events;
    /2 → /3 added warm-standby replication: the sixth timeline phase
    [failover], the [ship_batch_records] histogram and — on a replicating
    primary — the [replication_lag_records] gauge):

    {v
    { "schema": "mrdb-obs/3",
      "now_us": <float>,                     // simulated clock at snapshot
      "counters": { "<name>": <int>, ... },  // the attached Trace
      "gauges": { "<name>": <int>, ... },
      "histograms": {
        "<name>": { "unit": "<ns|records|...>", "count": <int>,
                    "mean": <float>, "p50": <int>, "p90": <int>,
                    "p99": <int>, "max": <int> }, ... },
      "timeline": {
        "started_us": <float>, "total_us": <float>,
        "phases": [ { "phase": "<name>", "count": <int>,
                      "total_us": <float> }, ...always all six... ] },
      "series": { "<name>": { "count": <int>, "mean": <float>,
                              "p50": <float>, "p99": <float>,
                              "max": <float> }, ... },
      "flight_recorder": {
        "capacity": <int>, "recorded": <int>,
        "events": [ { "t_us": <float>, "event": "<kind>", ...fields... },
                    ... ] } }
    v}

    CI validates this shape from both [mrdb_cli obs] and the snapshot
    embedded in [BENCH.json]; bump the schema string on any breaking
    change. *)

val schema : string
(** ["mrdb-obs/3"]. *)

val json : ?events_limit:int -> t:Obs.t -> unit -> string
(** The snapshot as a JSON document (no trailing newline).
    [events_limit] caps the flight-recorder events included
    (default 200, newest kept). *)

val texttab : ?events_limit:int -> t:Obs.t -> unit -> string
(** The same snapshot rendered as aligned {!Mrdb_util.Texttab} tables
    (counters, histograms, timeline, recent events; default
    [events_limit] 20). *)
