(* Tests for the observability subsystem: the metrics registry and its
   log-linear histograms, the flight-recorder ring, the recovery timeline,
   and the stable mrdb-obs/3 export shape. *)

module Metrics = Mrdb_obs.Metrics
module Flight_recorder = Mrdb_obs.Flight_recorder
module Timeline = Mrdb_obs.Timeline
module Obs = Mrdb_obs.Obs
module Export = Mrdb_obs.Export

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* -- Metrics: counters and gauges ----------------------------------------- *)

(* Counters live in the attached trace; the registry enumerates them. *)
let test_counters () =
  let m = Metrics.create () in
  check int_t "no trace, no counters" 0 (List.length (Metrics.counters m));
  let tr = Mrdb_sim.Trace.create () in
  Metrics.attach_trace m tr;
  Mrdb_sim.Trace.add tr "records" 40;
  Mrdb_sim.Trace.incr tr "commits";
  Mrdb_sim.Trace.incr tr "commits";
  check
    (Alcotest.list (Alcotest.pair Alcotest.string int_t))
    "the trace's counters, name-sorted"
    [ ("commits", 2); ("records", 40) ]
    (Metrics.counters m)

let test_gauges () =
  let m = Metrics.create () in
  let v = ref 7 in
  Metrics.gauge m "resident" (fun () -> !v);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string int_t))
    "sampled at snapshot time"
    [ ("resident", 7) ]
    (Metrics.gauges m);
  v := 11;
  check int_t "re-sampled" 11 (List.assoc "resident" (Metrics.gauges m))

(* -- Metrics: histograms --------------------------------------------------- *)

let test_histogram_quantiles () =
  let m = Metrics.create () in
  let h = Metrics.histogram m ~unit_:"ns" "lat" in
  check int_t "empty quantile is 0" 0 (Metrics.quantile h 0.5);
  for _ = 1 to 1000 do
    Metrics.observe h 100
  done;
  check int_t "count" 1000 (Metrics.h_count h);
  check int_t "max is exact" 100 (Metrics.h_max h);
  check int_t "q=1.0 reports the exact max" 100 (Metrics.quantile h 1.0);
  let p50 = Metrics.quantile h 0.5 in
  (* Log-linear bucketing: the representative value is within ~12.5 %. *)
  check bool_t "p50 within bucket resolution" true
    (abs (p50 - 100) <= 100 / 8 + 1);
  check bool_t "mean exact" true (abs_float (Metrics.h_mean h -. 100.0) < 1e-9)

let test_histogram_wide_range () =
  (* The same histogram must resolve values across orders of magnitude:
     a median in the small cluster, a p99 in the large one. *)
  let m = Metrics.create () in
  let h = Metrics.histogram m "spread" in
  for _ = 1 to 90 do
    Metrics.observe h 1_000
  done;
  for _ = 1 to 10 do
    Metrics.observe h 1_000_000
  done;
  let p50 = Metrics.quantile h 0.5 and p99 = Metrics.quantile h 0.99 in
  check bool_t "p50 near 1e3" true (abs (p50 - 1_000) <= 1_000 / 8 + 1);
  check bool_t "p99 near 1e6" true (abs (p99 - 1_000_000) <= 1_000_000 / 8 + 1);
  check int_t "max exact across range" 1_000_000 (Metrics.h_max h)

let test_histogram_observe_us_and_clamp () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "us" in
  Metrics.observe_us h 1.5;
  check int_t "microseconds recorded as integer ns" 1500 (Metrics.h_max h);
  Metrics.observe h (-5);
  check int_t "negative clamps to 0, not a crash" 2 (Metrics.h_count h);
  Metrics.h_clear h;
  check int_t "clear empties" 0 (Metrics.h_count h);
  check int_t "clear resets max" 0 (Metrics.h_max h)

let test_histogram_memoized_by_name () =
  let m = Metrics.create () in
  let a = Metrics.histogram m "same" in
  Metrics.observe a 3;
  let b = Metrics.histogram m "same" in
  check int_t "second lookup sees the first's samples" 1 (Metrics.h_count b);
  check int_t "registry lists it once" 1 (List.length (Metrics.histograms m))

(* -- Flight recorder ------------------------------------------------------- *)

let mk_recorder ?(capacity = 8) () =
  let t = ref 0.0 in
  let fr =
    Flight_recorder.create ~capacity
      ~now:(fun () ->
        t := !t +. 1.0;
        !t)
      ()
  in
  (fr, t)

let test_ring_wrap () =
  let fr, _ = mk_recorder ~capacity:8 () in
  check int_t "capacity clamps to the 16-event minimum" 16
    (Flight_recorder.capacity fr);
  for i = 1 to 40 do
    Flight_recorder.txn_begin fr ~txn:i ~exec:0
  done;
  check int_t "recorded counts everything ever seen" 40
    (Flight_recorder.recorded fr);
  let evs = Flight_recorder.events fr in
  check int_t "ring retains only capacity" 16 (List.length evs);
  (match evs with
  | (_, Flight_recorder.Txn_begin { txn; _ }) :: _ ->
      check int_t "oldest retained is 25" 25 txn
  | _ -> Alcotest.fail "expected Txn_begin");
  (* Timestamps come from the [now] callback and stay ordered. *)
  let ts = List.map fst evs in
  check bool_t "timestamps nondecreasing" true
    (List.for_all2 (fun a b -> a <= b) ts (List.tl ts @ [ infinity ]))

let test_event_decode_roundtrip () =
  let fr, _ = mk_recorder ~capacity:32 () in
  Flight_recorder.txn_commit fr ~txn:4 ~exec:1;
  Flight_recorder.slb_append fr ~txn:4 ~bytes:56 ~exec:1;
  Flight_recorder.sorter_drain fr ~txns:2 ~records:9;
  Flight_recorder.bin_flush fr ~segment:1 ~partition:3;
  Flight_recorder.ckpt_trigger fr ~segment:1 ~partition:3 ~by_age:true;
  Flight_recorder.crash fr;
  Flight_recorder.fault fr ~kind:"fault_torn_write";
  Flight_recorder.partition_restored fr ~segment:1 ~partition:3 ~records:12;
  Flight_recorder.phase fr "slt_scan";
  let evs = List.map snd (Flight_recorder.events fr) in
  let expect =
    Flight_recorder.
      [
        Txn_commit { txn = 4; exec = 1 };
        Slb_append { txn = 4; bytes = 56; exec = 1 };
        Sorter_drain { txns = 2; records = 9 };
        Bin_flush { segment = 1; partition = 3 };
        Ckpt_trigger { segment = 1; partition = 3; by_age = true };
        Crash;
        Fault "fault_torn_write";
        Partition_restored { segment = 1; partition = 3; records = 12 };
        Phase "slt_scan";
      ]
  in
  check bool_t "all event kinds decode back" true (evs = expect)

let test_events_limit_and_clear () =
  let fr, _ = mk_recorder ~capacity:16 () in
  for i = 1 to 10 do
    Flight_recorder.txn_begin fr ~txn:i ~exec:0
  done;
  let newest = Flight_recorder.events ~limit:3 fr in
  check int_t "limit keeps the newest" 3 (List.length newest);
  (match List.rev newest with
  | (_, Flight_recorder.Txn_begin { txn; _ }) :: _ ->
      check int_t "last is the most recent" 10 txn
  | _ -> Alcotest.fail "expected Txn_begin");
  Flight_recorder.clear fr;
  check int_t "clear empties the ring" 0
    (List.length (Flight_recorder.events fr))

let test_dump_renders () =
  let fr, _ = mk_recorder () in
  Flight_recorder.crash fr;
  Flight_recorder.fault fr ~kind:"fault_mirror_fail";
  let buf = Buffer.create 128 in
  let fmt = Format.formatter_of_buffer buf in
  Flight_recorder.dump fmt fr;
  Format.pp_print_flush fmt ();
  let s = Buffer.contents buf in
  let contains needle =
    let nl = String.length needle and sl = String.length s in
    let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
    go 0
  in
  check bool_t "dump mentions the crash" true (contains "crash");
  check bool_t "dump mentions the fault kind" true (contains "fault_mirror_fail")

(* -- Timeline -------------------------------------------------------------- *)

let test_timeline_all_phases_always_present () =
  let tl = Timeline.create () in
  let ps = Timeline.phases tl in
  check int_t "six phases" 6 (List.length ps);
  check
    (Alcotest.list Alcotest.string)
    "canonical order and stable names"
    [
      "wellknown_bootstrap"; "catalog_restore"; "slt_scan";
      "on_demand_restore"; "background_sweep"; "failover";
    ]
    (List.map (fun (p, _, _) -> Timeline.phase_name p) ps);
  List.iter (fun (_, n, us) -> check bool_t "zero" true (n = 0 && us = 0.0)) ps

let test_timeline_accumulates_and_resets () =
  let tl = Timeline.create () in
  Timeline.reset tl ~now_us:50.0;
  Timeline.add tl Timeline.Catalog_restore ~dur_us:10.0;
  Timeline.add tl Timeline.Catalog_restore ~dur_us:5.0;
  Timeline.add tl Timeline.On_demand_restore ~dur_us:2.0;
  check bool_t "started at reset time" true (Timeline.started_us tl = 50.0);
  check bool_t "total sums phases" true (Timeline.total_us tl = 17.0);
  let _, n, us =
    List.find (fun (p, _, _) -> p = Timeline.Catalog_restore) (Timeline.phases tl)
  in
  check int_t "invocations counted" 2 n;
  check bool_t "durations accumulated" true (us = 15.0);
  Timeline.reset tl ~now_us:99.0;
  check bool_t "reset zeroes" true (Timeline.total_us tl = 0.0);
  check bool_t "reset restamps" true (Timeline.started_us tl = 99.0)

(* -- Export ---------------------------------------------------------------- *)

let contains s needle =
  let nl = String.length needle and sl = String.length s in
  let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
  go 0

let mk_obs () =
  let t = ref 0.0 in
  Obs.create
    ~now:(fun () ->
      t := !t +. 1.0;
      !t)
    ()

let test_export_json_shape () =
  let obs = mk_obs () in
  let tr = Mrdb_sim.Trace.create () in
  Metrics.attach_trace (Obs.metrics obs) tr;
  Mrdb_sim.Trace.incr tr "commits";
  Metrics.observe_us (Obs.txn_latency obs) 120.0;
  Metrics.observe_us (Obs.restore_latency obs) 800.0;
  Metrics.observe (Obs.drain_batch obs) 7;
  Flight_recorder.txn_commit (Obs.recorder obs) ~txn:1 ~exec:0;
  Timeline.add (Obs.timeline obs) Timeline.Slt_scan ~dur_us:42.0;
  let j = Export.json ~t:obs () in
  check bool_t "schema tag" true (contains j "\"schema\": \"mrdb-obs/3\"");
  List.iter
    (fun n -> check bool_t ("histogram " ^ n) true (contains j ("\"" ^ n ^ "\"")))
    [ "txn_latency_ns"; "restore_latency_ns"; "drain_batch_records" ];
  List.iter
    (fun p -> check bool_t ("phase " ^ p) true (contains j ("\"" ^ p ^ "\"")))
    [
      "wellknown_bootstrap"; "catalog_restore"; "slt_scan";
      "on_demand_restore"; "background_sweep"; "failover";
    ];
  check bool_t "counters section" true (contains j "\"commits\": 1");
  check bool_t "flight recorder section" true (contains j "\"recorded\": 1");
  (* /2 over /1: txn and slb_append flight events carry their executor. *)
  check bool_t "flight events carry exec" true (contains j "\"exec\": 0")

(* The /2 → /3 bump: the failover timeline phase and the ship_batch_records
   histogram (warm-standby replication).  The new surfaces must export, and
   the failover phase-transition flight event must decode back. *)
let test_export_v3_replication_surfaces () =
  let obs = mk_obs () in
  Metrics.observe (Obs.ship_batch obs) 48;
  Metrics.gauge (Obs.metrics obs) "replication_lag_records" (fun () -> 17);
  Timeline.add (Obs.timeline obs) Timeline.Failover ~dur_us:900.0;
  Flight_recorder.phase (Obs.recorder obs) "failover";
  let j = Export.json ~t:obs () in
  check bool_t "ship_batch histogram exported" true
    (contains j "\"ship_batch_records\"");
  check bool_t "lag gauge exported" true
    (contains j "\"replication_lag_records\": 17");
  check bool_t "failover phase charged" true (contains j "\"failover\"");
  match List.map snd (Flight_recorder.events (Obs.recorder obs)) with
  | [ Flight_recorder.Phase "failover" ] -> ()
  | _ -> Alcotest.fail "failover phase event did not decode back"

let test_export_texttab_renders () =
  let obs = mk_obs () in
  Metrics.observe_us (Obs.txn_latency obs) 120.0;
  let s = Export.texttab ~t:obs () in
  check bool_t "nonempty" true (String.length s > 0);
  check bool_t "histogram table present" true (contains s "txn_latency_ns");
  check bool_t "timeline table present" true (contains s "catalog_restore")

(* -- Recording costs no simulated time ------------------------------------- *)

let test_recording_reads_but_never_advances_the_clock () =
  let sim = Mrdb_sim.Sim.create () in
  let obs = Obs.create ~now:(fun () -> Mrdb_sim.Sim.now sim) () in
  let before = Mrdb_sim.Sim.now sim in
  for i = 1 to 100 do
    Flight_recorder.slb_append (Obs.recorder obs) ~txn:i ~bytes:24 ~exec:0;
    Metrics.observe_us (Obs.txn_latency obs) 10.0
  done;
  check bool_t "clock untouched" true (Mrdb_sim.Sim.now sim = before)

let () =
  Alcotest.run "mrdb_obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "gauges" `Quick test_gauges;
          Alcotest.test_case "histogram quantiles" `Quick
            test_histogram_quantiles;
          Alcotest.test_case "histogram wide range" `Quick
            test_histogram_wide_range;
          Alcotest.test_case "observe_us and clamp" `Quick
            test_histogram_observe_us_and_clamp;
          Alcotest.test_case "memoized by name" `Quick
            test_histogram_memoized_by_name;
        ] );
      ( "flight_recorder",
        [
          Alcotest.test_case "ring wrap" `Quick test_ring_wrap;
          Alcotest.test_case "event decode roundtrip" `Quick
            test_event_decode_roundtrip;
          Alcotest.test_case "events limit and clear" `Quick
            test_events_limit_and_clear;
          Alcotest.test_case "dump renders" `Quick test_dump_renders;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "all phases always present" `Quick
            test_timeline_all_phases_always_present;
          Alcotest.test_case "accumulates and resets" `Quick
            test_timeline_accumulates_and_resets;
        ] );
      ( "export",
        [
          Alcotest.test_case "json shape" `Quick test_export_json_shape;
          Alcotest.test_case "v3 replication surfaces" `Quick
            test_export_v3_replication_surfaces;
          Alcotest.test_case "texttab renders" `Quick
            test_export_texttab_renders;
        ] );
      ( "clock",
        [
          Alcotest.test_case "recording never advances the clock" `Quick
            test_recording_reads_but_never_advances_the_clock;
        ] );
    ]
