(* Hand-rolled JSON emission: the schema is small and fixed, and the repo
   deliberately avoids new dependencies.  Everything goes through [str]/
   [num] so escaping and float formatting stay uniform. *)

(* /2: flight-recorder txn and slb_append events carry an "exec" field
   (originating executor id).
   /3: the timeline gains a sixth "failover" phase, and replication
   snapshots carry the "ship_batch_records" histogram and the
   "replication_lag_records" gauge. *)
let schema = "mrdb-obs/3"

(* -- JSON primitives -------------------------------------------------------- *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let num buf f =
  (* JSON has no NaN/inf; clamp to 0 (cannot arise from sane snapshots). *)
  if Float.is_nan f || Float.abs f = Float.infinity then Buffer.add_char buf '0'
  else if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.1f" f)
  else Buffer.add_string buf (Printf.sprintf "%.3f" f)

let kv_sep buf first = if !first then first := false else Buffer.add_string buf ", "

(* -- snapshot pieces -------------------------------------------------------- *)

let add_counters buf metrics =
  Buffer.add_string buf "\"counters\": {";
  let first = ref true in
  List.iter
    (fun (name, v) ->
      kv_sep buf first;
      escape buf name;
      Buffer.add_string buf (Printf.sprintf ": %d" v))
    (Metrics.counters metrics);
  Buffer.add_char buf '}'

let add_gauges buf metrics =
  Buffer.add_string buf "\"gauges\": {";
  let first = ref true in
  List.iter
    (fun (name, v) ->
      kv_sep buf first;
      escape buf name;
      Buffer.add_string buf (Printf.sprintf ": %d" v))
    (Metrics.gauges metrics);
  Buffer.add_char buf '}'

let add_histograms buf metrics =
  Buffer.add_string buf "\"histograms\": {";
  let first = ref true in
  List.iter
    (fun h ->
      kv_sep buf first;
      escape buf (Metrics.h_name h);
      Buffer.add_string buf ": {\"unit\": ";
      escape buf (Metrics.h_unit h);
      Buffer.add_string buf
        (Printf.sprintf ", \"count\": %d, \"mean\": " (Metrics.h_count h));
      num buf (Metrics.h_mean h);
      Buffer.add_string buf
        (Printf.sprintf ", \"p50\": %d, \"p90\": %d, \"p99\": %d, \"max\": %d}"
           (Metrics.quantile h 0.5) (Metrics.quantile h 0.9)
           (Metrics.quantile h 0.99) (Metrics.h_max h)))
    (Metrics.histograms metrics);
  Buffer.add_char buf '}'

let add_timeline buf tl =
  Buffer.add_string buf "\"timeline\": {\"started_us\": ";
  num buf (Timeline.started_us tl);
  Buffer.add_string buf ", \"total_us\": ";
  num buf (Timeline.total_us tl);
  Buffer.add_string buf ", \"phases\": [";
  let first = ref true in
  List.iter
    (fun (phase, count, total_us) ->
      kv_sep buf first;
      Buffer.add_string buf "{\"phase\": ";
      escape buf (Timeline.phase_name phase);
      Buffer.add_string buf (Printf.sprintf ", \"count\": %d, \"total_us\": " count);
      num buf total_us;
      Buffer.add_char buf '}')
    (Timeline.phases tl);
  Buffer.add_string buf "]}"

let add_series buf metrics =
  Buffer.add_string buf "\"series\": {";
  let first = ref true in
  List.iter
    (fun (name, s) ->
      kv_sep buf first;
      escape buf name;
      Buffer.add_string buf
        (Printf.sprintf ": {\"count\": %d, \"mean\": " (Mrdb_util.Stats.count s));
      num buf (Mrdb_util.Stats.mean s);
      Buffer.add_string buf ", \"p50\": ";
      num buf (Mrdb_util.Stats.median s);
      Buffer.add_string buf ", \"p99\": ";
      num buf (Mrdb_util.Stats.percentile s 99.0);
      Buffer.add_string buf ", \"max\": ";
      num buf (Mrdb_util.Stats.max s);
      Buffer.add_char buf '}')
    (Metrics.trace_series metrics);
  Buffer.add_char buf '}'

let event_fields = function
  | Flight_recorder.Txn_begin { txn; exec } ->
      ("txn_begin", [ ("txn", txn); ("exec", exec) ])
  | Txn_commit { txn; exec } -> ("txn_commit", [ ("txn", txn); ("exec", exec) ])
  | Txn_abort { txn; exec } -> ("txn_abort", [ ("txn", txn); ("exec", exec) ])
  | Slb_append { txn; bytes; exec } ->
      ("slb_append", [ ("txn", txn); ("bytes", bytes); ("exec", exec) ])
  | Sorter_drain { txns; records } ->
      ("sorter_drain", [ ("txns", txns); ("records", records) ])
  | Bin_flush { segment; partition } ->
      ("bin_flush", [ ("segment", segment); ("partition", partition) ])
  | Ckpt_trigger { segment; partition; by_age } ->
      ( "ckpt_trigger",
        [ ("segment", segment); ("partition", partition);
          ("by_age", if by_age then 1 else 0) ] )
  | Crash -> ("crash", [])
  | Fault _ -> ("fault", [])
  | Partition_restored { segment; partition; records } ->
      ( "partition_restored",
        [ ("segment", segment); ("partition", partition); ("records", records) ] )
  | Phase _ -> ("phase", [])

let add_flight buf ~events_limit fr =
  Buffer.add_string buf
    (Printf.sprintf "\"flight_recorder\": {\"capacity\": %d, \"recorded\": %d, \"events\": ["
       (Flight_recorder.capacity fr) (Flight_recorder.recorded fr));
  let first = ref true in
  List.iter
    (fun (t_us, ev) ->
      kv_sep buf first;
      Buffer.add_string buf "{\"t_us\": ";
      num buf t_us;
      let kind, fields = event_fields ev in
      Buffer.add_string buf ", \"event\": ";
      escape buf kind;
      List.iter
        (fun (k, v) ->
          Buffer.add_string buf ", ";
          escape buf k;
          Buffer.add_string buf (Printf.sprintf ": %d" v))
        fields;
      (match ev with
      | Flight_recorder.Fault kind ->
          Buffer.add_string buf ", \"kind\": ";
          escape buf kind
      | Flight_recorder.Phase name ->
          Buffer.add_string buf ", \"name\": ";
          escape buf name
      | _ -> ());
      Buffer.add_char buf '}')
    (Flight_recorder.events ~limit:events_limit fr);
  Buffer.add_string buf "]}"

let json ?(events_limit = 200) ~t () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"schema\": ";
  escape buf schema;
  Buffer.add_string buf ", \"now_us\": ";
  num buf (Obs.now_us t);
  Buffer.add_string buf ",\n";
  add_counters buf (Obs.metrics t);
  Buffer.add_string buf ",\n";
  add_gauges buf (Obs.metrics t);
  Buffer.add_string buf ",\n";
  add_histograms buf (Obs.metrics t);
  Buffer.add_string buf ",\n";
  add_timeline buf (Obs.timeline t);
  Buffer.add_string buf ",\n";
  add_series buf (Obs.metrics t);
  Buffer.add_string buf ",\n";
  add_flight buf ~events_limit (Obs.recorder t);
  Buffer.add_char buf '}';
  Buffer.contents buf

(* -- text rendering ---------------------------------------------------------- *)

let texttab ?(events_limit = 20) ~t () =
  let module T = Mrdb_util.Texttab in
  let buf = Buffer.create 2048 in
  let metrics = Obs.metrics t in
  let counters = T.create_aligned ~headers:[ ("counter", T.Left); ("value", T.Right) ] in
  List.iter
    (fun (name, v) -> T.row counters [ name; string_of_int v ])
    (Metrics.counters metrics);
  List.iter
    (fun (name, v) -> T.row counters [ name ^ " (gauge)"; string_of_int v ])
    (Metrics.gauges metrics);
  Buffer.add_string buf (T.render counters);
  Buffer.add_char buf '\n';
  let histos =
    T.create_aligned
      ~headers:
        [ ("histogram", T.Left); ("unit", T.Left); ("count", T.Right);
          ("mean", T.Right); ("p50", T.Right); ("p90", T.Right);
          ("p99", T.Right); ("max", T.Right) ]
  in
  List.iter
    (fun h ->
      T.row histos
        [ Metrics.h_name h; Metrics.h_unit h;
          string_of_int (Metrics.h_count h);
          Printf.sprintf "%.0f" (Metrics.h_mean h);
          string_of_int (Metrics.quantile h 0.5);
          string_of_int (Metrics.quantile h 0.9);
          string_of_int (Metrics.quantile h 0.99);
          string_of_int (Metrics.h_max h) ])
    (Metrics.histograms metrics);
  Buffer.add_string buf (T.render histos);
  Buffer.add_char buf '\n';
  let tl = Obs.timeline t in
  let timeline =
    T.create_aligned
      ~headers:[ ("recovery phase", T.Left); ("count", T.Right); ("total us", T.Right) ]
  in
  List.iter
    (fun (phase, count, total_us) ->
      T.row timeline
        [ Timeline.phase_name phase; string_of_int count;
          Printf.sprintf "%.1f" total_us ])
    (Timeline.phases tl);
  Buffer.add_string buf (T.render timeline);
  Buffer.add_char buf '\n';
  let fr = Obs.recorder t in
  let events = T.create_aligned ~headers:[ ("t (us)", T.Right); ("event", T.Left) ] in
  List.iter
    (fun (t_us, ev) ->
      T.row events
        [ Printf.sprintf "%.1f" t_us;
          Format.asprintf "%a" Flight_recorder.pp_event ev ])
    (Flight_recorder.events ~limit:events_limit fr);
  Buffer.add_string buf (T.render events);
  Buffer.contents buf
