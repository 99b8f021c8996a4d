(* Wall-clock microbenchmark of the logging hot path.

   Unlike bench/recovery.ml (simulated time), this measures real elapsed
   seconds and real GC allocation:

   - append: Slb.Region.append throughput (record framed into the SLB scratch,
     one stable-memory write per record);
   - append_hooked: the same with an installed-but-idle stable-memory
     fault hook, bounding the observation cost fault campaigns add to the
     hot path (CI asserts the ratio);
   - append_obs: the same with a flight recorder attached, bounding the
     observability cost on the hot path (CI asserts ops stay at >= 0.5x
     the uninstrumented append);
   - drain: Slb streaming drain throughput (records decoded in place from
     the per-SLB read buffer, no per-transaction lists);
   - debit_credit: end-to-end transactions/sec through Db on
     Config.default, including commit, the sorter and page flushes; also
     reports wall-clock p50/p99 per-transaction latency from an
     Mrdb_obs.Metrics histogram, and (after an untimed crash/recovery
     cycle) embeds the instance's full mrdb-obs/3 snapshot;
   - debit_credit_nexec: the same workload driven through the
     deterministic executor schedule (Sim_exec.run_scheduled) at
     executors=4 over striped SLB regions, with the executors=1 scheduled
     throughput alongside ("ops_per_sec_e1") so the striping overhead is
     visible in BENCH.json;
   - crc32: Checksum.crc32 over a 48 KB checkpoint-image-sized buffer,
     one op per image, also reported as bytes/sec and ns/byte (CI holds
     the kernel at or under 4 ns/byte);
   - partition_fill: Partition.insert of 27-byte entities (a debit/credit
     history row) until a 48 KB partition is full, with the ns per insert
     of the first and of the last tenth of the fill reported apart (CI
     holds last/first at or under 2: slot placement must not slow down as
     the slot directory grows).

   The codec sweep runs the debit_credit workload once per REDO codec
   (physical / logical) and reports, per codec, the log bytes
   emitted per transaction (from the codec_log_bytes trace counter, so
   setup is excluded) and the post-crash replay rate in records/sec
   (wall-clock over Db.recover + recover_everything).  The sweep fills
   the "codec" section of BENCH.json and is also written standalone to
   codec-sweep.json for the CI artifact.

   Each bench reports ops/sec and Gc.allocated_bytes per op.  Results are
   written to BENCH.json (schema mrdb-hotpath/3) at the current directory
   ("quick" mode shrinks the iteration counts for CI smoke, same
   schema). *)

open Mrdb_wal
module Sm = Mrdb_hw.Stable_mem

let now () = Unix.gettimeofday ()

(* Allocation accounting under a moving GC: [Gc.allocated_bytes] jumps
   discontinuously at minor collections (~1-2 MB phantom steps on this
   runtime), so a window that crosses one reads inflated.  Discipline:
   run with a large minor heap (set in [main]), empty it before each
   measurement window, and bill a window's delta only when no minor
   collection ran inside it.  Throughput always uses every window. *)
let minors () = (Gc.quick_stat ()).Gc.minor_collections

(* Accumulator for clean-window allocation: [add] bills [ops] operations
   with [bytes] when the window was clean; [per_op] averages over the
   clean ops only (falling back to 0/0 = nan never happens: the minor
   heap is sized so at least the first window is clean). *)
type alloc_acc = { mutable bytes : float; mutable ops : int }

let acc () = { bytes = 0.0; ops = 0 }

let measure_window acc ~ops f =
  Gc.minor ();
  let m0 = minors () in
  let t0 = now () in
  let a0 = Gc.allocated_bytes () in
  f ();
  let dt = now () -. t0 in
  let da = Gc.allocated_bytes () -. a0 in
  if minors () = m0 then begin
    acc.bytes <- acc.bytes +. da;
    acc.ops <- acc.ops + ops
  end;
  dt

let per_op acc = if acc.ops = 0 then 0.0 else acc.bytes /. float_of_int acc.ops

let mk_layout () =
  let cfg = Stable_layout.default_config in
  let mem = Sm.create ~size:(Stable_layout.required_bytes cfg) () in
  Stable_layout.attach cfg mem

let mk_record ~seq =
  Log_record.make ~tag:Log_record.Relation_op ~bin_index:0 ~txn_id:1 ~seq
    ~op:(Mrdb_storage.Part_op.Update { slot = 7; data = Bytes.make 16 'v' })

let bench_append ?(hooked = false) ?(obs = false) n =
  let layout = mk_layout () in
  if hooked then
    (* An installed-but-idle fault hook: the cost the torture campaign's
       observation point adds to every stable-memory mutation. *)
    Sm.set_fault_hook (Stable_layout.mem layout)
      (Some { Sm.on_write = (fun ~off:_ ~len:_ -> ()) });
  let slb = Slb.create layout in
  if obs then begin
    (* A live flight recorder: every append records an Slb_append event. *)
    let clock = ref 0.0 in
    let fr = Mrdb_obs.Flight_recorder.create ~now:(fun () -> !clock) () in
    Slb.set_recorder slb (Some fr)
  end;
  let region = Slb.region slb 0 in
  let r = mk_record ~seq:1 in
  let batch = 2000 in
  let elapsed = ref 0.0 and alloc = acc () and done_ = ref 0 in
  while !done_ < n do
    let k = min batch (n - !done_) in
    elapsed :=
      !elapsed
      +. measure_window alloc ~ops:k (fun () ->
             for i = 1 to k do
               Slb.Region.append region ~txn_id:(i land 15) r
             done);
    (* Untimed: recycle the blocks so the pool never exhausts. *)
    for t = 0 to 15 do Slb.abort slb ~txn_id:t done;
    done_ := !done_ + k
  done;
  (float_of_int n /. !elapsed, per_op alloc)

let bench_drain n =
  let layout = mk_layout () in
  let slb = Slb.create layout in
  let region = Slb.region slb 0 in
  let per_txn = 4 in
  let batch_txns = 200 in
  let elapsed = ref 0.0 and alloc = acc () and done_ = ref 0 in
  let sink = ref 0 in
  while !done_ < n do
    let txns = min batch_txns (((n - !done_) / per_txn) + 1) in
    for t = 1 to txns do
      for s = 1 to per_txn do
        Slb.Region.append region ~txn_id:t (mk_record ~seq:s)
      done;
      Slb.Region.commit region ~txn_id:t
    done;
    (* The production drain path: raw frames, routing fields peeked out of
       the encoding, no Log_record ever materialized. *)
    elapsed :=
      !elapsed
      +. measure_window alloc ~ops:(txns * per_txn) (fun () ->
             ignore
               (Slb.drain_raw slb ~f:(fun ~txn_id:_ buf ~pos ~len:_ ->
                    sink := !sink + Log_record.peek_seq buf ~pos)));
    done_ := !done_ + (txns * per_txn)
  done;
  ignore !sink;
  (float_of_int !done_ /. !elapsed, per_op alloc)

let crc_image_bytes = 48 * 1024

let bench_crc32 n =
  let image = Bytes.init crc_image_bytes (fun i -> Char.chr ((i * 131) land 0xFF)) in
  let batch = 50 in
  let elapsed = ref 0.0 and alloc = acc () and done_ = ref 0 in
  let sink = ref 0l in
  while !done_ < n do
    let k = min batch (n - !done_) in
    elapsed :=
      !elapsed
      +. measure_window alloc ~ops:k (fun () ->
             for _ = 1 to k do
               sink := Mrdb_util.Checksum.crc32 ~init:!sink image ~pos:0 ~len:crc_image_bytes
             done);
    done_ := !done_ + k
  done;
  ignore !sink;
  (float_of_int n /. !elapsed, per_op alloc)

let fill_partition_bytes = 48 * 1024
let fill_entity_bytes = 27

(* Fill [n] partitions side by side, in three timed windows: the first
   tenth of every partition's inserts, the middle, the last tenth.  One
   window spans all [n] partitions so it lasts long enough for the wall
   clock.  Returns (inserts/sec over the whole fill, B/insert), the
   number of inserts, and ns/insert in the first and in the last tenth. *)
let bench_partition_fill n =
  let module Partition = Mrdb_storage.Partition in
  let entity = Bytes.make fill_entity_bytes 'h' in
  let fresh () = Partition.create ~size:fill_partition_bytes ~segment:1 ~partition:0 in
  let capacity =
    let p = fresh () in
    let k = ref 0 in
    while Partition.insert p entity <> None do incr k done;
    !k
  in
  let tenth = capacity / 10 in
  let parts = Array.init n (fun _ -> fresh ()) in
  let alloc = acc () in
  let window count =
    measure_window alloc ~ops:(n * count) (fun () ->
        Array.iter
          (fun p ->
            for _ = 1 to count do
              ignore (Partition.insert p entity)
            done)
          parts)
  in
  let first = window tenth in
  let middle = window (capacity - (2 * tenth)) in
  let last = window tenth in
  if Array.exists (fun p -> Partition.insert p entity <> None) parts then
    failwith "partition_fill: a partition had room left after the fill";
  let ns_per_insert dt = dt *. 1e9 /. float_of_int (n * tenth) in
  ( (float_of_int (n * capacity) /. (first +. middle +. last), per_op alloc),
    n * capacity,
    ns_per_insert first,
    ns_per_insert last )

let replay_partition_bytes = 48 * 1024
let replay_entity_bytes = 27
let replay_records_per_pass = 4_000

(* Replay kernel: log pages of physical updates, built once, replayed
   into a full partition of 27-byte rows (a debit/credit history row)
   through Restorer.replay, the kernel every restore runs.  Each record
   rewrites one row with a same-sized image, so a pass leaves the slot
   directory as it found it and the pages can be replayed again.  One op
   is one frame applied. *)
let bench_replay n =
  let module Partition = Mrdb_storage.Partition in
  let cfg = Stable_layout.default_config in
  let page_bytes = cfg.Stable_layout.log_page_bytes and dir_size = cfg.Stable_layout.dir_size in
  let part = Partition.create ~size:replay_partition_bytes ~segment:1 ~partition:0 in
  let row = Bytes.make replay_entity_bytes 'h' in
  while Partition.insert part row <> None do () done;
  let slots = Partition.slot_count part in
  let capacity = Log_page.payload_capacity ~page_bytes ~dir_size in
  let payload = Bytes.create capacity in
  let pages = ref [] and used = ref 0 and nrecords = ref 0 in
  let seal () =
    let image =
      Log_page.build ~page_bytes ~dir_size ~lsn:(Int64.of_int (List.length !pages))
        ~part:(Partition.address part) ~prev_lsn:(-1L) ~dir:[||]
        ~payload:(Bytes.sub payload 0 !used) ~nrecords:!nrecords
    in
    (match Log_page.decode ~page_bytes ~dir_size image with
    | Ok (_, frames) -> pages := frames :: !pages
    | Error e -> failwith ("replay bench: " ^ e));
    used := 0;
    nrecords := 0
  in
  for seq = 1 to replay_records_per_pass do
    let r =
      Log_record.make ~tag:Log_record.Relation_op ~bin_index:0 ~txn_id:seq ~seq
        ~op:
          (Mrdb_storage.Part_op.Update
             { slot = seq * 7919 mod slots;
               data = Bytes.make replay_entity_bytes (Char.chr (seq land 0xFF)) })
    in
    let size = Log_record.encoded_size r in
    if !used + 2 + size > capacity then seal ();
    Mrdb_util.Codec.put_u16 payload !used size;
    ignore (Log_record.encode_into r payload ~pos:(!used + 2) : int);
    used := !used + 2 + size;
    incr nrecords
  done;
  seal ();
  let frames = List.rev !pages in
  let elapsed = ref 0.0 and alloc = acc () and done_ = ref 0 in
  while !done_ < n do
    elapsed :=
      !elapsed
      +. measure_window alloc ~ops:replay_records_per_pass (fun () ->
             let r = Mrdb_recovery.Restorer.replay ~partition:part ~watermark:0 frames in
             if r.Mrdb_recovery.Restorer.applied <> replay_records_per_pass then
               failwith "replay bench: not every frame applied");
    done_ := !done_ + replay_records_per_pass
  done;
  (float_of_int !done_ /. !elapsed, per_op alloc)

let bench_txn n =
  let db = Mrdb_core.Db.create ~config:Mrdb_core.Config.default () in
  let bank = Mrdb_core.Workload.Bank.setup db ~accounts:400 ~tellers:8 ~branches:2 () in
  let rng = Mrdb_util.Rng.of_int 7 in
  (* The latency percentiles below cover the measured loop only: the bank
     set-up's populate transactions (hundreds of simulated ms each) would
     otherwise be the p99 of a quick run. *)
  let lat = Mrdb_obs.Obs.txn_latency (Mrdb_core.Db.obs db) in
  Mrdb_obs.Metrics.h_clear lat;
  let chunk = 200 in
  let elapsed = ref 0.0 and alloc = acc () and done_ = ref 0 in
  while !done_ < n do
    let k = min chunk (n - !done_) in
    elapsed :=
      !elapsed
      +. measure_window alloc ~ops:k (fun () ->
             for _ = 1 to k do
               Mrdb_core.Workload.Bank.run_debit_credit bank db ~rng
             done);
    done_ := !done_ + k
  done;
  let t0 = now () in
  Mrdb_core.Db.quiesce db;
  let dt = !elapsed +. (now () -. t0) in
  (* The allocation accounting closed above: the crash/recovery cycle
     below is for snapshot population only and must not be billed per
     transaction (at quick-mode iteration counts it would dominate the
     quotient). *)
  let allocated_per_op = per_op alloc in
  (* Per-transaction latency from the instance's own simulated-time
     histogram: begin -> commit, including the modeled commit-path CPU
     cost, so p50 is meaningfully non-zero even on a µs-grained clock. *)
  let p50 = Mrdb_obs.Metrics.quantile lat 0.5
  and p99 = Mrdb_obs.Metrics.quantile lat 0.99 in
  (* Untimed crash/recovery cycle so the embedded mrdb-obs/1 snapshot
     carries a populated recovery timeline and restore histogram. *)
  Mrdb_core.Db.crash db;
  Mrdb_core.Db.recover db;
  Mrdb_core.Db.recover_everything db;
  Mrdb_core.Db.quiesce db;
  ignore (Mrdb_obs.Obs.restore_latency (Mrdb_core.Db.obs db));
  ignore (Mrdb_obs.Obs.drain_batch (Mrdb_core.Db.obs db));
  let obs_json = Mrdb_obs.Export.json ~t:(Mrdb_core.Db.obs db) () in
  ((float_of_int n /. dt, allocated_per_op), (p50, p99), obs_json)

(* One debit_credit run under a forced REDO codec.  Log volume comes from
   the codec_log_bytes counter (maintained for every emitted record, any
   family), deltaed across the timed loop so the bank setup is excluded.
   Replay rate is the whole post-crash pipeline — SLT scan, catalog
   restore, every partition restored through Restorer.apply_records with
   whatever record mix the codec produced — over wall-clock seconds. *)
type codec_row = {
  codec_name : string;
  log_bytes_per_txn : float;
  replay_records_per_sec : float;
  cmd_record_share : float;  (** command records / log records, timed loop *)
}

let bench_codec ~codec ~codec_name n =
  let config =
    { Mrdb_core.Config.default with Mrdb_core.Config.redo_codec = codec }
  in
  let db = Mrdb_core.Db.create ~config () in
  let bank =
    Mrdb_core.Workload.Bank.setup db ~accounts:400 ~tellers:8 ~branches:2 ()
  in
  let rng = Mrdb_util.Rng.of_int 7 in
  let trace = Mrdb_core.Db.trace db in
  let count = Mrdb_sim.Trace.count trace in
  let bytes0 = count "codec_log_bytes"
  and recs0 = count "log_records"
  and cmds0 = count "codec_cmd_records" in
  for _ = 1 to n do
    Mrdb_core.Workload.Bank.run_debit_credit bank db ~rng
  done;
  Mrdb_core.Db.quiesce db;
  let d c base = float_of_int (count c - base) in
  let log_bytes_per_txn = d "codec_log_bytes" bytes0 /. float_of_int n in
  let cmd_record_share = d "codec_cmd_records" cmds0 /. d "log_records" recs0 in
  Mrdb_core.Db.crash db;
  let t0 = now () in
  Mrdb_core.Db.recover db;
  Mrdb_core.Db.recover_everything db;
  Mrdb_core.Db.quiesce db;
  let dt = Float.max (now () -. t0) 1e-9 in
  let replayed = float_of_int (count "recovery_records_applied") in
  {
    codec_name;
    log_bytes_per_txn;
    replay_records_per_sec = replayed /. dt;
    cmd_record_share;
  }

let codec_row_json r =
  Printf.sprintf
    "\"%s\": { \"log_bytes_per_txn\": %.2f, \"replay_records_per_sec\": \
     %.1f, \"cmd_record_share\": %.3f }"
    r.codec_name r.log_bytes_per_txn r.replay_records_per_sec
    r.cmd_record_share

let bench_txn_nexec ~executors n =
  let module Executor = Mrdb_exec.Executor in
  let module Schedule = Mrdb_exec.Schedule in
  let config =
    let base = Mrdb_core.Config.default in
    (* Striping divides the SLB block pool by the executor count; scale the
       pool so each region keeps the single-executor block budget (the bank
       setup funnels its whole populate workload through region 0). *)
    let stable =
      {
        base.Mrdb_core.Config.stable with
        Stable_layout.slb_block_count =
          executors * base.Mrdb_core.Config.stable.Stable_layout.slb_block_count;
      }
    in
    { base with Mrdb_core.Config.executors; stable }
  in
  let db = Mrdb_core.Db.create ~config () in
  let bank =
    Mrdb_core.Workload.Bank.setup db ~accounts:400 ~tellers:8 ~branches:2 ()
  in
  let sched = Schedule.create ~seed:7 (Executor.spawn ~seed:7 ~n:executors) in
  let step e = Mrdb_core.Workload.Bank.run_debit_credit_exec bank db ~exec:e in
  let t0 = now () and a0 = Gc.allocated_bytes () in
  ignore (Mrdb_core.Sim_exec.run_scheduled ~db ~schedule:sched ~steps:n ~f:step ());
  let dt = now () -. t0 in
  (float_of_int n /. dt, (Gc.allocated_bytes () -. a0) /. float_of_int n)

let () =
  let quick = Array.exists (fun a -> a = "quick") Sys.argv in
  let scale k = if quick then max 1 (k / 20) else k in
  (* 8M-word (64 MB) minor heap: measurement windows of a few hundred KB
     complete without a minor collection, so the clean-window accounting
     above discards almost nothing. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024 };
  let txn_result, (p50, p99), obs_json = bench_txn (scale 2_000) in
  let ops_e1, _ = bench_txn_nexec ~executors:1 (scale 2_000) in
  let nexec_result = bench_txn_nexec ~executors:4 (scale 2_000) in
  let codec_rows =
    List.map
      (fun (codec, codec_name) -> bench_codec ~codec ~codec_name (scale 2_000))
      [
        (Mrdb_core.Config.Physical, "physical");
        (Mrdb_core.Config.Logical, "logical");
      ]
  in
  let codec_json =
    Printf.sprintf
      "{\n    \"workload\": \"debit_credit\", \"iterations\": %d,\n    %s\n  }"
      (scale 2_000)
      (String.concat ",\n    " (List.map codec_row_json codec_rows))
  in
  List.iter
    (fun r ->
      Printf.printf
        "codec %-9s %7.1f log B/txn  %10.0f replay rec/s  cmd share %.2f\n"
        r.codec_name r.log_bytes_per_txn r.replay_records_per_sec
        r.cmd_record_share)
    codec_rows;
  let fill_result, fill_inserts, fill_first_ns, fill_last_ns =
    bench_partition_fill (max 20 (scale 200))
  in
  let results =
    [
      ("append", bench_append (scale 200_000), scale 200_000);
      ("append_hooked", bench_append ~hooked:true (scale 200_000), scale 200_000);
      ("append_obs", bench_append ~obs:true (scale 200_000), scale 200_000);
      ("drain", bench_drain (scale 200_000), scale 200_000);
      ("debit_credit", txn_result, scale 2_000);
      ("debit_credit_nexec", nexec_result, scale 2_000);
      ("crc32", bench_crc32 (scale 5_000), scale 5_000);
      ("partition_fill", fill_result, fill_inserts);
      ("replay", bench_replay (scale 400_000), scale 400_000);
    ]
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"schema\": \"mrdb-hotpath/3\",\n  \"mode\": \"%s\",\n"
       (if quick then "quick" else "full"));
  Buffer.add_string buf "  \"benches\": {\n";
  List.iteri
    (fun i (name, (ops, alloc), n) ->
      let latency =
        if name = "debit_credit" then
          Printf.sprintf ", \"latency_ns\": { \"p50\": %d, \"p99\": %d }" p50 p99
        else if name = "debit_credit_nexec" then
          Printf.sprintf ", \"executors\": 4, \"ops_per_sec_e1\": %.1f" ops_e1
        else if name = "crc32" then
          let bytes_per_sec = ops *. float_of_int crc_image_bytes in
          Printf.sprintf
            ", \"image_bytes\": %d, \"bytes_per_sec\": %.0f, \"ns_per_byte\": %.3f"
            crc_image_bytes bytes_per_sec (1e9 /. bytes_per_sec)
        else if name = "partition_fill" then
          Printf.sprintf
            ", \"partition_bytes\": %d, \"entity_bytes\": %d, \
             \"first_tenth_ns\": %.1f, \"last_tenth_ns\": %.1f"
            fill_partition_bytes fill_entity_bytes fill_first_ns fill_last_ns
        else if name = "replay" then
          Printf.sprintf ", \"partition_bytes\": %d, \"entity_bytes\": %d, \"ns_per_frame\": %.1f"
            replay_partition_bytes replay_entity_bytes (1e9 /. ops)
        else ""
      in
      Buffer.add_string buf
        (Printf.sprintf
           "    \"%s\": { \"ops_per_sec\": %.1f, \"allocated_bytes_per_op\": \
            %.1f, \"iterations\": %d%s }%s\n"
           name ops alloc n latency
           (if i = List.length results - 1 then "" else ","));
      Printf.printf "%-13s %12.0f ops/s  %8.1f B/op  (n=%d)\n" name ops alloc n)
    results;
  Buffer.add_string buf "  },\n  \"codec\": ";
  Buffer.add_string buf codec_json;
  Buffer.add_string buf ",\n  \"obs\": ";
  Buffer.add_string buf obs_json;
  Buffer.add_string buf "\n}\n";
  Printf.printf "debit_credit latency: p50=%dns p99=%dns\n" p50 p99;
  Printf.printf "partition_fill: %.1f ns/insert first tenth, %.1f last tenth\n"
    fill_first_ns fill_last_ns;
  let oc = open_out "BENCH.json" in
  output_string oc (Buffer.contents buf);
  close_out oc;
  (* Standalone copy of the sweep for the CI artifact. *)
  let oc = open_out "codec-sweep.json" in
  output_string oc codec_json;
  output_string oc "\n";
  close_out oc;
  print_endline "wrote BENCH.json, codec-sweep.json"
