(* Tests for the recovery substrate: the well-known stable area, and the
   analytic models of Section 3. *)

open Mrdb_storage

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let small_config =
  {
    Mrdb_wal.Stable_layout.slb_regions = 1;
    slb_block_bytes = 256;
    slb_block_count = 16;
    committed_capacity = 16;
    log_page_bytes = 512;
    page_pool_count = 8;
    bin_count = 8;
    dir_size = 3;
    wellknown_bytes = 1024;
  }

let mk_layout () =
  let mem =
    Mrdb_hw.Stable_mem.create
      ~size:(Mrdb_wal.Stable_layout.required_bytes small_config)
      ()
  in
  (mem, Mrdb_wal.Stable_layout.attach small_config mem)

let entries =
  [
    { Mrdb_recovery.Wellknown.part = { Addr.segment = 0; partition = 0 };
      ckpt_page = 17; pages = 2 };
    { Mrdb_recovery.Wellknown.part = { Addr.segment = 0; partition = 1 };
      ckpt_page = -1; pages = 0 };
  ]

let test_wellknown_roundtrip () =
  let _, layout = mk_layout () in
  Mrdb_recovery.Wellknown.store layout entries;
  match Mrdb_recovery.Wellknown.load layout with
  | None -> Alcotest.fail "load failed"
  | Some loaded ->
      check int_t "count" 2 (List.length loaded);
      let e0 = List.nth loaded 0 in
      check int_t "page" 17 e0.Mrdb_recovery.Wellknown.ckpt_page;
      check int_t "pages" 2 e0.Mrdb_recovery.Wellknown.pages;
      let e1 = List.nth loaded 1 in
      check int_t "no image" (-1) e1.Mrdb_recovery.Wellknown.ckpt_page

let test_wellknown_empty_memory () =
  let _, layout = mk_layout () in
  check bool_t "fresh memory has no entries" true
    (Mrdb_recovery.Wellknown.load layout = None)

let test_wellknown_survives_first_copy_corruption () =
  let mem, layout = mk_layout () in
  Mrdb_recovery.Wellknown.store layout entries;
  (* Smash the first copy; the duplicate must still load. *)
  let off = Mrdb_wal.Stable_layout.wellknown_off layout in
  Mrdb_hw.Stable_mem.fill mem ~off ~len:64 '\xFF';
  match Mrdb_recovery.Wellknown.load layout with
  | None -> Alcotest.fail "duplicate copy should survive"
  | Some loaded -> check int_t "entries from duplicate" 2 (List.length loaded)

let test_wellknown_survives_second_copy_corruption () =
  let mem, layout = mk_layout () in
  Mrdb_recovery.Wellknown.store layout entries;
  (* Smash the duplicate; the primary copy must still load. *)
  let off = Mrdb_wal.Stable_layout.wellknown_off layout in
  let half = small_config.Mrdb_wal.Stable_layout.wellknown_bytes / 2 in
  Mrdb_hw.Stable_mem.fill mem ~off:(off + half) ~len:64 '\xFF';
  match Mrdb_recovery.Wellknown.load layout with
  | None -> Alcotest.fail "primary copy should survive"
  | Some loaded -> check int_t "entries from primary" 2 (List.length loaded)

let test_wellknown_crc_detects_bit_rot () =
  (* A single flipped byte inside the first copy's payload must fail its
     CRC and route the load to the duplicate. *)
  let mem, layout = mk_layout () in
  Mrdb_recovery.Wellknown.store layout entries;
  let off = Mrdb_wal.Stable_layout.wellknown_off layout in
  let b = Mrdb_hw.Stable_mem.read mem ~off:(off + 8) ~len:1 in
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0x01));
  Mrdb_hw.Stable_mem.write mem ~off:(off + 8) b;
  match Mrdb_recovery.Wellknown.load layout with
  | None -> Alcotest.fail "duplicate copy should survive bit rot"
  | Some loaded ->
      check int_t "entries" 2 (List.length loaded);
      check int_t "payload intact" 17
        (List.hd loaded).Mrdb_recovery.Wellknown.ckpt_page

let test_wellknown_both_copies_corrupt () =
  let mem, layout = mk_layout () in
  Mrdb_recovery.Wellknown.store layout entries;
  let off = Mrdb_wal.Stable_layout.wellknown_off layout in
  Mrdb_hw.Stable_mem.fill mem ~off ~len:1024 '\xFF';
  check bool_t "unloadable" true (Mrdb_recovery.Wellknown.load layout = None)

let test_wellknown_overwrite () =
  let _, layout = mk_layout () in
  Mrdb_recovery.Wellknown.store layout entries;
  Mrdb_recovery.Wellknown.store layout [ List.hd entries ];
  match Mrdb_recovery.Wellknown.load layout with
  | Some [ _ ] -> ()
  | Some l -> Alcotest.failf "expected 1 entry, got %d" (List.length l)
  | None -> Alcotest.fail "load failed"

let test_wellknown_too_large () =
  let _, layout = mk_layout () in
  let many =
    List.init 200 (fun i ->
        { Mrdb_recovery.Wellknown.part = { Addr.segment = 0; partition = i };
          ckpt_page = i; pages = 1 })
  in
  Alcotest.check_raises "exceeds region"
    (Invalid_argument "Wellknown.store: entry list exceeds well-known region")
    (fun () -> Mrdb_recovery.Wellknown.store layout many)

(* -- recovery-component seam counters ---------------------------------------- *)

(* The extracted subsystem traces its own activity at each seam:
   Log_sorter bumps "sorter_drain_calls", Restorer bumps
   "restorer_partitions_restored", Ckpt_mgr bumps "ckpt_deferred_lock_held". *)

open Mrdb_core

let seam_count db name = Mrdb_sim.Trace.count (Db.trace db) name

let mk_seam_db () =
  let db = Db.create ~config:Config.small () in
  Db.create_relation db ~name:"t" ~schema:(Schema.of_list [ ("k", Schema.Int) ]);
  db

let test_sorter_drain_counter () =
  let db = mk_seam_db () in
  (* DDL already drained; every commit drains again. *)
  let before = seam_count db "sorter_drain_calls" in
  check bool_t "bootstrap + DDL drained" true (before > 0);
  Db.with_txn db (fun tx ->
      ignore (Db.insert db tx ~rel:"t" [| Schema.int 1 |]));
  check bool_t "commit drains" true (seam_count db "sorter_drain_calls" > before)

let test_sorter_streamed_counters () =
  let db = mk_seam_db () in
  let records0 = seam_count db "sorter_records_streamed" in
  let bytes0 = seam_count db "sorter_bytes_streamed" in
  let drains0 = seam_count db "sorter_drain_calls" in
  check bool_t "bootstrap streamed records" true (records0 > 0);
  check bool_t "streamed bytes track records" true (bytes0 > records0);
  Db.with_txn db (fun tx ->
      for i = 1 to 10 do
        ignore (Db.insert db tx ~rel:"t" [| Schema.int i |])
      done);
  Db.quiesce db;
  let records = seam_count db "sorter_records_streamed" - records0 in
  let bytes = seam_count db "sorter_bytes_streamed" - bytes0 in
  let drains = seam_count db "sorter_drain_calls" - drains0 in
  (* The streamed-volume counters are fed by the same iterator drain that
     bumps sorter_drain_calls: a commit drained its records and their
     encoded bytes (every record is at least a few bytes on the wire). *)
  check bool_t "drain happened" true (drains > 0);
  check bool_t "10 inserts streamed >= 10 records" true (records >= 10);
  check bool_t "bytes exceed records" true (bytes > records)

let test_restorer_partitions_counter () =
  let db = mk_seam_db () in
  Db.with_txn db (fun tx ->
      for i = 1 to 40 do
        ignore (Db.insert db tx ~rel:"t" [| Schema.int i |])
      done);
  Db.checkpoint_all db;
  Db.quiesce db;
  check int_t "no restores before crash" 0
    (seam_count db "restorer_partitions_restored");
  Db.crash db;
  Db.recover db;
  Db.with_txn db (fun tx -> ignore (Db.scan db tx ~rel:"t"));
  let restored = seam_count db "restorer_partitions_restored" in
  check bool_t "on-demand restores counted" true (restored > 0);
  (* The pre-existing aggregate counter and the new seam counter agree. *)
  check int_t "agrees with partitions_recovered" restored
    (Mrdb_sim.Trace.count (Db.trace db) "partitions_recovered")

let test_ckpt_deferred_counter () =
  let db = mk_seam_db () in
  let tx = Db.begin_txn db in
  let addr = Db.insert db tx ~rel:"t" [| Schema.int 1 |] in
  (* The open transaction holds IX on the relation, so the checkpoint's
     S lock is refused and the request is deferred, not run. *)
  let part = Db.partition_of_addr db ~rel:"t" addr in
  check int_t "counter starts at zero" 0 (seam_count db "ckpt_deferred_lock_held");
  (try
     Db.checkpoint_partition db part;
     Alcotest.fail "checkpoint should defer under a held lock"
   with Db.Aborted _ -> ());
  check int_t "deferral counted" 1 (seam_count db "ckpt_deferred_lock_held");
  Db.commit db tx;
  Db.checkpoint_partition db part;
  check int_t "no further deferrals" 1 (seam_count db "ckpt_deferred_lock_held")

let test_ensure_partition_uncatalogued_is_fatal () =
  (* An uncatalogued partition is an invariant violation, not an [Failure]:
     the restorer must raise the structured [Fatal.Invariant] its interface
     documents, tagged with the reporting module. *)
  let sim = Mrdb_sim.Sim.create () in
  let trace = Mrdb_sim.Trace.create () in
  let _, layout = mk_layout () in
  let log_disk = Mrdb_wal.Log_disk.create sim ~layout ~window_pages:8 () in
  let slt =
    Mrdb_wal.Slt.create ~layout ~log_disk
      ~on_checkpoint_request:(fun _ _ -> ())
      ()
  in
  let ckpt =
    Mrdb_hw.Disk.create sim
      ~params:(Mrdb_hw.Disk.default_ckpt_params ~page_bytes:512)
      ~capacity_pages:64
  in
  let env =
    Mrdb_recovery.Recovery_env.create ~sim ~trace ~ckpt_disk:(fun () -> ckpt)
      ~archiver:None ~partition_bytes:512
      ~obs:(Mrdb_obs.Obs.create ~now:(fun () -> Mrdb_sim.Sim.now sim) ())
  in
  let cat =
    Mrdb_storage.Catalog.create ~partition_bytes:512
      ~log:Mrdb_storage.Relation.null_sink
  in
  let r =
    Mrdb_recovery.Restorer.create ~env ~slt ~cat
      ~seq:(Addr.Partition_table.create 8)
      ~segments:(Hashtbl.create 8)
  in
  match
    Mrdb_recovery.Restorer.ensure_partition r { Addr.segment = 9; partition = 4 }
  with
  | () -> Alcotest.fail "uncatalogued partition should be fatal"
  | exception Mrdb_util.Fatal.Invariant { mod_; what } ->
      check Alcotest.string "tagged with the reporting module" "Restorer" mod_;
      check Alcotest.string "names the partition" "partition 9.4 not catalogued"
        what

let test_catalog_image_for_wrong_partition_is_fatal () =
  (* Catalog bootstrap and partition restore share one kernel, so a
     well-known entry that points at another partition's checkpoint image
     is refused exactly as a mis-catalogued data image is. *)
  let db = mk_seam_db () in
  Db.with_txn db (fun tx ->
      for i = 1 to 20 do
        ignore (Db.insert db tx ~rel:"t" [| Schema.int i |])
      done);
  let data_part = List.hd (Db.relation_partitions db ~rel:"t") in
  Db.checkpoint_partition db data_part;
  Db.quiesce db;
  let first_page, pages =
    match Db.checkpoint_location db data_part with
    | Some loc -> loc
    | None -> Alcotest.fail "data partition was not checkpointed"
  in
  Db.crash db;
  let layout =
    Mrdb_wal.Stable_layout.attach Config.small.Config.stable (Db.stable_mem db)
  in
  (match Mrdb_recovery.Wellknown.load layout with
  | Some (e :: rest) ->
      Mrdb_recovery.Wellknown.store layout
        ({ e with Mrdb_recovery.Wellknown.ckpt_page = first_page; pages } :: rest)
  | Some [] | None -> Alcotest.fail "no well-known catalog entries");
  match Db.recover db with
  | () -> Alcotest.fail "a catalog partition restored from a data image"
  | exception Mrdb_util.Fatal.Invariant { mod_; what } ->
      check Alcotest.string "tagged with the reporting module" "Restorer" mod_;
      check Alcotest.string "names the mismatch" "checkpoint image for wrong partition"
        what

(* -- analysis models -------------------------------------------------------- *)

module P = Mrdb_analysis.Params
module LM = Mrdb_analysis.Log_model
module CM = Mrdb_analysis.Ckpt_model
module RM = Mrdb_analysis.Recovery_model

let float_pos name v = check bool_t (name ^ " positive") true (v > 0.0)

let test_log_model_headline () =
  (* The §3.2 claim: ~4,000 debit/credit txn/s at the Table 2 point. *)
  let rate = LM.txn_rate P.default ~records_per_txn:4 in
  check bool_t "within the paper's ballpark" true (rate > 3_000.0 && rate < 5_000.0)

let test_log_model_monotone_in_record_size () =
  let cap s = LM.records_logged_per_s (P.with_sizes ~s_log_record:s P.default) in
  check bool_t "smaller records -> more records/s" true (cap 8 > cap 24 && cap 24 > cap 64)

let test_log_model_page_size_effect () =
  let cap s = LM.records_logged_per_s (P.with_sizes ~s_log_page:s P.default) in
  check bool_t "larger pages amortize overhead" true (cap 32768 > cap 4096)

let test_log_model_txn_rate_hyperbolic () =
  let r n = LM.txn_rate P.default ~records_per_txn:n in
  check (Alcotest.float 1e-6) "rate(2) = rate(1)/2" (r 1 /. 2.0) (r 2);
  Alcotest.check_raises "zero records" (Invalid_argument "Log_model.txn_rate")
    (fun () -> ignore (LM.txn_rate P.default ~records_per_txn:0))

let test_ckpt_model_bounds () =
  let p = P.default in
  let rate = 10_000.0 in
  let best = CM.best_case p ~records_per_s:rate in
  let worst = CM.worst_case p ~records_per_s:rate in
  float_pos "best" best;
  check bool_t "worst > best" true (worst > best);
  check (Alcotest.float 1e-9) "mixed(1) = best" best (CM.mixed p ~records_per_s:rate ~f_update:1.0);
  check (Alcotest.float 1e-9) "mixed(0) = worst" worst (CM.mixed p ~records_per_s:rate ~f_update:0.0);
  let mid = CM.mixed p ~records_per_s:rate ~f_update:0.5 in
  check bool_t "mixed between" true (mid > best && mid < worst);
  Alcotest.check_raises "bad fraction" (Invalid_argument "Ckpt_model.mixed") (fun () ->
      ignore (CM.mixed p ~records_per_s:rate ~f_update:1.5))

let test_ckpt_load_fraction_near_paper () =
  (* §3.3: ~1.5% of transactions are checkpoints at the 60% mix. *)
  let f = CM.checkpoint_load_fraction P.default ~records_per_txn:10 ~f_update:0.6 in
  check bool_t "1-3%" true (f > 0.01 && f < 0.03)

let test_ckpt_load_fraction_rate_independent () =
  (* The fraction formula is independent of logging rate by construction;
     checkpoint rates scale linearly instead. *)
  let p = P.default in
  let at rate = CM.mixed p ~records_per_s:rate ~f_update:0.6 in
  check (Alcotest.float 1e-9) "linear in rate" (2.0 *. at 1000.0) (at 2000.0)

let test_recovery_model_partition () =
  let est = RM.partition_recovery P.default () in
  float_pos "image read" est.RM.image_read_us;
  float_pos "log read" est.RM.log_read_us;
  check bool_t "total >= each component" true
    (est.RM.total_us >= est.RM.image_read_us && est.RM.total_us >= est.RM.apply_us);
  (* More log records -> more pages -> longer. *)
  let est2 = RM.partition_recovery P.default ~log_records:4000 () in
  check bool_t "more log is slower" true (est2.RM.total_us > est.RM.total_us)

let test_recovery_model_comparison () =
  let c = RM.compare_levels P.default ~n_partitions:100 () in
  check bool_t "db-level slower for first txn" true
    (c.RM.first_txn_db_us > c.RM.first_txn_partition_us);
  check bool_t "speedup approx n" true
    (c.RM.speedup_first_txn > 50.0 && c.RM.speedup_first_txn <= 110.0);
  (* First-txn latency flat in database size for partition-level. *)
  let c2 = RM.compare_levels P.default ~n_partitions:1000 () in
  check (Alcotest.float 1e-9) "flat partition-level"
    c.RM.first_txn_partition_us c2.RM.first_txn_partition_us;
  check bool_t "db-level linear" true
    (c2.RM.first_txn_db_us > 9.0 *. c.RM.first_txn_db_us)

let test_codec_model_shapes () =
  let module XM = Mrdb_analysis.Codec_model in
  let cp = XM.default in
  (* The byte ratio grows with update hotness (deltas displace the larger
     insert commands) and stays above 1 for the measured sizes. *)
  let r h = XM.bytes_ratio cp ~hotness:h in
  check bool_t "monotone in hotness" true (r 1.0 > r 0.5 && r 0.5 > r 0.0);
  check bool_t "always a win at measured sizes" true (r 0.0 > 1.0);
  (* At the defaults even an all-insert mix clears a 2x margin;
     fatten the physical record and the crossover moves into (0,1); make
     commands as big as images and it vanishes. *)
  check bool_t "crossover at 0 for measured sizes" true
    (XM.crossover_hotness cp ~margin:2.0 = Some 0.0);
  (match XM.crossover_hotness { cp with XM.s_cmd_insert = 20 } ~margin:2.0 with
  | Some h -> check bool_t "interior crossover" true (h > 0.0 && h < 1.0)
  | None -> Alcotest.fail "expected an interior crossover");
  check bool_t "no crossover when commands are as fat" true
    (XM.crossover_hotness
       { cp with XM.s_cmd_update = cp.XM.s_physical;
         XM.s_cmd_insert = cp.XM.s_physical }
       ~margin:2.0
    = None);
  (* Command apply costs more instructions than the image copy it
     replaces, so the predicted replay rate degrades with command share —
     matching the measured sweep (logical replays slightly slower). *)
  let rr s = XM.replay_rate_ratio P.default cp ~cmd_share:s in
  check (Alcotest.float 1e-9) "all-physical baseline" 1.0 (rr 0.0);
  check bool_t "command apply costs replay rate" true (rr 1.0 < 1.0 && rr 1.0 > 0.5);
  (* The logging side: smaller records raise the byte-limited capacity. *)
  check bool_t "capacity gain > 1" true
    (XM.logging_capacity_gain P.default cp ~hotness:0.75 > 1.0);
  let table =
    XM.crossover_table ~tuple_bytes:[ 16; 32; 64 ]
      ~hotness_steps:[ 0.0; 0.5; 1.0 ] cp
  in
  check int_t "table rows" 3 (List.length table);
  check bool_t "table series" true
    (List.for_all (fun (_, ys, _) -> List.length ys = 3) table);
  match XM.crossover_hotness cp ~margin:(-1.0) with
  | _ -> Alcotest.fail "expected Invalid_argument on a bad margin"
  | exception Invalid_argument _ -> ()

let test_params_rows_printable () =
  let rows = P.rows P.default in
  check bool_t "all named" true
    (List.for_all (fun (n, v, u) -> n <> "" && v <> "" && u <> "") rows);
  check bool_t "covers table 2" true (List.length rows >= 15)

let test_graph_series_shapes () =
  let g1 = LM.graph1 ~record_sizes:[ 8; 24; 64 ] ~page_sizes:[ 4096; 8192 ] P.default in
  check int_t "g1 rows" 3 (List.length g1);
  check bool_t "g1 two series" true (List.for_all (fun (_, ys) -> List.length ys = 2) g1);
  let g3 =
    CM.graph3 ~logging_rates:[ 1000.0; 2000.0 ] ~mixes:[ (1000, 1.0); (1000, 0.0) ]
      P.default
  in
  check bool_t "g3 worst above best everywhere" true
    (List.for_all (fun (_, ys) -> List.nth ys 1 > List.nth ys 0) g3)

(* -- replay kernel vs the list-based oracle ---------------------------------- *)

(* A random REDO stream for one partition of an all-Int relation, mixing
   physical and command records, every operation valid against the state
   built by its predecessors.  The stream is split across log pages (page
   images decoded to their payload frames) and a bin-buffer tail, and the
   watermark falls somewhere inside it: the base image holds the records
   at or below it.  Consecutive records are grouped into transactions of
   [run_len] records, and the stream may repeat a prefix of one
   transaction's run right after it — what a crash between a record's
   bin append and the ring-head advance leaves once restart drains the
   chain again.  [Restorer.replay] must then leave exactly the partition
   the list oracle ([Redo_oracle.apply_records]) does on the stream
   without the copy, with the same max seq, through the relation layer
   and without it. *)
let kernel_schema =
  Schema.of_list [ ("a", Schema.Int); ("b", Schema.Int); ("c", Schema.Int) ]

let kernel_rel_id = 3
let kernel_seg = 7
let kernel_part_bytes = 2048
let kernel_slots = 16

let row v = Tuple.encode kernel_schema [| Schema.I v; Schema.I (Int64.neg v); Schema.I 7L |]

(* Interpret (kind, slot hint, value) triples against a model of the live
   slots, so every record applies cleanly in order. *)
let kernel_stream ~run_len choices =
  let live = Array.make kernel_slots false in
  let pick_live s =
    let rec go i = if i = kernel_slots then None
      else let k = (s + i) mod kernel_slots in if live.(k) then Some k else go (i + 1) in
    go 0
  and pick_free s =
    let rec go i = if i = kernel_slots then None
      else let k = (s + i) mod kernel_slots in if live.(k) then go (i + 1) else Some k in
    go 0
  in
  List.mapi
    (fun i (kind, s, v) ->
      let seq = i + 1 and txn_id = (i / run_len) + 1 and v64 = Int64.of_int (v - 500) in
      let cmd op_id key args =
        Mrdb_wal.Log_record.make_cmd ~bin_index:0 ~txn_id ~seq
          ~cmd:(Mrdb_logical.Cmd_op.make ~op_id ~rel_id:kernel_rel_id ~key ~args)
      and phys op =
        Mrdb_wal.Log_record.make ~tag:Mrdb_wal.Log_record.Relation_op ~bin_index:0
          ~txn_id ~seq ~op
      in
      match (kind, pick_live s, pick_free s) with
      | (0 | 1), _, Some slot | _, None, Some slot ->
          live.(slot) <- true;
          if kind = 0 then phys (Part_op.Insert { slot; data = row v64 })
          else cmd Mrdb_logical.Replay.op_insert_ints slot [| v64; 1L; 2L |]
      | 2, Some slot, _ -> phys (Part_op.Update { slot; data = row v64 })
      | 3, Some slot, _ ->
          live.(slot) <- false;
          phys (Part_op.Delete { slot })
      | 4, Some slot, _ ->
          live.(slot) <- false;
          cmd Mrdb_logical.Replay.op_delete slot [||]
      | 5, Some slot, _ -> cmd (Mrdb_logical.Replay.op_add_col0 + (v mod 3)) slot [| v64 |]
      | 6, Some slot, _ -> cmd (Mrdb_logical.Replay.op_set_col0 + (v mod 3)) slot [| v64 |]
      | _, Some slot, _ -> cmd Mrdb_logical.Replay.op_add_i64 slot [| Int64.of_int (v mod 3); v64 |]
      | _, None, None -> assert false)
    choices

(* Frame the records and cut them into page payloads of at most [cuts]
   records each (and page capacity), the remainder forming the buffer
   tail. *)
let kernel_frames records ~cuts =
  let page_bytes = 512 and dir_size = 3 in
  let capacity = Mrdb_wal.Log_page.payload_capacity ~page_bytes ~dir_size in
  let page payload nrecords =
    let image =
      Mrdb_wal.Log_page.build ~page_bytes ~dir_size ~lsn:0L
        ~part:{ Addr.segment = kernel_seg; partition = 0 } ~prev_lsn:(-1L) ~dir:[||]
        ~payload ~nrecords
    in
    match Mrdb_wal.Log_page.decode ~page_bytes ~dir_size image with
    | Ok (_, frames) -> frames
    | Error e -> Alcotest.fail e
  in
  let rec go acc records cuts =
    match (records, cuts) with
    | [], _ -> List.rev acc
    | _, [] ->
        let tail = Redo_oracle.frame_records records in
        List.rev ({ Mrdb_wal.Log_page.buf = tail; pos = 0; len = Bytes.length tail } :: acc)
    | _, n :: cuts ->
        let rec take k used taken = function
          | r :: rest when k > 0 && used + Bytes.length (Redo_oracle.frame_record r) <= capacity ->
              take (k - 1) (used + Bytes.length (Redo_oracle.frame_record r)) (r :: taken) rest
          | rest -> (List.rev taken, rest)
        in
        let on_page, rest = take (max 1 n) 0 [] records in
        go (page (Redo_oracle.frame_records on_page) (List.length on_page) :: acc) rest cuts
  in
  go [] records cuts

let kernel_relation partition =
  let seg = Segment.create ~id:kernel_seg ~partition_bytes:kernel_part_bytes in
  Segment.install seg partition;
  Relation.create ~id:kernel_rel_id ~name:"t" ~schema:kernel_schema ~segment:seg

(* [records] with a copy of the first [p] records of run [j] inserted
   right after them (run and prefix length wrapped into range). *)
let with_repeat records ~run_len (j, p) =
  let n = List.length records in
  if n = 0 then records
  else
    let first = j mod ((n + run_len - 1) / run_len) * run_len in
    let stop = Stdlib.min n (first + 1 + (p mod run_len)) in
    List.concat
      (List.mapi
         (fun i r ->
           if i = stop - 1 then r :: List.filteri (fun k _ -> k >= first && k < stop) records
           else [ r ])
         records)

let prop_kernel_matches_oracle ~with_rel =
  let gen =
    QCheck.Gen.(
      pair
        (triple
           (list_size (int_range 0 60) (triple (int_bound 7) (int_bound 15) (int_bound 1000)))
           (float_bound_inclusive 1.0)
           (list_size (int_bound 6) (int_range 1 14)))
        (pair (int_range 1 4) (opt (pair nat nat))))
  in
  QCheck.Test.make ~count:300
    ~name:(if with_rel then "kernel == list oracle (relation target)"
           else "kernel == list oracle (partition target)")
    (QCheck.make gen)
    (fun ((choices, wfrac, cuts), (run_len, repeat)) ->
      let records = kernel_stream ~run_len choices in
      let stream =
        match repeat with
        | None -> records
        | Some jp -> with_repeat records ~run_len jp
      in
      let watermark = int_of_float (wfrac *. float_of_int (List.length records)) in
      let base = Partition.create ~size:kernel_part_bytes ~segment:kernel_seg ~partition:0 in
      let imaged =
        List.filter (fun (r : Mrdb_wal.Log_record.t) -> r.Mrdb_wal.Log_record.seq <= watermark) records
      in
      ignore
        (Redo_oracle.apply_records ~partition:base ~rel:(kernel_relation base) ~watermark:0 imaged
          : int);
      let image = Partition.snapshot base in
      let oracle = Partition.of_snapshot image and kernel = Partition.of_snapshot image in
      let oracle_max =
        Redo_oracle.apply_records ~partition:oracle
          ?rel:(if with_rel then Some (kernel_relation oracle) else None)
          ~watermark records
      in
      let replayed =
        Mrdb_recovery.Restorer.replay ~partition:kernel
          ?rel:(if with_rel then Some (lazy (kernel_relation kernel)) else None)
          ~watermark (kernel_frames stream ~cuts)
      in
      replayed.Mrdb_recovery.Restorer.max_seq = oracle_max
      && replayed.Mrdb_recovery.Restorer.frames = List.length stream
      && Bytes.equal (Partition.snapshot kernel) (Partition.snapshot oracle))

(* Seqs need not rise across transactions in one bin: a transaction that
   logged earlier can commit later.  Such a frame is a new run and
   applies; only a repeat within the same transaction's run is skipped. *)
let test_kernel_interleaved_runs () =
  let phys txn_id seq op =
    Mrdb_wal.Log_record.make ~tag:Mrdb_wal.Log_record.Relation_op ~bin_index:0 ~txn_id
      ~seq ~op
  and add txn_id seq slot =
    Mrdb_wal.Log_record.make_cmd ~bin_index:0 ~txn_id ~seq
      ~cmd:(Mrdb_logical.Cmd_op.make ~op_id:Mrdb_logical.Replay.op_add_col0
              ~rel_id:kernel_rel_id ~key:slot ~args:[| 1L |])
  in
  let committed =
    [
      phys 1 1 (Part_op.Insert { slot = 0; data = row 10L });
      phys 1 2 (Part_op.Insert { slot = 1; data = row 20L });
      add 3 4 1;
      add 2 3 0;
    ]
  in
  let fresh () = Partition.create ~size:kernel_part_bytes ~segment:kernel_seg ~partition:0 in
  let oracle = fresh () and kernel = fresh () in
  ignore (Redo_oracle.apply_records ~partition:oracle ~watermark:0 committed : int);
  let replayed =
    Mrdb_recovery.Restorer.replay ~partition:kernel ~watermark:0
      (kernel_frames (committed @ [ add 2 3 0 ]) ~cuts:[ 2 ])
  in
  check int_t "the repeat is skipped" 4 replayed.Mrdb_recovery.Restorer.applied;
  check bool_t "each record applied once" true
    (Bytes.equal (Partition.snapshot kernel) (Partition.snapshot oracle))

let () =
  Alcotest.run "mrdb_recovery+analysis"
    [
      ( "wellknown",
        [
          Alcotest.test_case "roundtrip" `Quick test_wellknown_roundtrip;
          Alcotest.test_case "fresh memory" `Quick test_wellknown_empty_memory;
          Alcotest.test_case "survives first-copy corruption" `Quick
            test_wellknown_survives_first_copy_corruption;
          Alcotest.test_case "survives second-copy corruption" `Quick
            test_wellknown_survives_second_copy_corruption;
          Alcotest.test_case "crc detects bit rot" `Quick test_wellknown_crc_detects_bit_rot;
          Alcotest.test_case "both copies corrupt" `Quick test_wellknown_both_copies_corrupt;
          Alcotest.test_case "overwrite" `Quick test_wellknown_overwrite;
          Alcotest.test_case "too large" `Quick test_wellknown_too_large;
        ] );
      ( "seam counters",
        [
          Alcotest.test_case "sorter_drain_calls" `Quick test_sorter_drain_counter;
          Alcotest.test_case "sorter streamed volume" `Quick test_sorter_streamed_counters;
          Alcotest.test_case "restorer_partitions_restored" `Quick
            test_restorer_partitions_counter;
          Alcotest.test_case "ckpt_deferred_lock_held" `Quick test_ckpt_deferred_counter;
          Alcotest.test_case "uncatalogued partition is a structured fatal" `Quick
            test_ensure_partition_uncatalogued_is_fatal;
          Alcotest.test_case "wrong-partition catalog image fatal" `Quick
            test_catalog_image_for_wrong_partition_is_fatal;
        ] );
      ( "log_model",
        [
          Alcotest.test_case "headline ~4000 txn/s" `Quick test_log_model_headline;
          Alcotest.test_case "monotone in record size" `Quick test_log_model_monotone_in_record_size;
          Alcotest.test_case "page size effect" `Quick test_log_model_page_size_effect;
          Alcotest.test_case "hyperbolic txn rate" `Quick test_log_model_txn_rate_hyperbolic;
        ] );
      ( "ckpt_model",
        [
          Alcotest.test_case "bounds" `Quick test_ckpt_model_bounds;
          Alcotest.test_case "load fraction near paper" `Quick test_ckpt_load_fraction_near_paper;
          Alcotest.test_case "linear in rate" `Quick test_ckpt_load_fraction_rate_independent;
        ] );
      ( "recovery_model",
        [
          Alcotest.test_case "partition estimate" `Quick test_recovery_model_partition;
          Alcotest.test_case "level comparison" `Quick test_recovery_model_comparison;
        ] );
      ( "replay kernel",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_kernel_matches_oracle ~with_rel:false;
            prop_kernel_matches_oracle ~with_rel:true;
          ]
        @ [
            Alcotest.test_case "interleaved runs apply, repeats do not" `Quick
              test_kernel_interleaved_runs;
          ] );
      ( "codec_model",
        [ Alcotest.test_case "tradeoff shapes" `Quick test_codec_model_shapes ] );
      ( "params",
        [
          Alcotest.test_case "rows printable" `Quick test_params_rows_printable;
          Alcotest.test_case "graph shapes" `Quick test_graph_series_shapes;
        ] );
    ]
