(* Tests for the WAL component: log records, pages, the Stable Log Buffer,
   partition bins, the log disk window, and the Stable Log Tail — including
   crash survival of every stable structure. *)

open Mrdb_storage
open Mrdb_wal

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int
let i64_t = Alcotest.int64

let part_a : Addr.partition = { Addr.segment = 1; partition = 0 }
let part_b : Addr.partition = { Addr.segment = 2; partition = 5 }

let small_config =
  {
    Stable_layout.slb_regions = 1;
    slb_block_bytes = 256;
    slb_block_count = 64;
    committed_capacity = 32;
    log_page_bytes = 512;
    page_pool_count = 16;
    bin_count = 16;
    dir_size = 3;
    wellknown_bytes = 512;
  }

let mk_layout ?(cfg = small_config) () =
  let mem = Mrdb_hw.Stable_mem.create ~size:(Stable_layout.required_bytes cfg) () in
  Stable_layout.attach cfg mem

let mk_record ?(tag = Log_record.Relation_op) ?(bin = 0) ?(txn = 1) ?(seq = 1)
    ?(slot = 0) ?(size = 16) () =
  Log_record.make ~tag ~bin_index:bin ~txn_id:txn ~seq
    ~op:(Part_op.Insert { slot; data = Bytes.make size 'r' })

(* -- Log_record ----------------------------------------------------------------- *)

let test_record_roundtrip () =
  let r =
    Log_record.make ~tag:Log_record.Index_op ~bin_index:42 ~txn_id:7 ~seq:99
      ~op:(Part_op.Update { slot = 3; data = Bytes.of_string "xyz" })
  in
  check bool_t "roundtrip" true (Log_record.equal r (Redo_oracle.decode (Redo_oracle.encode r)));
  check bool_t "size positive" true (Log_record.encoded_size r > 0)

let test_record_small_updates_are_small () =
  (* The paper: "common operations ... generate log records that are 8 to
     24 bytes in size".  A numeric field update should be compact. *)
  let r =
    Log_record.make ~tag:Log_record.Relation_op ~bin_index:3 ~txn_id:10 ~seq:5
      ~op:(Part_op.Update { slot = 2; data = Bytes.make 9 'v' })
  in
  check bool_t "under 24 bytes" true (Log_record.encoded_size r <= 24)

(* Golden equivalence: the zero-copy codec (encoded_size / encode_into,
   and the in-place readers the drain and replay use) must agree
   byte-for-byte with the allocating Enc/Dec reference codec on arbitrary
   records. *)
let gen_record =
  QCheck.Gen.(
    let* tag = oneofl [ Log_record.Relation_op; Index_op; Catalog_op ] in
    let* bin_index = int_bound 0xFFFF in
    let* txn_id = int_bound 0xFFFFFF in
    let* seq = int_bound 0xFFFFFFF in
    let* op =
      oneof
        [
          (let* slot = int_bound 0xFFFFF in
           let* data = string_size (int_bound 100) in
           let* upd = bool in
           let data = Bytes.of_string data in
           return
             (if upd then Part_op.Update { slot; data }
              else Part_op.Insert { slot; data }));
          (let* slot = int_bound 0xFFFFF in
           return (Part_op.Delete { slot }));
        ]
    in
    return (Log_record.make ~tag ~bin_index ~txn_id ~seq ~op))

let prop_record_codec_equivalence =
  QCheck.Test.make ~name:"zero-copy codec == reference codec" ~count:500
    (QCheck.make ~print:(Format.asprintf "%a" Log_record.pp) gen_record)
    (fun r ->
      let reference = Redo_oracle.encode r in
      let size = Log_record.encoded_size r in
      (* Frame the record mid-buffer so position handling is exercised. *)
      let pad = 7 in
      let buf = Bytes.make (pad + size + 5) '\xAA' in
      let stop = Log_record.encode_into r buf ~pos:pad in
      size = Bytes.length reference
      && stop = pad + size
      && Bytes.equal reference (Bytes.sub buf pad size)
      && Log_record.peek_bin_index buf ~pos:pad = r.Log_record.bin_index
      && Log_record.peek_seq buf ~pos:pad = r.Log_record.seq
      && (match r.Log_record.op with
         | Log_record.Physical op ->
             Log_record.body_at buf ~pos:pad = pad + size - Part_op.encoded_size op
         | Log_record.Command _ -> false (* gen_record draws physical records *))
      && Log_record.equal r (Redo_oracle.decode reference))

(* -- Log_page ----------------------------------------------------------------- *)

let test_page_roundtrip () =
  let records = List.init 5 (fun i -> mk_record ~seq:(i + 1) ~slot:i ()) in
  let payload = Bytes.concat Bytes.empty (List.map Redo_oracle.frame_record records) in
  let image =
    Log_page.build ~page_bytes:512 ~dir_size:3 ~lsn:17L ~part:part_a ~prev_lsn:16L
      ~dir:[| 10L; 11L; 12L |] ~payload ~nrecords:5
  in
  check int_t "image is page-sized" 512 (Bytes.length image);
  match Redo_oracle.parse_page ~page_bytes:512 ~dir_size:3 image with
  | Error e -> Alcotest.fail e
  | Ok (header, records') ->
      check i64_t "lsn" 17L header.Log_page.lsn;
      check i64_t "prev" 16L header.Log_page.prev_lsn;
      check bool_t "partition" true (Addr.equal_partition part_a header.Log_page.part);
      check int_t "dir" 3 (Array.length header.Log_page.dir);
      check int_t "records" 5 (List.length records');
      List.iter2
        (fun a b -> check bool_t "record equal" true (Log_record.equal a b))
        records records'

let test_page_detects_corruption () =
  let image =
    Log_page.build ~page_bytes:512 ~dir_size:3 ~lsn:1L ~part:part_a ~prev_lsn:(-1L)
      ~dir:[||] ~payload:(Redo_oracle.frame_record (mk_record ())) ~nrecords:1
  in
  Bytes.set image 100 '\xFF';
  check bool_t "crc catches flip" true
    (match Log_page.parse ~page_bytes:512 ~dir_size:3 image with
    | Error _ -> true
    | Ok _ -> false)

let test_page_rejects_oversized_payload () =
  Alcotest.check_raises "payload too large"
    (Invalid_argument "Log_page.build: payload too large") (fun () ->
      ignore
        (Log_page.build ~page_bytes:512 ~dir_size:3 ~lsn:1L ~part:part_a
           ~prev_lsn:(-1L) ~dir:[||] ~payload:(Bytes.make 500 'x') ~nrecords:1))

(* -- Slb ------------------------------------------------------------------------ *)

let test_slb_append_commit_drain () =
  let layout = mk_layout () in
  let slb = Slb.create layout in
  let r0 = Slb.region slb 0 in
  Slb.Region.append r0 ~txn_id:1 (mk_record ~txn:1 ~seq:1 ());
  Slb.Region.append r0 ~txn_id:2 (mk_record ~txn:2 ~seq:1 ());
  Slb.Region.append r0 ~txn_id:1 (mk_record ~txn:1 ~seq:2 ());
  check int_t "two uncommitted" 2 (Slb.uncommitted_count slb);
  Slb.Region.commit r0 ~txn_id:2;
  Slb.Region.commit r0 ~txn_id:1;
  check int_t "two pending" 2 (Slb.pending_committed slb);
  let order = ref [] in
  let n =
    Redo_oracle.drain slb ~f:(fun ~txn_id r ->
        order := (txn_id, r.Log_record.seq) :: !order)
  in
  check int_t "drained 2" 2 n;
  (* Commit order preserved: txn 2 first, then txn 1 with both records in
     append order. *)
  check
    (Alcotest.list (Alcotest.pair int_t int_t))
    "commit order + append order"
    [ (2, 1); (1, 1); (1, 2) ]
    (List.rev !order);
  check int_t "nothing pending" 0 (Slb.pending_committed slb)

let test_slb_abort_frees_blocks () =
  let layout = mk_layout () in
  let slb = Slb.create layout in
  let r0 = Slb.region slb 0 in
  let free0 = Slb.blocks_free slb in
  Slb.Region.append r0 ~txn_id:1 (mk_record ());
  check bool_t "block allocated" true (Slb.blocks_free slb < free0);
  Slb.abort slb ~txn_id:1;
  check int_t "blocks back" free0 (Slb.blocks_free slb);
  check int_t "no pending" 0 (Slb.pending_committed slb)

let test_slb_chains_span_blocks () =
  let layout = mk_layout () in
  let slb = Slb.create layout in
  let r0 = Slb.region slb 0 in
  for i = 1 to 20 do
    Slb.Region.append r0 ~txn_id:1 (mk_record ~seq:i ~size:60 ())
  done;
  check int_t "one uncommitted chain" 1 (Slb.uncommitted_count slb);
  Slb.Region.commit r0 ~txn_id:1;
  let seen = ref [] in
  ignore
    (Redo_oracle.drain slb ~f:(fun ~txn_id:_ r -> seen := r.Log_record.seq :: !seen));
  check int_t "records preserved" 20 (List.length !seen);
  check (Alcotest.list int_t) "order across blocks"
    (List.init 20 (fun i -> i + 1))
    (List.rev !seen)

let test_slb_exhaustion () =
  let layout = mk_layout () in
  let slb = Slb.create layout in
  let r0 = Slb.region slb 0 in
  Alcotest.check_raises "full" Slb.Slb_full (fun () ->
      for txn = 1 to 1000 do
        Slb.Region.append r0 ~txn_id:txn (mk_record ~txn ~size:100 ())
      done)

let test_slb_empty_commit_is_trivial () =
  let layout = mk_layout () in
  let slb = Slb.create layout in
  let r0 = Slb.region slb 0 in
  Slb.Region.commit r0 ~txn_id:42;
  check int_t "no ring entry" 0 (Slb.pending_committed slb)

let test_slb_survives_crash () =
  let cfg = small_config in
  let mem = Mrdb_hw.Stable_mem.create ~size:(Stable_layout.required_bytes cfg) () in
  let layout = Stable_layout.attach cfg mem in
  let slb = Slb.create layout in
  let r0 = Slb.region slb 0 in
  Slb.Region.append r0 ~txn_id:1 (mk_record ~txn:1 ~seq:1 ());
  Slb.Region.append r0 ~txn_id:1 (mk_record ~txn:1 ~seq:2 ());
  Slb.Region.commit r0 ~txn_id:1;
  (* txn 2 never commits: its records must vanish. *)
  Slb.Region.append r0 ~txn_id:2 (mk_record ~txn:2 ~seq:1 ());
  (* Crash: volatile structures discarded, stable memory survives. *)
  let layout' = Stable_layout.attach cfg mem in
  let slb' = Slb.recover layout' in
  check int_t "committed chain survives" 1 (Slb.pending_committed slb');
  let drained = Hashtbl.create 4 in
  ignore
    (Redo_oracle.drain slb' ~f:(fun ~txn_id _ ->
         Hashtbl.replace drained txn_id
           (1 + Option.value ~default:0 (Hashtbl.find_opt drained txn_id))));
  check (Alcotest.list (Alcotest.pair int_t int_t)) "txn1 intact" [ (1, 2) ]
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) drained []);
  (* Uncommitted blocks were reclaimed. *)
  check int_t "all blocks free" cfg.Stable_layout.slb_block_count (Slb.blocks_free slb')

let test_slb_ring_wraparound () =
  (* The committed ring's cursors are monotonic; slot reuse is mod
     capacity.  Push well past committed_capacity (32) in several
     commit/drain waves and verify every record still drains in commit
     order. *)
  let layout = mk_layout () in
  let slb = Slb.create layout in
  let r0 = Slb.region slb 0 in
  let next_txn = ref 0 in
  for _wave = 1 to 5 do
    let first = !next_txn in
    for _ = 1 to 20 do
      let txn = !next_txn in
      incr next_txn;
      Slb.Region.append r0 ~txn_id:txn (mk_record ~txn ~seq:1 ());
      Slb.Region.append r0 ~txn_id:txn (mk_record ~txn ~seq:2 ());
      Slb.Region.commit r0 ~txn_id:txn
    done;
    let order = ref [] in
    let n = Redo_oracle.drain slb ~f:(fun ~txn_id r -> order := (txn_id, r.Log_record.seq) :: !order) in
    check int_t "wave drained" 20 n;
    check
      (Alcotest.list (Alcotest.pair int_t int_t))
      "wave order"
      (List.concat_map (fun i -> [ (first + i, 1); (first + i, 2) ]) (List.init 20 Fun.id))
      (List.rev !order)
  done;
  check int_t "100 commits through a 32-slot ring" 100 !next_txn

let test_slb_ring_wrap_crash_recover () =
  (* Wrap the ring, then crash with undrained commits straddling the wrap
     point: recover must walk head..tail-1 mod capacity and preserve both
     the entries and their chains. *)
  let cfg = small_config in
  let mem = Mrdb_hw.Stable_mem.create ~size:(Stable_layout.required_bytes cfg) () in
  let layout = Stable_layout.attach cfg mem in
  let slb = Slb.create layout in
  let r0 = Slb.region slb 0 in
  (* Advance the cursors to 24 of 32 so the next 16 commits wrap. *)
  for txn = 1 to 24 do
    Slb.Region.append r0 ~txn_id:txn (mk_record ~txn ~seq:1 ());
    Slb.Region.commit r0 ~txn_id:txn
  done;
  ignore (Redo_oracle.drain slb ~f:(fun ~txn_id:_ _ -> ()));
  for txn = 100 to 115 do
    Slb.Region.append r0 ~txn_id:txn (mk_record ~txn ~seq:1 ());
    Slb.Region.append r0 ~txn_id:txn (mk_record ~txn ~seq:2 ());
    Slb.Region.commit r0 ~txn_id:txn
  done;
  (* Crash: volatile state gone, stable memory (wrapped ring) survives. *)
  let layout' = Stable_layout.attach cfg mem in
  let slb' = Slb.recover layout' in
  check int_t "wrapped commits survive" 16 (Slb.pending_committed slb');
  let order = ref [] in
  ignore (Redo_oracle.drain slb' ~f:(fun ~txn_id r -> order := (txn_id, r.Log_record.seq) :: !order));
  check
    (Alcotest.list (Alcotest.pair int_t int_t))
    "wrapped order intact"
    (List.concat_map (fun i -> [ (100 + i, 1); (100 + i, 2) ]) (List.init 16 Fun.id))
    (List.rev !order);
  check int_t "all blocks free after drain" cfg.Stable_layout.slb_block_count
    (Slb.blocks_free slb')

(* -- Log_disk ---------------------------------------------------------------- *)

let mk_log_disk ?(window = 8) () =
  let sim = Mrdb_sim.Sim.create () in
  let layout = mk_layout () in
  (sim, layout, Log_disk.create sim ~layout ~window_pages:window ())

let mk_image layout ~lsn ?(part = part_a) ?(prev = -1L) ?(dir = [||]) records =
  let cfg = Stable_layout.config layout in
  let payload = Bytes.concat Bytes.empty (List.map Redo_oracle.frame_record records) in
  Log_page.build ~page_bytes:cfg.Stable_layout.log_page_bytes
    ~dir_size:cfg.Stable_layout.dir_size ~lsn ~part ~prev_lsn:prev ~dir ~payload
    ~nrecords:(List.length records)

let test_log_disk_write_read () =
  let sim, layout, ld = mk_log_disk () in
  let lsn = Log_disk.alloc_lsn ld in
  check i64_t "first lsn" 0L lsn;
  let image = mk_image layout ~lsn [ mk_record () ] in
  let got = ref None in
  Log_disk.write_page ld ~lsn image (fun () ->
      Log_disk.read_page ld ~lsn (fun r -> got := Some r));
  Mrdb_sim.Sim.run sim;
  check bool_t "read ok" true
    (match !got with
    | Some (Ok ((h, _) as page)) ->
        h.Log_page.lsn = lsn && List.length (Redo_oracle.page_records page) = 1
    | _ -> false)

let test_log_disk_window_reuse () =
  let sim, layout, ld = mk_log_disk ~window:4 () in
  (* Write 6 pages through a 4-page window: LSNs 0 and 1 get overwritten. *)
  for _ = 0 to 5 do
    let lsn = Log_disk.alloc_lsn ld in
    Log_disk.write_page ld ~lsn (mk_image layout ~lsn [ mk_record () ]) (fun () -> ())
  done;
  Mrdb_sim.Sim.run sim;
  check i64_t "window start" 2L (Log_disk.window_start ld);
  check bool_t "old lsn out of window" false (Log_disk.in_window ld 0L);
  let result = ref None in
  Log_disk.read_page ld ~lsn:0L (fun r -> result := Some r);
  Mrdb_sim.Sim.run sim;
  check bool_t "read of aged lsn errors" true
    (match !result with Some (Error _) -> true | _ -> false);
  (* In-window page still reads fine and detects its own identity. *)
  let ok = ref false in
  Log_disk.read_page ld ~lsn:5L (fun r ->
      ok := match r with Ok (h, _) -> h.Log_page.lsn = 5L | Error _ -> false);
  Mrdb_sim.Sim.run sim;
  check bool_t "lsn 5 fine" true !ok

let test_log_disk_lsn_is_stable () =
  let sim, layout, ld = mk_log_disk () in
  ignore sim;
  ignore (Log_disk.alloc_lsn ld);
  ignore (Log_disk.alloc_lsn ld);
  check i64_t "lsn counter persisted" 2L (Stable_layout.next_lsn layout)

(* A log disk with one written page (LSN 0, three records), the given
   mirrors corrupted, read back once.  The duplex-level CRC is the only
   checksum on this path, so it alone must decide acceptance. *)
let read_after_corrupting mirrors =
  let sim, layout, ld = mk_log_disk () in
  let lsn = Log_disk.alloc_lsn ld in
  let records = List.init 3 (fun i -> mk_record ~seq:(i + 1) ~slot:i ()) in
  Log_disk.write_page ld ~lsn (mk_image layout ~lsn records) (fun () -> ());
  Mrdb_sim.Sim.run sim;
  let duplex = Log_disk.duplex ld in
  List.iter
    (fun side ->
      let disk =
        match side with
        | `Primary -> Mrdb_hw.Duplex.primary duplex
        | `Mirror -> Mrdb_hw.Duplex.mirror duplex
      in
      Mrdb_hw.Disk.corrupt_page disk ~page:0 ~at:100 ~len:4)
    mirrors;
  let got = ref None in
  Log_disk.read_page ld ~lsn (fun r -> got := Some r);
  Mrdb_sim.Sim.run sim;
  (ld, !got)

let test_log_disk_primary_corrupt_falls_back () =
  let ld, got = read_after_corrupting [ `Primary ] in
  (match got with
  | Some (Ok ((h, _) as page)) ->
      check i64_t "lsn" 0L h.Log_page.lsn;
      check (Alcotest.list int_t) "mirror's records" [ 1; 2; 3 ]
        (List.map (fun r -> r.Log_record.seq) (Redo_oracle.page_records page))
  | Some (Error e) -> Alcotest.fail (Log_disk.read_error_to_string e)
  | None -> Alcotest.fail "no result");
  check bool_t "checksum failure counted" true
    (Mrdb_sim.Trace.count (Log_disk.trace ld) "duplex_read_checksum_failures" > 0)

let test_log_disk_both_corrupt_unreadable () =
  let _, got = read_after_corrupting [ `Primary; `Mirror ] in
  check bool_t "unreadable" true
    (match got with
    | Some (Error (Log_disk.Unreadable { lsn = 0L; _ })) -> true
    | _ -> false)

(* -- Partition_bin ------------------------------------------------------------- *)

let test_bin_activate_load () =
  let layout = mk_layout () in
  let bin = Partition_bin.activate layout ~idx:3 part_b in
  check bool_t "address" true (Addr.equal_partition part_b (Partition_bin.partition bin));
  check int_t "updates 0" 0 (Partition_bin.update_count bin);
  check i64_t "no first lsn" (-1L) (Partition_bin.first_lsn bin);
  match Partition_bin.load layout ~idx:3 with
  | None -> Alcotest.fail "bin should load"
  | Some bin' ->
      check bool_t "loaded address" true
        (Addr.equal_partition part_b (Partition_bin.partition bin'));
      check bool_t "slot 4 unused" true (Partition_bin.load layout ~idx:4 = None)

let test_bin_append_and_counts () =
  let layout = mk_layout () in
  let bin = Partition_bin.activate layout ~idx:0 part_a in
  for i = 1 to 5 do
    match Redo_oracle.bin_append bin (mk_record ~seq:i ()) with
    | `Buffered -> ()
    | `Page_full -> Alcotest.fail "should fit"
  done;
  check int_t "update count" 5 (Partition_bin.update_count bin);
  check int_t "buffered" 5 (Partition_bin.buffered_records bin);
  check bool_t "outstanding" true (Partition_bin.has_outstanding bin)

let test_bin_seal_and_flush () =
  let sim = Mrdb_sim.Sim.create () in
  let layout = mk_layout () in
  let ld = Log_disk.create sim ~layout ~window_pages:8 () in
  let bin = Partition_bin.activate layout ~idx:0 part_a in
  ignore (Redo_oracle.bin_append bin (mk_record ~seq:1 ()));
  ignore (Redo_oracle.bin_append bin (mk_record ~seq:2 ()));
  match Partition_bin.seal_page bin ~log_disk:ld with
  | None -> Alcotest.fail "should seal"
  | Some (lsn, image) ->
      check i64_t "lsn 0" 0L lsn;
      check i64_t "first lsn set" 0L (Partition_bin.first_lsn bin);
      check int_t "pages written" 1 (Partition_bin.pages_written bin);
      check int_t "buffer empty" 0 (Partition_bin.buffered_records bin);
      check (Alcotest.list i64_t) "in flight" [ 0L ] (Partition_bin.inflight_lsns bin);
      check bool_t "stable inflight image readable" true
        (Partition_bin.read_inflight bin ~lsn = Some image);
      Log_disk.write_page ld ~lsn image (fun () -> Partition_bin.flush_complete bin ~lsn);
      Mrdb_sim.Sim.run sim;
      check (Alcotest.list i64_t) "flight complete" [] (Partition_bin.inflight_lsns bin)

let test_bin_directory_spans () =
  let sim = Mrdb_sim.Sim.create () in
  let layout = mk_layout () in
  (* dir_size = 3. *)
  let ld = Log_disk.create sim ~layout ~window_pages:16 () in
  let bin = Partition_bin.activate layout ~idx:0 part_a in
  let embedded = ref [] in
  for page = 1 to 5 do
    ignore (Redo_oracle.bin_append bin (mk_record ~seq:page ()));
    match Partition_bin.seal_page bin ~log_disk:ld with
    | None -> Alcotest.fail "seal"
    | Some (lsn, image) ->
        (match Log_page.parse ~page_bytes:512 ~dir_size:3 image with
        | Ok (h, _) -> if Array.length h.Log_page.dir > 0 then embedded := (page, h.Log_page.dir) :: !embedded
        | Error e -> Alcotest.fail e);
        Log_disk.write_page ld ~lsn image (fun () -> Partition_bin.flush_complete bin ~lsn);
        Mrdb_sim.Sim.run sim
  done;
  (* Pages 1-3 form span 0; page 4 embeds its directory; current dir = [3;4] lsns. *)
  check int_t "one embedded directory" 1 (List.length !embedded);
  (match !embedded with
  | [ (4, dir) ] -> check (Alcotest.list i64_t) "span 0 lsns" [ 0L; 1L; 2L ] (Array.to_list dir)
  | _ -> Alcotest.fail "directory embedded in wrong page");
  check (Alcotest.list i64_t) "current span" [ 3L; 4L ]
    (Array.to_list (Partition_bin.directory bin))

let test_bin_reset_after_checkpoint () =
  let sim = Mrdb_sim.Sim.create () in
  let layout = mk_layout () in
  let ld = Log_disk.create sim ~layout ~window_pages:8 () in
  let bin = Partition_bin.activate layout ~idx:0 part_a in
  ignore (Redo_oracle.bin_append bin (mk_record ()));
  (match Partition_bin.seal_page bin ~log_disk:ld with
  | Some (lsn, image) ->
      Log_disk.write_page ld ~lsn image (fun () -> Partition_bin.flush_complete bin ~lsn)
  | None -> Alcotest.fail "seal");
  Mrdb_sim.Sim.run sim;
  ignore (Redo_oracle.bin_append bin (mk_record ~seq:2 ()));
  Partition_bin.reset_after_checkpoint bin;
  check int_t "updates zero" 0 (Partition_bin.update_count bin);
  check i64_t "first lsn cleared" (-1L) (Partition_bin.first_lsn bin);
  check int_t "buffer cleared" 0 (Partition_bin.buffered_records bin);
  check bool_t "no longer outstanding" false (Partition_bin.has_outstanding bin)

let test_bin_state_survives_crash () =
  let cfg = small_config in
  let mem = Mrdb_hw.Stable_mem.create ~size:(Stable_layout.required_bytes cfg) () in
  let layout = Stable_layout.attach cfg mem in
  let sim = Mrdb_sim.Sim.create () in
  let ld = Log_disk.create sim ~layout ~window_pages:8 () in
  let bin = Partition_bin.activate layout ~idx:0 part_a in
  for i = 1 to 3 do
    ignore (Redo_oracle.bin_append bin (mk_record ~seq:i ()))
  done;
  (match Partition_bin.seal_page bin ~log_disk:ld with
  | Some (lsn, image) ->
      Log_disk.write_page ld ~lsn image (fun () -> Partition_bin.flush_complete bin ~lsn)
  | None -> Alcotest.fail "seal");
  Mrdb_sim.Sim.run sim;
  ignore (Redo_oracle.bin_append bin (mk_record ~seq:4 ()));
  (* Crash: reload from the same stable memory. *)
  let layout' = Stable_layout.attach cfg mem in
  match Partition_bin.load layout' ~idx:0 with
  | None -> Alcotest.fail "bin lost"
  | Some bin' ->
      check int_t "update count survived" 4 (Partition_bin.update_count bin');
      check i64_t "first lsn survived" 0L (Partition_bin.first_lsn bin');
      check int_t "buffered record survived" 1 (Partition_bin.buffered_records bin');
      check (Alcotest.list i64_t) "directory survived" [ 0L ]
        (Array.to_list (Partition_bin.directory bin'))

(* -- Slt ----------------------------------------------------------------------- *)

type slt_world = {
  sim : Mrdb_sim.Sim.t;
  mem : Mrdb_hw.Stable_mem.t;
  layout : Stable_layout.t;
  ld : Log_disk.t;
  slt : Slt.t;
  requests : (Addr.partition * Slt.trigger) list ref;
}

let mk_slt ?(cfg = small_config) ?(n_update = 10) ?(window = 32) () =
  let sim = Mrdb_sim.Sim.create () in
  let mem = Mrdb_hw.Stable_mem.create ~size:(Stable_layout.required_bytes cfg) () in
  let layout = Stable_layout.attach cfg mem in
  let ld = Log_disk.create sim ~layout ~window_pages:window () in
  let requests = ref [] in
  let slt =
    Slt.create ~layout ~log_disk:ld ~n_update
      ~on_checkpoint_request:(fun part trig -> requests := (part, trig) :: !requests)
      ()
  in
  { sim; mem; layout; ld; slt; requests }

let record_for w ?(tag = Log_record.Relation_op) ~txn ~seq ?(slot = 0) ?(size = 16) part =
  Log_record.make ~tag ~bin_index:(Slt.bin_index_of w.slt part) ~txn_id:txn ~seq
    ~op:(Part_op.Insert { slot; data = Bytes.make size 'd' })

let test_slt_bin_assignment () =
  let w = mk_slt () in
  let i1 = Slt.bin_index_of w.slt part_a in
  let i2 = Slt.bin_index_of w.slt part_b in
  check bool_t "distinct bins" true (i1 <> i2);
  check int_t "stable" i1 (Slt.bin_index_of w.slt part_a);
  check bool_t "bin exists" true (Slt.find_bin w.slt part_a <> None)

let test_slt_accept_and_flush () =
  let w = mk_slt () in
  (* 512-byte pages hold a handful of ~30-byte frames; push enough to force
     page writes. *)
  for i = 1 to 40 do
    Redo_oracle.accept w.slt (record_for w ~txn:1 ~seq:i part_a)
  done;
  Mrdb_sim.Sim.run w.sim;
  let bin = Option.get (Slt.find_bin w.slt part_a) in
  check bool_t "pages written" true (Partition_bin.pages_written bin > 0);
  check bool_t "no stuck flights" true (Partition_bin.inflight_lsns bin = []);
  check int_t "nothing pending" 0 (Slt.pending_page_writes w.slt)

let test_slt_update_count_trigger () =
  let w = mk_slt ~n_update:10 () in
  for i = 1 to 10 do
    Redo_oracle.accept w.slt (record_for w ~txn:1 ~seq:i part_a)
  done;
  check bool_t "checkpoint requested once" true
    (!(w.requests) = [ (part_a, Slt.Update_count) ]);
  (* More records do not duplicate the request. *)
  Redo_oracle.accept w.slt (record_for w ~txn:1 ~seq:11 part_a);
  check int_t "still one" 1 (List.length !(w.requests))

let test_slt_age_trigger () =
  (* Window of 8 pages, grace 1: a cold partition with one old page must be
     checkpointed as hot traffic advances the window. *)
  let w = mk_slt ~n_update:1_000_000 ~window:8 () in
  ignore (Slt.bin_index_of w.slt part_a);
  Redo_oracle.accept w.slt (record_for w ~txn:1 ~seq:1 part_a);
  Slt.flush_partition w.slt part_a;
  Mrdb_sim.Sim.run w.sim;
  (* Hot partition writes many pages. *)
  let seq = ref 0 in
  for _ = 1 to 200 do
    incr seq;
    Redo_oracle.accept w.slt (record_for w ~txn:1 ~seq:!seq ~size:100 part_b)
  done;
  Mrdb_sim.Sim.run w.sim;
  check bool_t "age trigger fired for cold partition" true
    (List.exists (fun (p, trig) -> Addr.equal_partition p part_a && trig = Slt.Age)
       !(w.requests))

let test_slt_checkpoint_finished_resets () =
  let w = mk_slt ~n_update:5 () in
  for i = 1 to 5 do
    Redo_oracle.accept w.slt (record_for w ~txn:1 ~seq:i part_a)
  done;
  check int_t "requested" 1 (List.length !(w.requests));
  Slt.checkpoint_finished w.slt part_a ~watermark:max_int;
  Mrdb_sim.Sim.run w.sim;
  let bin = Option.get (Slt.find_bin w.slt part_a) in
  check int_t "counts reset" 0 (Partition_bin.update_count bin);
  check bool_t "inactive" false (Partition_bin.has_outstanding bin);
  (* Trigger can fire again after reset. *)
  for i = 1 to 5 do
    Redo_oracle.accept w.slt (record_for w ~txn:2 ~seq:(100 + i) part_a)
  done;
  check int_t "requested again" 2 (List.length !(w.requests))

let test_slt_records_for_recovery_roundtrip () =
  let w = mk_slt ~n_update:1_000_000 () in
  let n = 120 in
  for i = 1 to n do
    Redo_oracle.accept w.slt (record_for w ~txn:1 ~seq:i ~size:40 part_a)
  done;
  Mrdb_sim.Sim.run w.sim;
  let result = ref None in
  Redo_oracle.records_for_recovery w.slt part_a (fun r -> result := Some r);
  Mrdb_sim.Sim.run w.sim;
  match !result with
  | Some (Ok records) ->
      check int_t "all records recovered" n (List.length records);
      check (Alcotest.list int_t) "in original order" (List.init n (fun i -> i + 1))
        (List.map (fun r -> r.Log_record.seq) records)
  | Some (Error e) -> Alcotest.fail e
  | None -> Alcotest.fail "no result"

let test_slt_recovery_includes_buffered_and_inflight () =
  let w = mk_slt ~n_update:1_000_000 () in
  for i = 1 to 30 do
    Redo_oracle.accept w.slt (record_for w ~txn:1 ~seq:i ~size:40 part_a)
  done;
  (* Do NOT run the simulator: disk writes are still in flight, and some
     records remain buffered.  Recovery must still see everything, reading
     in-flight pages from stable memory. *)
  let result = ref None in
  Redo_oracle.records_for_recovery w.slt part_a (fun r -> result := Some r);
  Mrdb_sim.Sim.run w.sim;
  match !result with
  | Some (Ok records) ->
      check int_t "all 30" 30 (List.length records);
      check (Alcotest.list int_t) "ordered" (List.init 30 (fun i -> i + 1))
        (List.map (fun r -> r.Log_record.seq) records)
  | Some (Error e) -> Alcotest.fail e
  | None -> Alcotest.fail "no result"

let find_sub hay needle =
  let n = Bytes.length needle in
  let rec go i =
    if i + n > Bytes.length hay then None
    else if Bytes.equal (Bytes.sub hay i n) needle then Some i
    else go (i + 1)
  in
  go 0

(* Pages whose disk writes are still in flight are read back from their
   stable-memory shadow, which no duplex read has checksummed: that path
   must keep the checking parse.  Tear the oldest in-flight image — its
   last 16 bytes, trailing CRC included, never reached stable memory, as a
   crash mid-copy leaves it — and recovery must reject it.  The records
   themselves are intact, so only the CRC can tell. *)
let test_slt_torn_inflight_rejected () =
  let w = mk_slt ~n_update:1_000_000 () in
  for i = 1 to 30 do
    Redo_oracle.accept w.slt (record_for w ~txn:1 ~seq:i ~size:40 part_a)
  done;
  let bin = Option.get (Slt.find_bin w.slt part_a) in
  let lsn = List.fold_left min Int64.max_int (Partition_bin.inflight_lsns bin) in
  check bool_t "several pages in flight" true
    (List.length (Partition_bin.inflight_lsns bin) >= 2);
  let image = Option.get (Partition_bin.read_inflight bin ~lsn) in
  let mem_size = Mrdb_hw.Stable_mem.size w.mem in
  let off =
    Option.get (find_sub (Mrdb_hw.Stable_mem.read w.mem ~off:0 ~len:mem_size) image)
  in
  Mrdb_hw.Stable_mem.fill w.mem ~off:(off + Bytes.length image - 16) ~len:16 '\000';
  let result = ref None in
  Redo_oracle.records_for_recovery w.slt part_a (fun r -> result := Some r);
  Mrdb_sim.Sim.run w.sim;
  match !result with
  | Some (Error e) ->
      check bool_t "names the in-flight image" true
        (Option.is_some (find_sub (Bytes.of_string e) (Bytes.of_string "inflight image")))
  | Some (Ok _) -> Alcotest.fail "torn in-flight image decoded"
  | None -> Alcotest.fail "no result"

let test_slt_survives_crash () =
  let cfg = small_config in
  let w = mk_slt ~cfg ~n_update:1_000_000 () in
  for i = 1 to 50 do
    Redo_oracle.accept w.slt (record_for w ~txn:1 ~seq:i ~size:40 part_a)
  done;
  for i = 1 to 7 do
    Redo_oracle.accept w.slt (record_for w ~txn:2 ~seq:i part_b)
  done;
  Mrdb_sim.Sim.run w.sim;
  (* Crash: rebuild layout + SLT over the same stable memory and disk. *)
  let layout' = Stable_layout.attach cfg w.mem in
  let sim' = w.sim in
  ignore sim';
  let ld' =
    (* The log disk device object survives (its contents are durable); in a
       real system the device is re-opened.  Here we reuse the duplex pair
       by creating a fresh Log_disk over the same layout: the window
       position is stable, but the disk contents live in the old duplex —
       so reuse the existing one via the original Log_disk handle. *)
    Slt.log_disk w.slt
  in
  let requests' = ref [] in
  let slt' =
    Slt.recover ~layout:layout' ~log_disk:ld' ~n_update:1_000_000
      ~on_checkpoint_request:(fun p t -> requests' := (p, t) :: !requests')
      ()
  in
  check int_t "two active partitions" 2 (List.length (Slt.active_partitions slt'));
  let result = ref None in
  Redo_oracle.records_for_recovery slt' part_a (fun r -> result := Some r);
  Mrdb_sim.Sim.run w.sim;
  (match !result with
  | Some (Ok records) ->
      check int_t "partition A records" 50 (List.length records);
      check (Alcotest.list int_t) "ordered after crash" (List.init 50 (fun i -> i + 1))
        (List.map (fun r -> r.Log_record.seq) records)
  | Some (Error e) -> Alcotest.fail e
  | None -> Alcotest.fail "no result");
  let result_b = ref None in
  Redo_oracle.records_for_recovery slt' part_b (fun r -> result_b := Some r);
  Mrdb_sim.Sim.run w.sim;
  match !result_b with
  | Some (Ok records) -> check int_t "partition B buffered records" 7 (List.length records)
  | Some (Error e) -> Alcotest.fail e
  | None -> Alcotest.fail "no result"

let test_slt_window_pressure () =
  let w = mk_slt ~n_update:1_000_000 ~window:8 () in
  check (Alcotest.float 0.001) "no pressure when idle" 0.0 (Slt.window_pressure w.slt);
  Redo_oracle.accept w.slt (record_for w ~txn:1 ~seq:1 part_a);
  Slt.flush_partition w.slt part_a;
  Mrdb_sim.Sim.run w.sim;
  check bool_t "some pressure" true (Slt.window_pressure w.slt > 0.0)


(* -- checkpoint cut protocol (shadow generations) ---------------------------- *)

let test_cut_and_discard () =
  let w = mk_slt ~n_update:1_000_000 () in
  for i = 1 to 30 do
    Redo_oracle.accept w.slt (record_for w ~txn:1 ~seq:i ~size:40 part_a)
  done;
  Mrdb_sim.Sim.run w.sim;
  let bin = Option.get (Slt.find_bin w.slt part_a) in
  check bool_t "no shadow yet" false (Partition_bin.has_shadow bin);
  (* Cut: everything so far becomes the shadow generation. *)
  check bool_t "cut taken" true (Slt.begin_checkpoint w.slt part_a = `Cut);
  check bool_t "shadow exists" true (Partition_bin.has_shadow bin);
  check int_t "live buffer empty" 0 (Partition_bin.buffered_records bin);
  check i64_t "live chain empty" (-1L) (Partition_bin.first_lsn bin);
  check int_t "update count reset at cut" 0 (Partition_bin.update_count bin);
  (* Post-cut records build the live generation. *)
  for i = 31 to 35 do
    Redo_oracle.accept w.slt (record_for w ~txn:2 ~seq:i part_a)
  done;
  (* Recovery before the discard sees both generations in order. *)
  let result = ref None in
  Redo_oracle.records_for_recovery w.slt part_a (fun r -> result := Some r);
  Mrdb_sim.Sim.run w.sim;
  (match !result with
  | Some (Ok records) ->
      check (Alcotest.list int_t) "shadow then live, in order"
        (List.init 35 (fun i -> i + 1))
        (List.map (fun r -> r.Log_record.seq) records)
  | Some (Error e) -> Alcotest.fail e
  | None -> Alcotest.fail "no result");
  (* Commit the checkpoint: shadow discarded, live survives. *)
  Slt.checkpoint_finished w.slt part_a ~watermark:30;
  check bool_t "shadow gone" false (Partition_bin.has_shadow bin);
  let result2 = ref None in
  Redo_oracle.records_for_recovery w.slt part_a (fun r -> result2 := Some r);
  Mrdb_sim.Sim.run w.sim;
  match !result2 with
  | Some (Ok records) ->
      check (Alcotest.list int_t) "only post-cut records remain" [ 31; 32; 33; 34; 35 ]
        (List.map (fun r -> r.Log_record.seq) records)
  | Some (Error e) -> Alcotest.fail e
  | None -> Alcotest.fail "no result"

let test_cut_survives_crash () =
  (* Crash between the cut and the discard: recovery must replay both
     generations. *)
  let cfg = small_config in
  let w = mk_slt ~cfg ~n_update:1_000_000 () in
  for i = 1 to 20 do
    Redo_oracle.accept w.slt (record_for w ~txn:1 ~seq:i ~size:40 part_a)
  done;
  Mrdb_sim.Sim.run w.sim;
  ignore (Slt.begin_checkpoint w.slt part_a);
  for i = 21 to 25 do
    Redo_oracle.accept w.slt (record_for w ~txn:2 ~seq:i part_a)
  done;
  Mrdb_sim.Sim.run w.sim;
  (* Crash: reload everything from stable memory. *)
  let layout' = Stable_layout.attach cfg w.mem in
  let slt' =
    Slt.recover ~layout:layout' ~log_disk:(Slt.log_disk w.slt) ~n_update:1_000_000
      ~on_checkpoint_request:(fun _ _ -> ())
      ()
  in
  let bin = Option.get (Slt.find_bin slt' part_a) in
  check bool_t "shadow survives crash" true (Partition_bin.has_shadow bin);
  let result = ref None in
  Redo_oracle.records_for_recovery slt' part_a (fun r -> result := Some r);
  Mrdb_sim.Sim.run w.sim;
  match !result with
  | Some (Ok records) ->
      check (Alcotest.list int_t) "both generations replay in order"
        (List.init 25 (fun i -> i + 1))
        (List.map (fun r -> r.Log_record.seq) records)
  | Some (Error e) -> Alcotest.fail e
  | None -> Alcotest.fail "no result"

let test_cut_empty_bin () =
  let w = mk_slt () in
  ignore (Slt.bin_index_of w.slt part_a);
  check bool_t "nothing to cut" true (Slt.begin_checkpoint w.slt part_a = `Nothing_to_cut)

let test_double_cut_busy () =
  let w = mk_slt ~n_update:1_000_000 () in
  Redo_oracle.accept w.slt (record_for w ~txn:1 ~seq:1 part_a);
  check bool_t "first cut" true (Slt.begin_checkpoint w.slt part_a = `Cut);
  Redo_oracle.accept w.slt (record_for w ~txn:1 ~seq:2 part_a);
  check bool_t "second cut refused while shadow parked" true
    (Slt.begin_checkpoint w.slt part_a = `Shadow_busy)

let test_reset_clears_shadow () =
  let w = mk_slt ~n_update:1_000_000 () in
  Redo_oracle.accept w.slt (record_for w ~txn:1 ~seq:1 part_a);
  ignore (Slt.begin_checkpoint w.slt part_a);
  let bin = Option.get (Slt.find_bin w.slt part_a) in
  Partition_bin.reset_after_checkpoint bin;
  check bool_t "no shadow" false (Partition_bin.has_shadow bin);
  check bool_t "not outstanding" false (Partition_bin.has_outstanding bin)

let test_oldest_lsn_spans_generations () =
  let w = mk_slt ~n_update:1_000_000 () in
  (* Fill enough for pages, cut, then more pages: the age trigger must
     track the SHADOW's first page (the oldest). *)
  for i = 1 to 30 do
    Redo_oracle.accept w.slt (record_for w ~txn:1 ~seq:i ~size:40 part_a)
  done;
  Mrdb_sim.Sim.run w.sim;
  let bin = Option.get (Slt.find_bin w.slt part_a) in
  let oldest_before = Partition_bin.oldest_lsn bin in
  ignore (Slt.begin_checkpoint w.slt part_a);
  for i = 31 to 60 do
    Redo_oracle.accept w.slt (record_for w ~txn:2 ~seq:i ~size:40 part_a)
  done;
  Mrdb_sim.Sim.run w.sim;
  check i64_t "oldest lsn is the shadow's" oldest_before (Partition_bin.oldest_lsn bin);
  check bool_t "live first is newer" true (Partition_bin.first_lsn bin > oldest_before)


(* Property: a random stream of records interleaved with checkpoints
   (cut + finish) and crashes always recovers exactly the suffix newer
   than the last checkpoint's watermark, in order. *)
let prop_slt_pipeline_equivalence =
  QCheck.Test.make ~name:"slt pipeline: recover == post-watermark suffix" ~count:40
    QCheck.(pair (int_bound 1000) (int_range 20 200))
    (fun (seed, n_records) ->
      let rng = Mrdb_util.Rng.of_int seed in
      let cfg = small_config in
      let sim = Mrdb_sim.Sim.create () in
      let mem = Mrdb_hw.Stable_mem.create ~size:(Stable_layout.required_bytes cfg) () in
      let layout = ref (Stable_layout.attach cfg mem) in
      let ld = Log_disk.create sim ~layout:!layout ~window_pages:256 () in
      let mk_slt layout =
        Slt.create ~layout ~log_disk:ld ~n_update:1_000_000
          ~on_checkpoint_request:(fun _ _ -> ())
          ()
      in
      let slt = ref (mk_slt !layout) in
      let bin_idx = ref (Slt.bin_index_of !slt part_a) in
      let watermark = ref 0 in
      for seq = 1 to n_records do
        Redo_oracle.accept !slt
          (Log_record.make ~tag:Log_record.Relation_op ~bin_index:!bin_idx ~txn_id:1
             ~seq
             ~op:(Part_op.Insert { slot = seq; data = Bytes.make 24 'p' }));
        (match Mrdb_util.Rng.int rng 10 with
        | 0 ->
            (* Checkpoint: cut at current watermark, then finish. *)
            ignore (Slt.begin_checkpoint !slt part_a);
            watermark := seq;
            Slt.checkpoint_finished !slt part_a ~watermark:!watermark
        | 1 ->
            (* Crash: rebuild layout + SLT over the same stable memory. *)
            Mrdb_hw.Crash.machine ~sim ~duplexes:[ Log_disk.duplex ld ] ();
            layout := Stable_layout.attach cfg mem;
            slt :=
              Slt.recover ~layout:!layout ~log_disk:ld ~n_update:1_000_000
                ~on_checkpoint_request:(fun _ _ -> ())
                ();
            bin_idx := Slt.bin_index_of !slt part_a
        | 2 ->
            (* Checkpoint mid-flight then crash before the finish: the cut
               must be recoverable (shadow + live). *)
            ignore (Slt.begin_checkpoint !slt part_a);
            Mrdb_hw.Crash.machine ~sim ~duplexes:[ Log_disk.duplex ld ] ();
            layout := Stable_layout.attach cfg mem;
            slt :=
              Slt.recover ~layout:!layout ~log_disk:ld ~n_update:1_000_000
                ~on_checkpoint_request:(fun _ _ -> ())
                ();
            bin_idx := Slt.bin_index_of !slt part_a
        | _ -> ())
      done;
      Mrdb_sim.Sim.run sim;
      let result = ref None in
      Redo_oracle.records_for_recovery !slt part_a (fun r -> result := Some r);
      Mrdb_sim.Sim.run sim;
      match !result with
      | Some (Ok records) ->
          let recovered =
            List.filter_map
              (fun (r : Log_record.t) ->
                if r.Log_record.seq > !watermark then Some r.Log_record.seq else None)
              records
          in
          recovered = List.init (n_records - !watermark) (fun i -> !watermark + 1 + i)
      | Some (Error _) | None -> false)

let () =
  Alcotest.run "mrdb_wal"
    [
      ( "log_record",
        [
          Alcotest.test_case "roundtrip" `Quick test_record_roundtrip;
          Alcotest.test_case "small updates are small" `Quick test_record_small_updates_are_small;
          QCheck_alcotest.to_alcotest prop_record_codec_equivalence;
        ] );
      ( "log_page",
        [
          Alcotest.test_case "roundtrip" `Quick test_page_roundtrip;
          Alcotest.test_case "detects corruption" `Quick test_page_detects_corruption;
          Alcotest.test_case "rejects oversized payload" `Quick test_page_rejects_oversized_payload;
        ] );
      ( "slb",
        [
          Alcotest.test_case "append/commit/drain" `Quick test_slb_append_commit_drain;
          Alcotest.test_case "abort frees blocks" `Quick test_slb_abort_frees_blocks;
          Alcotest.test_case "chains span blocks" `Quick test_slb_chains_span_blocks;
          Alcotest.test_case "exhaustion" `Quick test_slb_exhaustion;
          Alcotest.test_case "empty commit trivial" `Quick test_slb_empty_commit_is_trivial;
          Alcotest.test_case "survives crash" `Quick test_slb_survives_crash;
          Alcotest.test_case "ring wrap-around" `Quick test_slb_ring_wraparound;
          Alcotest.test_case "ring wrap + crash recover" `Quick
            test_slb_ring_wrap_crash_recover;
        ] );
      ( "log_disk",
        [
          Alcotest.test_case "write/read" `Quick test_log_disk_write_read;
          Alcotest.test_case "window reuse" `Quick test_log_disk_window_reuse;
          Alcotest.test_case "stable lsn counter" `Quick test_log_disk_lsn_is_stable;
          Alcotest.test_case "primary corrupt falls back to mirror" `Quick
            test_log_disk_primary_corrupt_falls_back;
          Alcotest.test_case "both mirrors corrupt is unreadable" `Quick
            test_log_disk_both_corrupt_unreadable;
        ] );
      ( "partition_bin",
        [
          Alcotest.test_case "activate/load" `Quick test_bin_activate_load;
          Alcotest.test_case "append + counts" `Quick test_bin_append_and_counts;
          Alcotest.test_case "seal + flush" `Quick test_bin_seal_and_flush;
          Alcotest.test_case "directory spans" `Quick test_bin_directory_spans;
          Alcotest.test_case "reset after checkpoint" `Quick test_bin_reset_after_checkpoint;
          Alcotest.test_case "state survives crash" `Quick test_bin_state_survives_crash;
        ] );
      ( "slt",
        [
          Alcotest.test_case "bin assignment" `Quick test_slt_bin_assignment;
          Alcotest.test_case "accept + flush" `Quick test_slt_accept_and_flush;
          Alcotest.test_case "update-count trigger" `Quick test_slt_update_count_trigger;
          Alcotest.test_case "age trigger" `Quick test_slt_age_trigger;
          Alcotest.test_case "checkpoint finished resets" `Quick test_slt_checkpoint_finished_resets;
          Alcotest.test_case "recovery roundtrip" `Quick test_slt_records_for_recovery_roundtrip;
          Alcotest.test_case "recovery sees buffered+inflight" `Quick
            test_slt_recovery_includes_buffered_and_inflight;
          Alcotest.test_case "torn inflight image rejected" `Quick
            test_slt_torn_inflight_rejected;
          Alcotest.test_case "survives crash" `Quick test_slt_survives_crash;
          Alcotest.test_case "window pressure" `Quick test_slt_window_pressure;
        ] );
      ( "pipeline property",
        List.map QCheck_alcotest.to_alcotest [ prop_slt_pipeline_equivalence ] );
      ( "checkpoint cut",
        [
          Alcotest.test_case "cut + discard" `Quick test_cut_and_discard;
          Alcotest.test_case "cut survives crash" `Quick test_cut_survives_crash;
          Alcotest.test_case "empty bin" `Quick test_cut_empty_bin;
          Alcotest.test_case "double cut busy" `Quick test_double_cut_busy;
          Alcotest.test_case "reset clears shadow" `Quick test_reset_clears_shadow;
          Alcotest.test_case "oldest lsn spans generations" `Quick
            test_oldest_lsn_spans_generations;
        ] );
    ]
