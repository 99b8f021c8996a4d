(* Second core-integration suite: durability semantics of group commit,
   sustained pressure on the log window, concurrent-transaction conflicts
   through the facade, tuple relocation with index maintenance, and a
   paper-scale (default geometry) end-to-end run. *)

open Mrdb_storage
open Mrdb_core

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let schema = Schema.of_list [ ("k", Schema.Int); ("v", Schema.Str) ]

let kv_of db =
  Db.with_txn db (fun tx ->
      Db.scan db tx ~rel:"t"
      |> List.map (fun (_, tup) ->
             (Schema.to_int (Tuple.field tup 0), Schema.to_string_value (Tuple.field tup 1)))
      |> List.sort compare)

(* -- group commit durability ------------------------------------------------ *)

let test_group_commit_unflushed_not_durable () =
  (* The FASTPATH tradeoff: precommitted transactions have released their
     locks but are not durable until the group flushes.  A crash before
     the flush must lose them — and only them. *)
  let config = { Config.small with Config.commit_mode = Config.group 10 } in
  let db = Db.create ~config () in
  Db.create_relation db ~name:"t" ~schema;
  (* First group: filled and flushed explicitly. *)
  for i = 1 to 3 do
    let tx = Db.begin_txn db in
    ignore (Db.insert db tx ~rel:"t" [| Schema.int i; Schema.S "durable" |]);
    Db.commit db tx
  done;
  Db.flush_group db;
  (* Second group: precommitted only (group size 10 never reached). *)
  for i = 11 to 13 do
    let tx = Db.begin_txn db in
    ignore (Db.insert db tx ~rel:"t" [| Schema.int i; Schema.S "volatile" |]);
    Db.commit db tx
  done;
  Db.crash db;
  Db.recover db;
  check
    (Alcotest.list (Alcotest.pair int_t Alcotest.string))
    "only the flushed group survives"
    [ (1, "durable"); (2, "durable"); (3, "durable") ]
    (kv_of db)

let test_group_commit_flush_on_group_boundary_is_durable () =
  let config = { Config.small with Config.commit_mode = Config.group 2 } in
  let db = Db.create ~config () in
  Db.create_relation db ~name:"t" ~schema;
  for i = 1 to 4 do
    let tx = Db.begin_txn db in
    ignore (Db.insert db tx ~rel:"t" [| Schema.int i; Schema.S "x" |]);
    Db.commit db tx
  done;
  (* Two full groups of 2 flushed automatically. *)
  Db.crash db;
  Db.recover db;
  check int_t "all four durable" 4 (List.length (kv_of db))

let insert_committed db i s =
  let tx = Db.begin_txn db in
  ignore (Db.insert db tx ~rel:"t" [| Schema.int i; Schema.S s |]);
  Db.commit db tx;
  Db.txn_id tx

let test_group_commit_precommitted_redo_in_slb () =
  (* Group commit defers only the commit record: a precommitted
     transaction's REDO is already an uncommitted SLB chain. *)
  let config = { Config.small with Config.commit_mode = Config.group 10 } in
  let db = Db.create ~config () in
  Db.create_relation db ~name:"t" ~schema;
  (* Records logged but not yet sorted into a bin. *)
  let undrained () =
    Mrdb_sim.Trace.count (Db.trace db) "log_records"
    - Mrdb_sim.Trace.count (Db.trace db) "sorter_records_streamed"
  in
  let undrained0 = undrained () in
  ignore (insert_committed db 1 "x");
  (* Count from here: the first insert also registered the partition. *)
  let written () = Mrdb_hw.Stable_mem.bytes_written (Db.stable_mem db) in
  let log_bytes () = Mrdb_sim.Trace.count (Db.trace db) "codec_log_bytes" in
  let written0 = written () and log0 = log_bytes () in
  List.iter (fun i -> ignore (insert_committed db i "x")) [ 2; 3 ];
  check bool_t "REDO written to stable memory at append" true
    (written () - written0 >= log_bytes () - log0);
  let slb = Db.slb db in
  check int_t "three uncommitted chains" 3 (Mrdb_wal.Slb.uncommitted_count slb);
  check int_t "no commit records yet" 0 (Mrdb_wal.Slb.pending_committed slb);
  check int_t "each chain holds its record until the flush" 3
    (undrained () - undrained0);
  Db.flush_group db;
  check int_t "flush commits every chain" 0 (Mrdb_wal.Slb.uncommitted_count slb);
  check int_t "every chain drains at the flush" undrained0 (undrained ())

let test_group_commit_crash_frees_unflushed_chains () =
  let config = { Config.small with Config.commit_mode = Config.group 10 } in
  let db = Db.create ~config () in
  Db.create_relation db ~name:"t" ~schema;
  List.iter (fun i -> ignore (insert_committed db i "x")) [ 1; 2; 3 ];
  check bool_t "precommitted chains hold blocks" true
    (Mrdb_wal.Slb.blocks_free (Db.slb db)
    < config.Config.stable.Mrdb_wal.Stable_layout.slb_block_count);
  Db.crash db;
  Db.recover db;
  check int_t "no chain survives" 0 (Mrdb_wal.Slb.uncommitted_count (Db.slb db));
  check int_t "every block free again"
    config.Config.stable.Mrdb_wal.Stable_layout.slb_block_count
    (Mrdb_wal.Slb.blocks_free (Db.slb db));
  check int_t "nothing recovered" 0 (List.length (kv_of db))

let test_default_commit_durable_at_return () =
  (* The default commit is a group of one — the paper's commit: once
     [Db.commit] returns, its ring entry is in stable memory.  A crash
     right then, with no flush and no quiesce, must recover it, and no
     transaction may be left waiting for a group. *)
  let db = Db.create ~config:Config.small () in
  Db.create_relation db ~name:"t" ~schema;
  let a = ref None in
  for i = 1 to 5 do
    let tx = Db.begin_txn db in
    (match !a with
    | None -> a := Some (Db.insert db tx ~rel:"t" [| Schema.int 0; Schema.S "v0" |])
    | Some addr ->
        a := Some (Db.update_field db tx ~rel:"t" addr ~column:"v"
                     (Schema.S (Printf.sprintf "v%d" i))));
    ignore (Db.insert db tx ~rel:"t" [| Schema.int i; Schema.S "x" |]);
    Db.commit db tx;
    check int_t "no uncommitted chain after commit returns" 0
      (Mrdb_wal.Slb.uncommitted_count (Db.slb db))
  done;
  let commits () = Mrdb_sim.Trace.count (Db.trace db) "commits" in
  let before = commits () in
  Db.flush_group db;
  check int_t "nothing left precommitted for a flush to commit" before (commits ());
  check int_t "no transaction waited for a group" 0
    (Mrdb_obs.Metrics.h_count (Mrdb_obs.Obs.group_commit_wait (Db.obs db)));
  Db.crash db;
  Db.recover db;
  check
    (Alcotest.list (Alcotest.pair int_t Alcotest.string))
    "every returned commit recovered"
    [ (0, "v5"); (1, "x"); (2, "x"); (3, "x"); (4, "x"); (5, "x") ]
    (kv_of db)

let test_group_commit_slb_full_at_append () =
  (* With the REDO in the SLB from the first append, SLB exhaustion
     surfaces in the transaction that needs the block — never inside the
     group flush — and the pending group still commits durably. *)
  let config =
    {
      Config.small with
      Config.commit_mode = Config.group 100;
      stable = { Config.small.Config.stable with Mrdb_wal.Stable_layout.slb_block_count = 12 };
    }
  in
  let db = Db.create ~config () in
  Db.create_relation db ~name:"t" ~schema;
  let precommitted = ref 0 in
  let full = ref false in
  while not !full do
    let tx = Db.begin_txn db in
    match Db.insert db tx ~rel:"t" [| Schema.int !precommitted; Schema.S "p" |] with
    | _ ->
        Db.commit db tx;
        incr precommitted
    | exception Mrdb_wal.Slb.Slb_full ->
        Db.abort db tx;
        full := true
  done;
  check bool_t "some transactions precommitted first" true (!precommitted > 0);
  Db.flush_group db;
  ignore (insert_committed db 1000 "after");
  Db.flush_group db;
  Db.crash db;
  Db.recover db;
  check int_t "every precommitted transaction durable, the failed one absent"
    (!precommitted + 1) (List.length (kv_of db))

(* -- record size ---------------------------------------------------------------- *)

let test_oversized_record_refused_at_append () =
  (* [Config.small]: an SLB block holds a 500-byte frame, a log page's
     payload 428 bytes.  A row whose REDO frame fits the block but not a
     page (420 characters), or neither (520), is refused at append with
     the structured exception, while its transaction can still abort.
     Nothing reaches the committed ring, so no drain — at commit or at
     any later restart — ever meets a record no page can hold. *)
  let db = Db.create ~config:Config.small () in
  Db.create_relation db ~name:"t" ~schema;
  ignore (insert_committed db 1 "small");
  let slb = Db.slb db in
  List.iter
    (fun n ->
      let before = Db.cardinality db ~rel:"t" in
      (match
         Db.with_txn db (fun tx ->
             Db.insert db tx ~rel:"t" [| Schema.int n; Schema.S (String.make n 'x') |])
       with
      | _ -> Alcotest.failf "a %d-character row committed" n
      | exception Mrdb_wal.Slb.Record_too_large { bytes; limit } ->
          check bool_t "the frame is over the limit" true (bytes > limit));
      check int_t "cardinality unchanged" before (Db.cardinality db ~rel:"t");
      check int_t "nothing committed" 0 (Mrdb_wal.Slb.pending_committed slb))
    [ 420; 520 ];
  Db.crash db;
  Db.recover db;
  Db.recover_everything db;
  ignore (insert_committed db 2 "after");
  Db.crash db;
  Db.recover db;
  check
    (Alcotest.list (Alcotest.pair int_t Alcotest.string))
    "restart works and later commits are durable"
    [ (1, "small"); (2, "after") ]
    (kv_of db)

(* -- log window wrap under sustained load ------------------------------------- *)

let test_log_window_wraps_safely () =
  (* A window small enough to lap several times during the run: age
     triggers and checkpoints must keep every partition recoverable. *)
  let config =
    {
      Config.small with
      Config.log_window_pages = 48;
      age_grace_pages = Some 6;
      n_update = 40;
    }
  in
  let db = Db.create ~config () in
  Db.create_relation db ~name:"t" ~schema;
  let addrs = ref [] in
  Db.with_txn db (fun tx ->
      for i = 1 to 60 do
        addrs := (i, Db.insert db tx ~rel:"t" [| Schema.int i; Schema.S "0" |]) :: !addrs
      done);
  let rng = Mrdb_util.Rng.of_int 77 in
  (* Enough update traffic to push well past one window lap. *)
  for round = 1 to 2000 do
    let i, addr = List.nth !addrs (Mrdb_util.Rng.int rng 60) in
    Db.with_txn db (fun tx ->
        ignore
          (Db.update_field db tx ~rel:"t" addr ~column:"v"
             (Schema.S (string_of_int (round * 1000 + i)))))
  done;
  Db.quiesce db;
  let lsn = Mrdb_wal.Log_disk.next_lsn (Db.log_disk db) in
  check bool_t "window lapped at least once" true (Int64.to_int lsn > 48);
  let before = kv_of db in
  Db.crash db;
  Db.recover db;
  check bool_t "equivalent after window laps" true (kv_of db = before)

(* -- interleaved transactions through the facade -------------------------------- *)

let test_interleaved_conflict_aborts_second () =
  let db = Db.create ~config:Config.small () in
  Db.create_relation db ~name:"t" ~schema;
  let addr =
    Db.with_txn db (fun tx -> Db.insert db tx ~rel:"t" [| Schema.int 1; Schema.S "a" |])
  in
  let t1 = Db.begin_txn db in
  ignore (Db.update_field db t1 ~rel:"t" addr ~column:"v" (Schema.S "t1"));
  let t2 = Db.begin_txn db in
  (* t2 wants the same tuple: the synchronous facade aborts it rather than
     blocking. *)
  (try
     ignore (Db.update_field db t2 ~rel:"t" addr ~column:"v" (Schema.S "t2"));
     Alcotest.fail "expected Aborted"
   with Db.Aborted _ -> ());
  Db.commit db t1;
  check bool_t "t1's write survives" true (List.mem (1, "t1") (kv_of db))

let test_read_read_interleaving_allowed () =
  let db = Db.create ~config:Config.small () in
  Db.create_relation db ~name:"t" ~schema;
  let addr =
    Db.with_txn db (fun tx -> Db.insert db tx ~rel:"t" [| Schema.int 1; Schema.S "a" |])
  in
  let t1 = Db.begin_txn db in
  let t2 = Db.begin_txn db in
  check bool_t "r1" true (Db.read db t1 ~rel:"t" addr <> None);
  check bool_t "r2" true (Db.read db t2 ~rel:"t" addr <> None);
  Db.commit db t1;
  Db.commit db t2

(* -- relocation + index maintenance ---------------------------------------------- *)

let test_grown_tuple_relocation_updates_index () =
  let config = { Config.small with Config.partition_bytes = 1024 } in
  let db = Db.create ~config () in
  Db.create_relation db ~name:"t" ~schema;
  Db.create_index db ~rel:"t" ~name:"t_k" ~kind:Catalog.Ttree ~key_column:"k";
  (* Fill a partition so a grown tuple must relocate. *)
  let addr =
    Db.with_txn db (fun tx -> Db.insert db tx ~rel:"t" [| Schema.int 1; Schema.S "s" |])
  in
  Db.with_txn db (fun tx ->
      for i = 2 to 12 do
        ignore (Db.insert db tx ~rel:"t" [| Schema.int i; Schema.S (String.make 50 'f') |])
      done);
  let addr' =
    Db.with_txn db (fun tx ->
        Db.update_field db tx ~rel:"t" addr ~column:"v" (Schema.S (String.make 400 'G')))
  in
  check bool_t "tuple relocated" false (Addr.equal addr addr');
  Db.with_txn db (fun tx ->
      match Db.lookup db tx ~rel:"t" ~index:"t_k" (Schema.int 1) with
      | [ (found, tup) ] ->
          check bool_t "index points at the new address" true (Addr.equal found addr');
          check int_t "payload grew" 400
            (String.length (Schema.to_string_value (Tuple.field tup 1)))
      | l -> Alcotest.failf "expected 1 hit, got %d" (List.length l));
  (* And the relocation is recoverable. *)
  let before = kv_of db in
  Db.crash db;
  Db.recover db;
  check bool_t "relocation durable" true (kv_of db = before)

(* -- paper-scale geometry ----------------------------------------------------------- *)

let test_default_geometry_end_to_end () =
  (* 48 KB partitions, 8 KB log pages, N_update 1000 — the Table 2 point,
     exercised end to end with a debit/credit stream and a crash. *)
  let config = { Config.default with Config.n_update = 100 } in
  let db = Db.create ~config () in
  let bank = Workload.Bank.setup db ~accounts:800 ~tellers:16 ~branches:4 () in
  let rng = Mrdb_util.Rng.of_int 123 in
  for _ = 1 to 300 do
    Workload.Bank.run_debit_credit bank db ~rng
  done;
  Db.quiesce db;
  check bool_t "invariant" true (Workload.Bank.consistent bank db);
  check bool_t "checkpoints happened" true
    (Mrdb_sim.Trace.count (Db.trace db) "checkpoints" > 0);
  let total = Workload.Bank.audit bank db in
  Db.crash db;
  Db.recover db;
  check Alcotest.int64 "durable at paper geometry" total (Workload.Bank.audit bank db);
  check bool_t "invariant after recovery" true (Workload.Bank.consistent bank db)

(* -- abort under pressure ------------------------------------------------------------ *)

let test_many_aborts_leak_nothing () =
  let db = Db.create ~config:Config.small () in
  Db.create_relation db ~name:"t" ~schema;
  let before_blocks = Mrdb_wal.Slb.blocks_free (Db.slb db) in
  for i = 1 to 50 do
    let tx = Db.begin_txn db in
    ignore (Db.insert db tx ~rel:"t" [| Schema.int i; Schema.S "gone" |]);
    Db.abort db tx
  done;
  check int_t "no rows" 0 (Db.cardinality db ~rel:"t");
  check int_t "no SLB blocks leaked" before_blocks (Mrdb_wal.Slb.blocks_free (Db.slb db))

(* Regression: inserting into a relation right after recovery, BEFORE any
   read touches it, must not collide with the partition numbers of its
   not-yet-recovered partitions (a fresh segment object would otherwise
   re-allocate number 0 and the new rows' log records would reuse the old
   partition's sequence space — silently destroying both generations). *)
let test_insert_before_demand_recovery () =
  let db = Db.create ~config:Config.small () in
  Db.create_relation db ~name:"t" ~schema;
  Db.with_txn db (fun tx ->
      for i = 1 to 10 do
        ignore (Db.insert db tx ~rel:"t" [| Schema.int i; Schema.S "first" |])
      done);
  Db.crash db;
  Db.recover db;
  (* Inserts land in genuinely fresh partitions. *)
  Db.with_txn db (fun tx ->
      for i = 11 to 20 do
        ignore (Db.insert db tx ~rel:"t" [| Schema.int i; Schema.S "second" |])
      done);
  check int_t "both generations visible" 20 (List.length (kv_of db));
  Db.crash db;
  Db.recover db;
  check int_t "both generations durable" 20 (List.length (kv_of db))

(* -- drop_relation ------------------------------------------------------------ *)

let test_drop_relation_basic () =
  let db = Db.create ~config:Config.small () in
  Db.create_relation db ~name:"t" ~schema;
  Db.create_index db ~rel:"t" ~name:"t_k" ~kind:Catalog.Ttree ~key_column:"k";
  Db.with_txn db (fun tx ->
      for i = 1 to 20 do
        ignore (Db.insert db tx ~rel:"t" [| Schema.int i; Schema.S "x" |])
      done);
  Db.checkpoint_all db;
  Db.quiesce db;
  Db.drop_relation db ~name:"t";
  check (Alcotest.list Alcotest.string) "gone from catalog" [] (Db.relations db);
  Alcotest.check_raises "unusable" (Db.Unknown_relation "t") (fun () ->
      Db.with_txn db (fun tx -> ignore (Db.scan db tx ~rel:"t")));
  (* The name can be reused with a different schema. *)
  Db.create_relation db ~name:"t"
    ~schema:(Schema.of_list [ ("a", Schema.Int) ]);
  Db.with_txn db (fun tx -> ignore (Db.insert db tx ~rel:"t" [| Schema.int 1 |]));
  check int_t "fresh relation" 1 (Db.cardinality db ~rel:"t")

let test_drop_relation_survives_crash () =
  let db = Db.create ~config:Config.small () in
  Db.create_relation db ~name:"keep" ~schema;
  Db.create_relation db ~name:"gone" ~schema;
  Db.with_txn db (fun tx ->
      for i = 1 to 10 do
        ignore (Db.insert db tx ~rel:"keep" [| Schema.int i; Schema.S "k" |]);
        ignore (Db.insert db tx ~rel:"gone" [| Schema.int i; Schema.S "g" |])
      done);
  Db.drop_relation db ~name:"gone";
  Db.crash db;
  Db.recover db;
  check (Alcotest.list Alcotest.string) "drop durable" [ "keep" ] (Db.relations db);
  check int_t "survivor intact" 10 (Db.cardinality db ~rel:"keep")

let test_drop_relation_blocked_by_live_txn () =
  let db = Db.create ~config:Config.small () in
  Db.create_relation db ~name:"t" ~schema;
  let tx = Db.begin_txn db in
  ignore (Db.insert db tx ~rel:"t" [| Schema.int 1; Schema.S "x" |]);
  Alcotest.check_raises "in use" (Db.Aborted "drop_relation: relation is in use")
    (fun () -> Db.drop_relation db ~name:"t");
  Db.commit db tx;
  Db.drop_relation db ~name:"t";
  check (Alcotest.list Alcotest.string) "dropped after release" [] (Db.relations db)

let test_drop_relation_frees_resources () =
  let db = Db.create ~config:Config.small () in
  Db.create_relation db ~name:"t" ~schema;
  Db.with_txn db (fun tx ->
      for i = 1 to 30 do
        ignore (Db.insert db tx ~rel:"t" [| Schema.int i; Schema.S (String.make 30 'z') |])
      done);
  Db.checkpoint_all db;
  Db.quiesce db;
  let active_before = List.length (Mrdb_wal.Slt.active_partitions (Db.slt db)) in
  Db.drop_relation db ~name:"t";
  Db.quiesce db;
  let active_after = List.length (Mrdb_wal.Slt.active_partitions (Db.slt db)) in
  check bool_t "bins released" true (active_after <= active_before)

let () =
  Alcotest.run "mrdb_core2"
    [
      ( "group commit",
        [
          Alcotest.test_case "unflushed group not durable" `Quick
            test_group_commit_unflushed_not_durable;
          Alcotest.test_case "flushed groups durable" `Quick
            test_group_commit_flush_on_group_boundary_is_durable;
          Alcotest.test_case "precommitted REDO already in the SLB" `Quick
            test_group_commit_precommitted_redo_in_slb;
          Alcotest.test_case "crash frees unflushed chains" `Quick
            test_group_commit_crash_frees_unflushed_chains;
          Alcotest.test_case "default commit durable when it returns" `Quick
            test_default_commit_durable_at_return;
          Alcotest.test_case "SLB exhaustion surfaces at append" `Quick
            test_group_commit_slb_full_at_append;
        ] );
      ( "record size",
        [
          Alcotest.test_case "oversized record refused at append" `Quick
            test_oversized_record_refused_at_append;
        ] );
      ( "log window",
        [ Alcotest.test_case "wraps safely under load" `Quick test_log_window_wraps_safely ] );
      ( "interleaving",
        [
          Alcotest.test_case "write conflict aborts" `Quick test_interleaved_conflict_aborts_second;
          Alcotest.test_case "read/read allowed" `Quick test_read_read_interleaving_allowed;
        ] );
      ( "relocation",
        [ Alcotest.test_case "grown tuple + index" `Quick test_grown_tuple_relocation_updates_index ] );
      ( "paper geometry",
        [ Alcotest.test_case "default config end-to-end" `Slow test_default_geometry_end_to_end ] );
      ( "hygiene",
        [ Alcotest.test_case "aborts leak nothing" `Quick test_many_aborts_leak_nothing ] );
      ( "regressions",
        [
          Alcotest.test_case "insert before demand recovery" `Quick
            test_insert_before_demand_recovery;
        ] );
      ( "drop_relation",
        [
          Alcotest.test_case "basic + name reuse" `Quick test_drop_relation_basic;
          Alcotest.test_case "durable across crash" `Quick test_drop_relation_survives_crash;
          Alcotest.test_case "blocked by live txn" `Quick test_drop_relation_blocked_by_live_txn;
          Alcotest.test_case "frees resources" `Quick test_drop_relation_frees_resources;
        ] );
    ]
