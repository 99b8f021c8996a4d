(* Integration tests for the full MM-DBMS: transactions over indexed
   relations, checkpointing, crash at adversarial points, and recovery
   equivalence (recovered database == committed history). *)

open Mrdb_storage
open Mrdb_core

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let account_schema =
  Schema.of_list [ ("id", Schema.Int); ("owner", Schema.Str); ("balance", Schema.Int) ]

let mk_db ?(config = Config.small) () = Db.create ~config ()

let mk_bank ?config ?(indexed = true) () =
  let db = mk_db ?config () in
  Db.create_relation db ~name:"accounts" ~schema:account_schema;
  if indexed then
    Db.create_index db ~rel:"accounts" ~name:"accounts_id" ~kind:Catalog.Ttree
      ~key_column:"id";
  db

let account i = [| Schema.int i; Schema.S (Printf.sprintf "owner%d" i); Schema.int (i * 100) |]

let insert_accounts db n =
  Db.with_txn db (fun tx ->
      for i = 1 to n do
        ignore (Db.insert db tx ~rel:"accounts" (account i))
      done)

let balances db =
  Db.with_txn db (fun tx ->
      Db.scan db tx ~rel:"accounts"
      |> List.map (fun (_, tup) ->
             (Schema.to_int (Tuple.field tup 0), Schema.to_int (Tuple.field tup 2)))
      |> List.sort compare)

(* -- basic operation ---------------------------------------------------------- *)

let test_create_and_insert () =
  let db = mk_bank () in
  insert_accounts db 20;
  check int_t "cardinality" 20 (Db.cardinality db ~rel:"accounts");
  check (Alcotest.list Alcotest.string) "relations" [ "accounts" ] (Db.relations db)

let test_lookup_via_index () =
  let db = mk_bank () in
  insert_accounts db 50;
  Db.with_txn db (fun tx ->
      match Db.lookup db tx ~rel:"accounts" ~index:"accounts_id" (Schema.int 7) with
      | [ (_, tup) ] ->
          check Alcotest.string "owner" "owner7"
            (Schema.to_string_value (Tuple.field tup 1))
      | l -> Alcotest.failf "expected 1 hit, got %d" (List.length l))

let only_hit db tx key =
  match Db.lookup db tx ~rel:"accounts" ~index:"accounts_id" (Schema.int key) with
  | [ (addr, tup) ] -> (addr, tup)
  | l -> Alcotest.failf "expected exactly 1 hit for %d, got %d" key (List.length l)

let test_update_and_delete () =
  let db = mk_bank () in
  insert_accounts db 10;
  Db.with_txn db (fun tx ->
      let addr, _ = only_hit db tx 3 in
      ignore (Db.update_field db tx ~rel:"accounts" addr ~column:"balance" (Schema.int 42));
      let addr9, _ = only_hit db tx 9 in
      Db.delete db tx ~rel:"accounts" addr9);
  check int_t "9 left" 9 (Db.cardinality db ~rel:"accounts");
  check bool_t "balance updated" true (List.mem_assoc 3 (balances db) && List.assoc 3 (balances db) = 42);
  Db.with_txn db (fun tx ->
      check int_t "deleted key gone" 0
        (List.length (Db.lookup db tx ~rel:"accounts" ~index:"accounts_id" (Schema.int 9))))

let test_range_query () =
  let db = mk_bank () in
  insert_accounts db 30;
  Db.with_txn db (fun tx ->
      let r =
        Db.range db tx ~rel:"accounts" ~index:"accounts_id"
          ~lo:(Some (Schema.int 10)) ~hi:(Some (Schema.int 14))
      in
      check int_t "5 keys" 5 (List.length r))

let test_abort_rolls_back_everything () =
  let db = mk_bank () in
  insert_accounts db 10;
  let before = balances db in
  let tx = Db.begin_txn db in
  ignore (Db.insert db tx ~rel:"accounts" (account 999));
  let addr, _ = only_hit db tx 5 in
  ignore (Db.update_field db tx ~rel:"accounts" addr ~column:"balance" (Schema.int 1));
  Db.abort db tx;
  check bool_t "state restored" true (balances db = before);
  Db.with_txn db (fun tx ->
      check int_t "index entry for 999 rolled back" 0
        (List.length (Db.lookup db tx ~rel:"accounts" ~index:"accounts_id" (Schema.int 999))))

let test_with_txn_aborts_on_exception () =
  let db = mk_bank () in
  insert_accounts db 5;
  let before = balances db in
  (try
     Db.with_txn db (fun tx ->
         ignore (Db.insert db tx ~rel:"accounts" (account 100));
         failwith "boom")
   with Failure _ -> ());
  check bool_t "aborted" true (balances db = before)

let test_unknown_relation_and_index () =
  let db = mk_bank () in
  Alcotest.check_raises "unknown rel" (Db.Unknown_relation "nope") (fun () ->
      Db.with_txn db (fun tx -> ignore (Db.scan db tx ~rel:"nope")));
  Alcotest.check_raises "unknown index" (Db.Unknown_index "nope") (fun () ->
      Db.with_txn db (fun tx ->
          ignore (Db.lookup db tx ~rel:"accounts" ~index:"nope" (Schema.int 1))))

let test_linear_hash_index () =
  let db = mk_db () in
  Db.create_relation db ~name:"accounts" ~schema:account_schema;
  Db.create_index db ~rel:"accounts" ~name:"accounts_hash" ~kind:Catalog.Lhash
    ~key_column:"owner";
  insert_accounts db 40;
  Db.with_txn db (fun tx ->
      match Db.lookup db tx ~rel:"accounts" ~index:"accounts_hash" (Schema.S "owner13") with
      | [ (_, tup) ] -> check int_t "id" 13 (Schema.to_int (Tuple.field tup 0))
      | l -> Alcotest.failf "expected 1, got %d" (List.length l))

let test_index_backfill () =
  let db = mk_db () in
  Db.create_relation db ~name:"accounts" ~schema:account_schema;
  insert_accounts db 25;
  (* Index created after data exists. *)
  Db.create_index db ~rel:"accounts" ~name:"accounts_id" ~kind:Catalog.Ttree
    ~key_column:"id";
  Db.with_txn db (fun tx ->
      check int_t "backfilled" 1
        (List.length (Db.lookup db tx ~rel:"accounts" ~index:"accounts_id" (Schema.int 20))))

(* -- checkpointing -------------------------------------------------------------- *)

let test_update_count_triggers_checkpoint () =
  (* n_update = 16 in Config.small; enough inserts must fire a request and
     auto-processing must complete it. *)
  let db = mk_bank ~indexed:false () in
  insert_accounts db 64;
  Db.quiesce db;
  check bool_t "checkpoints ran" true (Mrdb_sim.Trace.count (Db.trace db) "checkpoints" > 0)

let test_checkpoint_all () =
  let db = mk_bank () in
  insert_accounts db 10;
  Db.checkpoint_all db;
  Db.quiesce db;
  (* Every data partition flushed and reset; the catalog partitions stay
     active because checkpointing logs its own catalog updates. *)
  let data_parts = Db.relation_partitions db ~rel:"accounts" in
  let still_active = Mrdb_wal.Slt.active_partitions (Db.slt db) in
  check int_t "no active data partitions" 0
    (List.length
       (List.filter
          (fun p -> List.exists (Addr.equal_partition p) data_parts)
          still_active))

let test_checkpoint_deferred_under_lock () =
  let db = mk_bank ~indexed:false () in
  insert_accounts db 4;
  let tx = Db.begin_txn db in
  ignore (Db.insert db tx ~rel:"accounts" (account 50));
  (* The open transaction holds IX on the relation: a forced checkpoint of
     its partition must defer. *)
  let part = List.hd (Db.relation_partitions db ~rel:"accounts") in
  Alcotest.check_raises "deferred" (Db.Aborted "checkpoint deferred: relation locked")
    (fun () -> Db.checkpoint_partition db part);
  Db.commit db tx;
  (* Now it can run. *)
  Db.checkpoint_partition db part

(* -- crash and recovery ---------------------------------------------------------- *)

let test_crash_requires_recovery () =
  let db = mk_bank () in
  insert_accounts db 5;
  Db.crash db;
  check bool_t "crashed" true (Db.is_crashed db);
  Alcotest.check_raises "ops fail" Db.Crashed (fun () -> ignore (Db.begin_txn db));
  Db.recover db;
  check bool_t "recovered" false (Db.is_crashed db)

let test_recovery_restores_committed_data () =
  let db = mk_bank () in
  insert_accounts db 30;
  let before = balances db in
  Db.crash db;
  Db.recover db;
  check bool_t "all committed data back" true (balances db = before);
  Db.with_txn db (fun tx ->
      check int_t "index works after recovery" 1
        (List.length (Db.lookup db tx ~rel:"accounts" ~index:"accounts_id" (Schema.int 17))))

let test_recovery_drops_uncommitted () =
  let db = mk_bank () in
  insert_accounts db 10;
  let before = balances db in
  (* Open transaction with changes, never committed. *)
  let tx = Db.begin_txn db in
  ignore (Db.insert db tx ~rel:"accounts" (account 777));
  Db.crash db;
  Db.recover db;
  check bool_t "uncommitted insert gone" true (balances db = before)

let test_recovery_after_checkpoints_and_more_commits () =
  let db = mk_bank ~indexed:false () in
  insert_accounts db 20;
  Db.checkpoint_all db;
  (* Post-checkpoint committed work must replay on top of the images. *)
  Db.with_txn db (fun tx ->
      for i = 21 to 35 do
        ignore (Db.insert db tx ~rel:"accounts" (account i))
      done);
  let before = balances db in
  Db.crash db;
  Db.recover db;
  check bool_t "image + log replay equivalence" true (balances db = before)

let test_recovery_idempotent_replay_after_ckpt_crash () =
  (* Crash immediately after a checkpoint completes: the watermark filter
     must prevent double-applying pre-checkpoint records. *)
  let db = mk_bank ~indexed:false () in
  insert_accounts db 12;
  let part = List.hd (Db.relation_partitions db ~rel:"accounts") in
  Db.checkpoint_partition db part;
  let before = balances db in
  Db.crash db;
  Db.recover db;
  check bool_t "no double replay" true (balances db = before)

let test_repeated_crashes () =
  let db = mk_bank () in
  insert_accounts db 10;
  for round = 1 to 4 do
    Db.crash db;
    Db.recover db;
    Db.with_txn db (fun tx ->
        ignore (Db.insert db tx ~rel:"accounts" (account (100 + round))))
  done;
  check int_t "10 + 4 rounds" 14 (Db.cardinality db ~rel:"accounts")

let test_full_reload_baseline () =
  (* The database-level baseline is the one restart path followed by the
     whole background sweep, before any transaction runs. *)
  let db = mk_bank () in
  insert_accounts db 20;
  let before = balances db in
  Db.crash db;
  Db.recover db;
  Db.recover_everything db;
  check (Alcotest.float 0.001) "fully resident" 1.0 (Db.resident_fraction db);
  check bool_t "data equal" true (balances db = before)

let test_on_demand_partial_residency () =
  let db = mk_bank ~indexed:false () in
  (* Two relations; touch only one after the crash. *)
  Db.create_relation db ~name:"other" ~schema:account_schema;
  Db.with_txn db (fun tx ->
      for i = 1 to 15 do
        ignore (Db.insert db tx ~rel:"other" (account i))
      done);
  insert_accounts db 15;
  Db.crash db;
  Db.recover db;
  check bool_t "not fully resident after catalog restore" true
    (Db.resident_fraction db < 1.0);
  ignore (Db.cardinality db ~rel:"accounts");
  let frac_after_touch = Db.resident_fraction db in
  check bool_t "accounts resident, other not" true (frac_after_touch < 1.0);
  Db.recover_everything db;
  check (Alcotest.float 0.001) "background completes" 1.0 (Db.resident_fraction db);
  check int_t "other intact" 15 (Db.cardinality db ~rel:"other")

let test_background_recovery_steps () =
  let db = mk_bank () in
  insert_accounts db 30;
  Db.crash db;
  Db.recover db;
  let steps = ref 0 in
  while Db.background_recovery_step db do
    incr steps
  done;
  check bool_t "took steps" true (!steps > 0);
  check (Alcotest.float 0.001) "done" 1.0 (Db.resident_fraction db)

(* -- the background sweep's pick queue --------------------------------------- *)

(* Three relations ("a", "b", "c"), each spanning several partitions,
   crashed and brought back to the end of catalog restore: every user
   partition is on disk. *)
let mk_swept_db () =
  let db = mk_db () in
  List.iter
    (fun name ->
      Db.create_relation db ~name ~schema:account_schema;
      Db.with_txn db (fun tx ->
          for i = 1 to 150 do
            ignore (Db.insert db tx ~rel:name (account i))
          done))
    [ "a"; "b"; "c" ];
  Db.crash db;
  Db.recover db;
  db

let non_resident db =
  List.filter
    (fun p ->
      match Catalog.partition_desc (Db.catalog db) p with
      | Some d -> not d.Catalog.resident
      | None -> false)
    (Db.all_partitions db)
  |> List.sort Addr.compare_partition

let restored db = Mrdb_sim.Trace.count (Db.trace db) "restorer_partitions_restored"

(* Step the sweep to completion, checking before every step that it
   restores exactly the lowest-addressed non-resident partition, and
   nothing else.  Returns the partitions in the order they were swept. *)
let sweep_checked db =
  let order = ref [] in
  let rec go () =
    let before = restored db in
    match non_resident db with
    | [] -> check bool_t "nothing left to sweep" false (Db.background_recovery_step db)
    | next :: _ ->
        check bool_t "step reports work" true (Db.background_recovery_step db);
        check bool_t "lowest address restored" false (List.mem next (non_resident db));
        check int_t "one partition per step" (before + 1) (restored db);
        order := next :: !order;
        go ()
  in
  go ();
  check (Alcotest.float 0.001) "fully resident" 1.0 (Db.resident_fraction db);
  List.rev !order

let test_sweep_ascending_order () =
  let db = mk_swept_db () in
  let pending = non_resident db in
  check bool_t "several partitions on disk" true (List.length pending >= 6);
  let order = sweep_checked db in
  check bool_t "whole queue swept in address order" true (order = pending)

let test_sweep_skips_on_demand_restores () =
  let db = mk_swept_db () in
  ignore (Db.background_recovery_step db);
  (* "c" is restored on demand while its partitions sit in the queue. *)
  check int_t "c intact" 150 (Db.cardinality db ~rel:"c");
  let c_parts = Db.relation_partitions db ~rel:"c" in
  let before = restored db in
  let order = sweep_checked db in
  check bool_t "no c partition swept" true
    (List.for_all (fun p -> not (List.mem p c_parts)) order);
  check int_t "each remaining partition restored once" (before + List.length order)
    (restored db)

let test_sweep_after_drop_relation () =
  let db = mk_swept_db () in
  ignore (Db.background_recovery_step db);
  Db.drop_relation db ~name:"b";
  ignore (sweep_checked db);
  check (Alcotest.list Alcotest.string) "relations" [ "a"; "c" ] (Db.relations db);
  check int_t "c intact" 150 (Db.cardinality db ~rel:"c")

let test_sweep_with_relation_created_after_restart () =
  let db = mk_swept_db () in
  ignore (Db.background_recovery_step db);
  Db.create_relation db ~name:"d" ~schema:account_schema;
  Db.with_txn db (fun tx ->
      for i = 1 to 150 do
        ignore (Db.insert db tx ~rel:"d" (account i))
      done);
  let d_parts = Db.relation_partitions db ~rel:"d" in
  let order = sweep_checked db in
  check bool_t "new relation never swept" true
    (List.for_all (fun p -> not (List.mem p d_parts)) order);
  check int_t "d intact" 150 (Db.cardinality db ~rel:"d")

let test_declared_relations_restore_first () =
  (* §2.5 method 1 is a per-transaction choice on the one restart path:
     declaring "accounts" restores all of its partitions before the
     transaction's first operation, and leaves an undeclared relation on
     disk. *)
  let db = mk_bank () in
  Db.create_relation db ~name:"other" ~schema:account_schema;
  Db.with_txn db (fun tx -> ignore (Db.insert db tx ~rel:"other" (account 1)));
  insert_accounts db 10;
  let before = balances db in
  Db.crash db;
  Db.recover db;
  let resident part = Db.partition_snapshot db part <> None in
  check bool_t "accounts on disk after the restart" true
    (List.for_all
       (fun part -> not (resident part))
       (Db.relation_partitions db ~rel:"accounts"));
  let tx = Db.begin_txn ~declare:[ "accounts" ] db in
  check bool_t "every accounts partition resident before the first operation"
    true
    (List.for_all resident (Db.relation_partitions db ~rel:"accounts"));
  check bool_t "the undeclared relation stays on disk" true
    (List.for_all
       (fun part -> not (resident part))
       (Db.relation_partitions db ~rel:"other"));
  let hits = Db.lookup db tx ~rel:"accounts" ~index:"accounts_id" (Schema.int 4) in
  Db.commit db tx;
  check int_t "declared relation usable" 1 (List.length hits);
  check bool_t "equal" true (balances db = before)

let test_ddl_survives_crash () =
  let db = mk_bank () in
  insert_accounts db 5;
  Db.crash db;
  Db.recover db;
  (* Relation + index definitions recovered from catalogs; new DDL works. *)
  check (Alcotest.list Alcotest.string) "relations survive" [ "accounts" ] (Db.relations db);
  Db.create_relation db ~name:"fresh" ~schema:account_schema;
  Db.with_txn db (fun tx -> ignore (Db.insert db tx ~rel:"fresh" (account 1)));
  check int_t "new relation works" 1 (Db.cardinality db ~rel:"fresh")

let test_work_after_recovery_then_crash_again () =
  let db = mk_bank ~indexed:false () in
  insert_accounts db 10;
  Db.crash db;
  Db.recover db;
  Db.with_txn db (fun tx ->
      for i = 11 to 20 do
        ignore (Db.insert db tx ~rel:"accounts" (account i))
      done);
  let before = balances db in
  Db.crash db;
  Db.recover db;
  check bool_t "second-generation commits survive" true (balances db = before)

(* -- per-segment residency counts -----------------------------------------

   Writes to an indexed relation skip the restore walk over its segment
   when the catalog counts no non-resident partition there.  A count that
   drifts low would skip a restore still owed, so after every step these
   cases hold each segment's count to a fold over the descriptors, and
   reads to the committed state.  The cases are the three where a
   residency fast path could go stale: a partition added to a segment that
   is still on disk, a segment id reused after a drop, and a standby
   promoted mid-restore. *)

let check_residency_counts db =
  let cat = Db.catalog db in
  let expected = Hashtbl.create 16 and total = ref 0 and resident = ref 0 in
  Catalog.iter_relations
    (fun rel ->
      List.iter
        (fun (d : Catalog.partition_desc) ->
          incr total;
          if d.Catalog.resident then incr resident
          else
            let seg = d.Catalog.part.Addr.segment in
            Hashtbl.replace expected seg
              (1 + Option.value (Hashtbl.find_opt expected seg) ~default:0))
        rel.Catalog.partitions)
    cat;
  for seg = 0 to 31 do
    check int_t
      (Printf.sprintf "segment %d: non-resident count = fold" seg)
      (Option.value (Hashtbl.find_opt expected seg) ~default:0)
      (Catalog.non_resident_in_segment cat seg)
  done;
  check (Alcotest.float 1e-9) "resident fraction = fold"
    (float_of_int !resident /. float_of_int !total)
    (Db.resident_fraction db)

let rel_segment db name = (Catalog.find_relation_exn (Db.catalog db) name).Catalog.rel_segment

let non_resident_of db name = Catalog.non_resident_in_segment (Db.catalog db) (rel_segment db name)

let test_residency_new_partition_in_non_resident_segment () =
  let db = mk_bank ~indexed:false () in
  insert_accounts db 150;
  let committed = balances db in
  Db.crash db;
  Db.recover db;
  check_residency_counts db;
  let owed = non_resident_of db "accounts" in
  check bool_t "accounts on disk after the restart" true (owed > 1);
  let parts = List.length (Db.relation_partitions db ~rel:"accounts") in
  (* No accounts partition is installed, so the insert opens a new one. *)
  Db.with_txn db (fun tx -> ignore (Db.insert db tx ~rel:"accounts" (account 151)));
  check_residency_counts db;
  check int_t "insert allocated a partition" (parts + 1)
    (List.length (Db.relation_partitions db ~rel:"accounts"));
  check int_t "the old partitions are still owed" owed (non_resident_of db "accounts");
  Db.create_index db ~rel:"accounts" ~name:"accounts_id" ~kind:Catalog.Ttree
    ~key_column:"id";
  check_residency_counts db;
  check int_t "indexing restored the segment" 0 (non_resident_of db "accounts");
  Db.with_txn db (fun tx ->
      let addr, _ = only_hit db tx 151 in
      ignore (Db.update_field db tx ~rel:"accounts" addr ~column:"balance" (Schema.int 7)));
  check_residency_counts db;
  check bool_t "reads return the committed state" true
    (balances db = List.sort compare ((151, 7) :: committed))

let test_residency_drop_then_segment_reuse () =
  let db = mk_bank () in
  insert_accounts db 20;
  Db.create_relation db ~name:"doomed" ~schema:account_schema;
  let first =
    Db.with_txn db (fun tx ->
        List.init 150 (fun i -> Db.insert db tx ~rel:"doomed" (account (i + 1))) |> List.hd)
  in
  let committed = balances db in
  let doomed_segment = rel_segment db "doomed" in
  Db.crash db;
  Db.recover db;
  check_residency_counts db;
  (* Restore one "doomed" partition of several. *)
  Db.with_txn db (fun tx -> ignore (Db.read db tx ~rel:"doomed" first));
  check_residency_counts db;
  check bool_t "doomed partly restored" true
    (let owed = non_resident_of db "doomed" in
     owed > 0 && owed < List.length (Db.relation_partitions db ~rel:"doomed"));
  Db.drop_relation db ~name:"doomed";
  check_residency_counts db;
  check int_t "the dropped segment owes nothing" 0
    (Catalog.non_resident_in_segment (Db.catalog db) doomed_segment);
  Db.crash db;
  Db.recover db;
  check_residency_counts db;
  Db.create_relation db ~name:"fresh" ~schema:account_schema;
  check int_t "the dropped segment id is reused" doomed_segment (rel_segment db "fresh");
  check_residency_counts db;
  Db.create_index db ~rel:"fresh" ~name:"fresh_id" ~kind:Catalog.Lhash ~key_column:"id";
  Db.with_txn db (fun tx ->
      for i = 1 to 30 do
        ignore (Db.insert db tx ~rel:"fresh" (account i))
      done);
  check_residency_counts db;
  check int_t "fresh holds only its own rows" 30 (Db.cardinality db ~rel:"fresh");
  check bool_t "accounts committed state" true (balances db = committed);
  check_residency_counts db

let test_residency_promoted_standby_mid_restore () =
  let module Replica = Mrdb_replica.Replica in
  let cl = Replica.create ~config:Config.small () in
  let p = Replica.primary cl in
  Db.create_relation p ~name:"accounts" ~schema:account_schema;
  Db.create_index p ~rel:"accounts" ~name:"accounts_id" ~kind:Catalog.Ttree
    ~key_column:"id";
  Db.create_relation p ~name:"other" ~schema:account_schema;
  insert_accounts p 150;
  Db.with_txn p (fun tx ->
      for i = 1 to 150 do
        ignore (Db.insert p tx ~rel:"other" (account i))
      done);
  let committed = balances p in
  check bool_t "cut shipped" true (Replica.ship_cut cl);
  Replica.warm_standby cl;
  check_residency_counts (Replica.standby cl);
  Replica.crash_primary cl;
  let np = Replica.promote cl in
  check_residency_counts np;
  check bool_t "promoted mid-restore" true (Db.resident_fraction np < 1.0);
  Db.with_txn np (fun tx ->
      let addr, _ = only_hit np tx 7 in
      ignore (Db.update_field np tx ~rel:"accounts" addr ~column:"balance" (Schema.int 1)));
  check_residency_counts np;
  check int_t "accounts resident after its first write" 0 (non_resident_of np "accounts");
  check bool_t "other still on disk" true (non_resident_of np "other" > 0);
  Db.with_txn np (fun tx -> ignore (Db.insert np tx ~rel:"accounts" (account 151)));
  check_residency_counts np;
  Db.recover_everything np;
  check_residency_counts np;
  let expected =
    List.sort compare
      ((151, 15100) :: List.map (fun (id, b) -> if id = 7 then (7, 1) else (id, b)) committed)
  in
  check bool_t "reads return the committed state" true (balances np = expected);
  check int_t "other intact" 150 (Db.cardinality np ~rel:"other")

(* The torture test: a randomized committed/aborted history with interleaved
   checkpoints and a crash at a random point; the recovered database must
   equal the committed model exactly. *)
let prop_crash_recovery_equivalence =
  QCheck.Test.make ~name:"crash/recovery == committed history" ~count:25
    QCheck.(pair (int_bound 1000) (int_range 10 80))
    (fun (seed, n_txns) ->
      let rng = Mrdb_util.Rng.of_int seed in
      let db = mk_bank ~indexed:false () in
      (* model: id -> balance for committed state *)
      let model = Hashtbl.create 64 in
      let addr_of = Hashtbl.create 64 in
      let next_id = ref 0 in
      for _ = 1 to n_txns do
        let commit = Mrdb_util.Rng.int rng 100 < 80 in
        let tx = Db.begin_txn db in
        (* Transaction-local view, applied to (model, addr_of) on commit. *)
        let local_model = Hashtbl.copy model in
        let local_addr = Hashtbl.copy addr_of in
        let ops = 1 + Mrdb_util.Rng.int rng 5 in
        for _ = 1 to ops do
          match Mrdb_util.Rng.int rng 3 with
          | 0 ->
              incr next_id;
              let id = !next_id in
              let addr = Db.insert db tx ~rel:"accounts" (account id) in
              Hashtbl.replace local_model id (id * 100);
              Hashtbl.replace local_addr id addr
          | 1 -> (
              let ids = Hashtbl.fold (fun k _ acc -> k :: acc) local_model [] in
              match ids with
              | [] -> ()
              | _ ->
                  let id = List.nth ids (Mrdb_util.Rng.int rng (List.length ids)) in
                  let addr = Hashtbl.find local_addr id in
                  let v = Mrdb_util.Rng.int rng 10_000 in
                  let addr' =
                    Db.update_field db tx ~rel:"accounts" addr ~column:"balance"
                      (Schema.int v)
                  in
                  Hashtbl.replace local_model id v;
                  Hashtbl.replace local_addr id addr')
          | _ -> (
              let ids = Hashtbl.fold (fun k _ acc -> k :: acc) local_model [] in
              match ids with
              | [] -> ()
              | _ ->
                  let id = List.nth ids (Mrdb_util.Rng.int rng (List.length ids)) in
                  Db.delete db tx ~rel:"accounts" (Hashtbl.find local_addr id);
                  Hashtbl.remove local_model id;
                  Hashtbl.remove local_addr id)
        done;
        if commit then begin
          Db.commit db tx;
          Hashtbl.reset model;
          Hashtbl.reset addr_of;
          Hashtbl.iter (Hashtbl.replace model) local_model;
          Hashtbl.iter (Hashtbl.replace addr_of) local_addr
        end
        else Db.abort db tx;
        if Mrdb_util.Rng.int rng 10 = 0 then ignore (Db.process_checkpoints db)
      done;
      Db.crash db;
      Db.recover db;
      let recovered = balances db in
      let expected =
        Hashtbl.fold (fun id bal acc -> (id, bal) :: acc) model [] |> List.sort compare
      in
      recovered = expected)

(* Same torture shape, but over an indexed relation: after recovery the
   index must agree with the data for every committed key. *)
let prop_crash_recovery_equivalence_indexed =
  QCheck.Test.make ~name:"crash/recovery with index == committed history" ~count:12
    QCheck.(pair (int_bound 1000) (int_range 10 40))
    (fun (seed, n_txns) ->
      let rng = Mrdb_util.Rng.of_int seed in
      let db = mk_bank ~indexed:true () in
      let model = Hashtbl.create 64 in
      let addr_of = Hashtbl.create 64 in
      let next_id = ref 0 in
      for _ = 1 to n_txns do
        let commit = Mrdb_util.Rng.int rng 100 < 75 in
        let tx = Db.begin_txn db in
        let local_model = Hashtbl.copy model in
        let local_addr = Hashtbl.copy addr_of in
        let ops = 1 + Mrdb_util.Rng.int rng 4 in
        for _ = 1 to ops do
          match Mrdb_util.Rng.int rng 3 with
          | 0 ->
              incr next_id;
              let id = !next_id in
              let addr = Db.insert db tx ~rel:"accounts" (account id) in
              Hashtbl.replace local_model id (id * 100);
              Hashtbl.replace local_addr id addr
          | 1 -> (
              let ids = Hashtbl.fold (fun k _ acc -> k :: acc) local_model [] in
              match ids with
              | [] -> ()
              | _ ->
                  let id = List.nth ids (Mrdb_util.Rng.int rng (List.length ids)) in
                  let v = Mrdb_util.Rng.int rng 10_000 in
                  let addr' =
                    Db.update_field db tx ~rel:"accounts"
                      (Hashtbl.find local_addr id) ~column:"balance" (Schema.int v)
                  in
                  Hashtbl.replace local_model id v;
                  Hashtbl.replace local_addr id addr')
          | _ -> (
              let ids = Hashtbl.fold (fun k _ acc -> k :: acc) local_model [] in
              match ids with
              | [] -> ()
              | _ ->
                  let id = List.nth ids (Mrdb_util.Rng.int rng (List.length ids)) in
                  Db.delete db tx ~rel:"accounts" (Hashtbl.find local_addr id);
                  Hashtbl.remove local_model id;
                  Hashtbl.remove local_addr id)
        done;
        if commit then begin
          Db.commit db tx;
          Hashtbl.reset model;
          Hashtbl.reset addr_of;
          Hashtbl.iter (Hashtbl.replace model) local_model;
          Hashtbl.iter (Hashtbl.replace addr_of) local_addr
        end
        else Db.abort db tx;
        if Mrdb_util.Rng.int rng 8 = 0 then ignore (Db.process_checkpoints db)
      done;
      Db.crash db;
      Db.recover db;
      let expected =
        Hashtbl.fold (fun id bal acc -> (id, bal) :: acc) model [] |> List.sort compare
      in
      balances db = expected
      && Db.with_txn db (fun tx ->
             List.for_all
               (fun (id, bal) ->
                 match Db.lookup db tx ~rel:"accounts" ~index:"accounts_id" (Schema.int id) with
                 | [ (_, tup) ] -> Schema.to_int (Tuple.field tup 2) = bal
                 | _ -> false)
               expected
             && Db.lookup db tx ~rel:"accounts" ~index:"accounts_id"
                  (Schema.int (1_000_000))
                = []))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "mrdb_core"
    [
      ( "basic",
        [
          Alcotest.test_case "create + insert" `Quick test_create_and_insert;
          Alcotest.test_case "index lookup" `Quick test_lookup_via_index;
          Alcotest.test_case "update + delete" `Quick test_update_and_delete;
          Alcotest.test_case "range query" `Quick test_range_query;
          Alcotest.test_case "abort rolls back" `Quick test_abort_rolls_back_everything;
          Alcotest.test_case "with_txn aborts on exception" `Quick test_with_txn_aborts_on_exception;
          Alcotest.test_case "unknown names" `Quick test_unknown_relation_and_index;
          Alcotest.test_case "linear hash index" `Quick test_linear_hash_index;
          Alcotest.test_case "index backfill" `Quick test_index_backfill;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "update-count trigger" `Quick test_update_count_triggers_checkpoint;
          Alcotest.test_case "checkpoint_all" `Quick test_checkpoint_all;
          Alcotest.test_case "deferred under lock" `Quick test_checkpoint_deferred_under_lock;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "crash requires recovery" `Quick test_crash_requires_recovery;
          Alcotest.test_case "restores committed data" `Quick test_recovery_restores_committed_data;
          Alcotest.test_case "drops uncommitted" `Quick test_recovery_drops_uncommitted;
          Alcotest.test_case "ckpt + later commits" `Quick test_recovery_after_checkpoints_and_more_commits;
          Alcotest.test_case "idempotent after ckpt crash" `Quick
            test_recovery_idempotent_replay_after_ckpt_crash;
          Alcotest.test_case "repeated crashes" `Quick test_repeated_crashes;
          Alcotest.test_case "full reload baseline" `Quick test_full_reload_baseline;
          Alcotest.test_case "on-demand partial residency" `Quick test_on_demand_partial_residency;
          Alcotest.test_case "background steps" `Quick test_background_recovery_steps;
          Alcotest.test_case "sweep in address order" `Quick test_sweep_ascending_order;
          Alcotest.test_case "sweep skips on-demand restores" `Quick
            test_sweep_skips_on_demand_restores;
          Alcotest.test_case "sweep after drop_relation" `Quick test_sweep_after_drop_relation;
          Alcotest.test_case "sweep with relation created after restart" `Quick
            test_sweep_with_relation_created_after_restart;
          Alcotest.test_case "declared relations restore first" `Quick
            test_declared_relations_restore_first;
          Alcotest.test_case "DDL survives crash" `Quick test_ddl_survives_crash;
          Alcotest.test_case "recover, work, crash again" `Quick
            test_work_after_recovery_then_crash_again;
        ]
        @ qsuite
            [ prop_crash_recovery_equivalence; prop_crash_recovery_equivalence_indexed ]
      );
      ( "residency",
        [
          Alcotest.test_case "new partition in a non-resident segment" `Quick
            test_residency_new_partition_in_non_resident_segment;
          Alcotest.test_case "drop, crash, segment id reused" `Quick
            test_residency_drop_then_segment_reuse;
          Alcotest.test_case "standby promoted mid-restore" `Quick
            test_residency_promoted_standby_mid_restore;
        ] );
    ]
