(* Systematic crash-point testing: run a fixed scripted history and crash
   after EVERY transaction boundary (and mid-transaction), verifying that
   recovery always reproduces exactly the committed prefix.  This is the
   strongest functional statement about the recovery algorithm: no matter
   where the power fails, the database comes back to the last committed
   state. *)

open Mrdb_storage
open Mrdb_core

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

let schema = Schema.of_list [ ("k", Schema.Int); ("v", Schema.Int) ]

(* The script: a list of transactions; each is (commit?, ops).  Ops are
   pure functions of the running address table. *)
type op = Ins of int | Upd of int * int | Del of int

let script =
  [
    (true, [ Ins 1; Ins 2; Ins 3 ]);
    (true, [ Upd (1, 100); Ins 4 ]);
    (false, [ Upd (2, 999); Del 3 ]);          (* aborted *)
    (true, [ Del 2; Ins 5; Upd (4, 44) ]);
    (true, [ Ins 6; Ins 7; Ins 8; Ins 9 ]);
    (false, [ Del 1 ]);                        (* aborted *)
    (true, [ Upd (5, 55); Del 6 ]);
    (true, [ Ins 10; Upd (10, 1010) ]);
  ]

(* Expected committed state after the first [n] transactions. *)
let model_after n =
  let tbl = Hashtbl.create 16 in
  List.iteri
    (fun i (commit, ops) ->
      if i < n && commit then
        List.iter
          (function
            | Ins k -> Hashtbl.replace tbl k k
            | Upd (k, v) -> Hashtbl.replace tbl k v
            | Del k -> Hashtbl.remove tbl k)
          ops)
    script;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let run_prefix db ~addr_of ~txns ~ckpt_every =
  List.iteri
    (fun i (commit, ops) ->
      if i < txns then begin
        let tx = Db.begin_txn db in
        List.iter
          (fun op ->
            match op with
            | Ins k ->
                let a = Db.insert db tx ~rel:"t" [| Schema.int k; Schema.int k |] in
                Hashtbl.replace addr_of k a
            | Upd (k, v) ->
                let a = Hashtbl.find addr_of k in
                let a' = Db.update_field db tx ~rel:"t" a ~column:"v" (Schema.int v) in
                Hashtbl.replace addr_of k a'
            | Del k -> Db.delete db tx ~rel:"t" (Hashtbl.find addr_of k))
          ops;
        if commit then Db.commit db tx
        else begin
          Db.abort db tx;
          (* Restore the address table from the database (aborted ops may
             have moved addresses back). *)
          Hashtbl.reset addr_of;
          Db.with_txn db (fun tx ->
              List.iter
                (fun (a, tup) ->
                  Hashtbl.replace addr_of (Schema.to_int (Tuple.field tup 0)) a)
                (Db.scan db tx ~rel:"t"))
        end;
        if ckpt_every > 0 && (i + 1) mod ckpt_every = 0 then
          ignore (Db.process_checkpoints db)
      end)
    script

let observed db =
  Db.with_txn db (fun tx ->
      Db.scan db tx ~rel:"t"
      |> List.map (fun (_, tup) ->
             (Schema.to_int (Tuple.field tup 0), Schema.to_int (Tuple.field tup 1)))
      |> List.sort compare)

let crash_after_txn ~ckpt_every n () =
  let db = Db.create ~config:Config.small () in
  Db.create_relation db ~name:"t" ~schema;
  let addr_of = Hashtbl.create 16 in
  run_prefix db ~addr_of ~txns:n ~ckpt_every;
  Db.crash db;
  Db.recover db;
  check
    (Alcotest.list (Alcotest.pair int_t int_t))
    (Printf.sprintf "state after crash at txn %d" n)
    (model_after n) (observed db);
  (* The database remains usable: run the remaining script after recovery
     (addresses may have changed, so rebuild the table). *)
  Hashtbl.reset addr_of;
  Db.with_txn db (fun tx ->
      List.iter
        (fun (a, tup) ->
          Hashtbl.replace addr_of (Schema.to_int (Tuple.field tup 0)) a)
        (Db.scan db tx ~rel:"t"))

let crash_mid_txn n () =
  (* Crash with transaction n open and partially executed: its effects
     must vanish entirely. *)
  let db = Db.create ~config:Config.small () in
  Db.create_relation db ~name:"t" ~schema;
  let addr_of = Hashtbl.create 16 in
  run_prefix db ~addr_of ~txns:n ~ckpt_every:3;
  (match List.nth_opt script n with
  | Some (_, ops) ->
      let tx = Db.begin_txn db in
      (* Execute only the first op of the next transaction, then crash. *)
      (match ops with
      | Ins k :: _ -> ignore (Db.insert db tx ~rel:"t" [| Schema.int k; Schema.int k |])
      | Upd (k, v) :: _ ->
          ignore
            (Db.update_field db tx ~rel:"t" (Hashtbl.find addr_of k) ~column:"v"
               (Schema.int v))
      | Del k :: _ -> Db.delete db tx ~rel:"t" (Hashtbl.find addr_of k)
      | [] -> ())
  | None -> ());
  Db.crash db;
  Db.recover db;
  check
    (Alcotest.list (Alcotest.pair int_t int_t))
    (Printf.sprintf "open txn %d vanished" n)
    (model_after n) (observed db)

let crash_during_checkpoint () =
  (* Crash right after checkpoint transactions committed but with their
     post-commit work (bin flush/reset) possibly outstanding disk writes. *)
  let db = Db.create ~config:Config.small () in
  Db.create_relation db ~name:"t" ~schema;
  let addr_of = Hashtbl.create 16 in
  run_prefix db ~addr_of ~txns:5 ~ckpt_every:0;
  List.iter (fun part -> Db.checkpoint_partition db part)
    (Db.relation_partitions db ~rel:"t");
  (* Crash WITHOUT quiescing: checkpoint disk writes may be in flight. *)
  Db.crash db;
  Db.recover db;
  check
    (Alcotest.list (Alcotest.pair int_t int_t))
    "state after mid-checkpoint crash" (model_after 5) (observed db)

let indexed_variant () =
  (* Same script against an indexed relation: index recovery must agree
     with tuple recovery at every crash point. *)
  List.iter
    (fun n ->
      let db = Db.create ~config:Config.small () in
      Db.create_relation db ~name:"t" ~schema;
      Db.create_index db ~rel:"t" ~name:"t_k" ~kind:Catalog.Ttree ~key_column:"k";
      let addr_of = Hashtbl.create 16 in
      run_prefix db ~addr_of ~txns:n ~ckpt_every:2;
      Db.crash db;
      Db.recover db;
      check
        (Alcotest.list (Alcotest.pair int_t int_t))
        (Printf.sprintf "indexed state at %d" n)
        (model_after n) (observed db);
      (* Every committed key must be found through the index, and only
         those. *)
      Db.with_txn db (fun tx ->
          List.iter
            (fun (k, v) ->
              match Db.lookup db tx ~rel:"t" ~index:"t_k" (Schema.int k) with
              | [ (_, tup) ] ->
                  check int_t "index agrees" v (Schema.to_int (Tuple.field tup 1))
              | l -> Alcotest.failf "key %d: %d index hits" k (List.length l))
            (model_after n);
          check bool_t "no phantom entries" true
            (Db.lookup db tx ~rel:"t" ~index:"t_k" (Schema.int 999) = [])))
    [ 1; 3; 5; 8 ]

let crash_during_partial_on_demand_recovery () =
  (* Crash again while only part of the database has been demand-restored:
     the not-yet-restored partitions must still recover afterwards. *)
  let db = Db.create ~config:Config.small () in
  Db.create_relation db ~name:"t" ~schema;
  Db.create_relation db ~name:"u" ~schema;
  let addr_of = Hashtbl.create 16 in
  run_prefix db ~addr_of ~txns:6 ~ckpt_every:2;
  Db.with_txn db (fun tx ->
      for i = 100 to 140 do
        ignore (Db.insert db tx ~rel:"u" [| Schema.int i; Schema.int i |])
      done);
  Db.crash db;
  Db.recover db;
  (* Touch only "t"; "u" stays disk-resident. *)
  let t_state = observed db in
  check bool_t "partial residency" true (Db.resident_fraction db < 1.0);
  Db.crash db;
  Db.recover db;
  check (Alcotest.list (Alcotest.pair int_t int_t)) "t unchanged" t_state (observed db);
  let u_count =
    Db.with_txn db (fun tx -> List.length (Db.scan db tx ~rel:"u"))
  in
  check int_t "u recovers after double crash" 41 u_count

let double_crash_during_recovery_window () =
  (* Crash again immediately after recovery, before any new work: state
     must be unchanged (recovery itself must not damage durability). *)
  let db = Db.create ~config:Config.small () in
  Db.create_relation db ~name:"t" ~schema;
  let addr_of = Hashtbl.create 16 in
  run_prefix db ~addr_of ~txns:6 ~ckpt_every:2;
  Db.crash db;
  Db.recover db;
  Db.crash db;
  Db.recover db;
  Db.crash db;
  Db.recover db;
  check
    (Alcotest.list (Alcotest.pair int_t int_t))
    "triple crash" (model_after 6) (observed db)

(* -- failing and crashing DDL --------------------------------------------- *)

(* The catalog as the user sees it: each relation with its index names. *)
let catalog_view db =
  List.map
    (fun (r : Catalog.rel_desc) ->
      (r.Catalog.rel_name, List.map (fun (i : Catalog.index_desc) -> i.Catalog.idx_name) r.Catalog.indices))
    (Catalog.relations (Db.catalog db))

(* Every row of every relation, in a canonical order. *)
let all_rows db =
  Db.with_txn db (fun tx ->
      List.map
        (fun rel -> (rel, List.sort compare (List.map snd (Db.scan db tx ~rel))))
        (Db.relations db))

let view_t = Alcotest.(list (pair string (list string)))
let same_rows what a b = check bool_t what true (a = b)

let kv = Schema.of_list [ ("k", Schema.Int); ("v", Schema.Int) ]
let wide = Schema.of_list [ ("s", Schema.Str) ]

let with_rows ~rel n db =
  Db.create_relation db ~name:rel ~schema:kv;
  Db.with_txn db (fun tx ->
      for i = 1 to n do
        ignore (Db.insert db tx ~rel [| Schema.int i; Schema.int (10 * i) |])
      done)

(* A relation holding one 410-byte string: the row fits a log record, an
   index node keyed on it does not. *)
let with_wide_row db =
  with_rows ~rel:"t" 3 db;
  Db.create_relation db ~name:"w" ~schema:wide;
  Db.with_txn db (fun tx ->
      ignore (Db.insert db tx ~rel:"w" [| Schema.S (String.make 410 'x') |]))

(* A DDL that fails: the exception reaches the caller, nothing of the DDL
   is left, a retry fails the same way, ordinary work goes on, and a
   restart finds the pre-DDL catalog with every row. *)
let failing_ddl ~setup ~ddl ~expect () =
  let db = Db.create ~config:Config.small () in
  setup db;
  let cat0 = catalog_view db and rows0 = all_rows db in
  let attempt what =
    match ddl db with
    | () -> Alcotest.failf "%s: the DDL succeeded" what
    | exception e -> Printexc.exn_slot_name e
  in
  let first = attempt "first try" in
  check Alcotest.string "structured exception" expect first;
  check view_t "catalog unchanged" cat0 (catalog_view db);
  same_rows "rows unchanged" rows0 (all_rows db);
  check Alcotest.string "a retry fails the same way" first (attempt "retry");
  check view_t "catalog still unchanged" cat0 (catalog_view db);
  Db.create_relation db ~name:"after" ~schema:kv;
  Db.with_txn db (fun tx -> ignore (Db.insert db tx ~rel:"after" [| Schema.int 1; Schema.int 1 |]));
  let rows1 = all_rows db in
  Db.crash db;
  Db.recover db;
  Db.recover_everything db;
  check view_t "restart: pre-DDL catalog" (cat0 @ [ ("after", []) ]) (catalog_view db);
  same_rows "restart: every row" rows1 (all_rows db)

let long_name () =
  failing_ddl ~setup:(with_rows ~rel:"t" 3)
    ~ddl:(fun db -> Db.create_relation db ~name:(String.make 450 'n') ~schema:kv)
    ~expect:"Mrdb_wal.Slb.Record_too_large" ()

let wide_key kind () =
  failing_ddl ~setup:with_wide_row
    ~ddl:(fun db -> Db.create_index db ~rel:"w" ~name:"w_s" ~kind ~key_column:"s")
    ~expect:"Mrdb_wal.Slb.Record_too_large" ()

let slb_full_backfill () =
  failing_ddl ~setup:(with_rows ~rel:"t" 300)
    ~ddl:(fun db -> Db.create_index db ~rel:"t" ~name:"t_k" ~kind:Catalog.Ttree ~key_column:"k")
    ~expect:"Mrdb_wal.Slb.Slb_full" ()

exception Power_cut

let cut_power_at db k =
  let n = ref 0 in
  Mrdb_hw.Stable_mem.set_fault_hook (Db.stable_mem db)
    (Some { Mrdb_hw.Stable_mem.on_write = (fun ~off:_ ~len:_ ->
         incr n;
         if !n >= k then raise Power_cut) })

let restart db =
  Db.crash db;
  Mrdb_hw.Stable_mem.set_fault_hook (Db.stable_mem db) None;
  Db.recover db;
  Db.recover_everything db

(* A database and the step to crash inside, ready to run. *)
type armed = Db.t * (Db.t -> unit)

(* A dry run of the step: its stable-memory write count, and the index of
   the last write that published a ring entry (the committed-ring tail
   advance; the drain's head advance lowers the count again). *)
let count_writes ((db, step) : armed) =
  let n = ref 0 and last = ref 0 in
  let pending = ref (Mrdb_wal.Slb.pending_committed (Db.slb db)) in
  let note () =
    let p = Mrdb_wal.Slb.pending_committed (Db.slb db) in
    if p > !pending then last := !n;
    pending := p
  in
  Mrdb_hw.Stable_mem.set_fault_hook (Db.stable_mem db)
    (Some { Mrdb_hw.Stable_mem.on_write = (fun ~off:_ ~len:_ -> note (); incr n) });
  step db;
  note ();
  (!n, !last)

(* Crash before each of writes 1..[upto] of the step, each on a fresh
   [armed ()] (a [k] past the step's last write crashes after it);
   [judge k db] checks the restarted database. *)
let crash_each_write ~(armed : unit -> armed) ~upto ~judge =
  for k = 1 to upto do
    let db, step = armed () in
    cut_power_at db k;
    (match step db with () | (exception Power_cut) -> ());
    (match restart db with
    | () -> ()
    | exception e -> Alcotest.failf "write %d: restart failed: %s" k (Printexc.to_string e));
    judge k db
  done

(* Every crash point of a DDL, up to and including the write that
   publishes its ring entry: the restarted catalog is exactly the pre-DDL
   or the post-DDL one, with every row. *)
let ddl_crash_points ~setup ~ddl () =
  let fresh () =
    let db = Db.create ~config:Config.small () in
    setup db;
    db
  in
  let pre = fresh () in
  let cat0 = catalog_view pre and rows0 = all_rows pre in
  let post = fresh () in
  ddl post;
  let cat1 = catalog_view post and rows1 = all_rows post in
  let armed () = (fresh (), ddl) in
  let _, publish = count_writes (armed ()) in
  check bool_t "the DDL publishes a ring entry" true (publish > 0);
  crash_each_write ~armed ~upto:publish ~judge:(fun k db ->
      let cat = catalog_view db and rows = all_rows db in
      if not ((cat = cat0 && rows = rows0) || (cat = cat1 && rows = rows1)) then
        Alcotest.failf "write %d: neither the pre-DDL nor the post-DDL database" k)

let ddl_twenty_rows = with_rows ~rel:"t" 20

let crash_create_relation =
  ddl_crash_points ~setup:ddl_twenty_rows
    ~ddl:(fun db -> Db.create_relation db ~name:"u" ~schema:kv)

let crash_create_index kind =
  ddl_crash_points ~setup:ddl_twenty_rows
    ~ddl:(fun db -> Db.create_index db ~rel:"t" ~name:"t_k" ~kind ~key_column:"k")

let crash_drop_relation =
  ddl_crash_points
    ~setup:(fun db ->
      ddl_twenty_rows db;
      with_rows ~rel:"u" 5 db)
    ~ddl:(fun db -> Db.drop_relation db ~name:"u")

(* Every crash point of one transaction's commit and drain, on a relation
   holding the row (1, 10): restart reads the pre-commit or the
   post-commit rows, never the transaction applied twice. *)
let commit_crash_points ~config ~op ~post () =
  let fresh () =
    let db = Db.create ~config () in
    with_rows ~rel:"t" 1 db;
    db
  in
  let pre = all_rows (fresh ()) in
  let armed () =
    let db = fresh () in
    let tx = Db.begin_txn db in
    op db tx;
    (db, fun db -> Db.commit db tx)
  in
  let writes, _ = count_writes (armed ()) in
  check bool_t "the commit writes" true (writes > 0);
  crash_each_write ~armed ~upto:(writes + 1) ~judge:(fun k db ->
      let rows = all_rows db in
      if rows <> pre && rows <> [ ("t", post) ] then
        Alcotest.failf "write %d: neither the pre-commit nor the post-commit rows" k)

let one_row_insert =
  commit_crash_points ~config:Config.small
    ~op:(fun db tx -> ignore (Db.insert db tx ~rel:"t" [| Schema.int 2; Schema.int 20 |]))
    ~post:[ [| Schema.int 1; Schema.int 10 |]; [| Schema.int 2; Schema.int 20 |] ]

let logical_increment =
  commit_crash_points
    ~config:{ Config.small with Config.redo_codec = Config.Logical }
    ~op:(fun db tx ->
      match Db.scan db tx ~rel:"t" with
      | [ (addr, _) ] ->
          ignore (Db.update_field db tx ~rel:"t" addr ~column:"v" (Schema.int 11));
          check bool_t "logged as a +1 command" true
            (Mrdb_sim.Trace.count (Db.trace db) "codec_cmd_records" > 0)
      | _ -> Alcotest.fail "one row expected")
    ~post:[ [| Schema.int 1; Schema.int 11 |] ]

let n_txns = List.length script

let () =
  let crash_cases ~ckpt_every label =
    List.init (n_txns + 1) (fun n ->
        Alcotest.test_case
          (Printf.sprintf "%s: crash after txn %d" label n)
          `Quick
          (crash_after_txn ~ckpt_every n))
  in
  Alcotest.run "mrdb_crashpoints"
    [
      ("no checkpoints", crash_cases ~ckpt_every:0 "plain");
      ("checkpoint every 2 txns", crash_cases ~ckpt_every:2 "ckpt2");
      ("checkpoint every txn", crash_cases ~ckpt_every:1 "ckpt1");
      ( "mid-transaction",
        List.init n_txns (fun n ->
            Alcotest.test_case
              (Printf.sprintf "crash inside txn %d" n)
              `Quick (crash_mid_txn n)) );
      ( "special",
        [
          Alcotest.test_case "crash during checkpoint I/O" `Quick crash_during_checkpoint;
          Alcotest.test_case "indexed relation at several points" `Quick indexed_variant;
          Alcotest.test_case "repeated crash during recovery window" `Quick
            double_crash_during_recovery_window;
          Alcotest.test_case "crash during partial on-demand recovery" `Quick
            crash_during_partial_on_demand_recovery;
        ] );
      ( "failed DDL",
        [
          Alcotest.test_case "create_relation: 450-character name" `Quick long_name;
          Alcotest.test_case "create_index: 410-byte key, T-tree" `Quick
            (wide_key Catalog.Ttree);
          Alcotest.test_case "create_index: 410-byte key, linear hash" `Quick
            (wide_key Catalog.Lhash);
          Alcotest.test_case "create_index: T-tree backfill fills the SLB" `Quick
            slb_full_backfill;
        ] );
      ( "DDL crash points",
        [
          Alcotest.test_case "create_relation" `Quick crash_create_relation;
          Alcotest.test_case "create_index T-tree, 20 rows" `Quick
            (crash_create_index Catalog.Ttree);
          Alcotest.test_case "create_index linear hash, 20 rows" `Quick
            (crash_create_index Catalog.Lhash);
          Alcotest.test_case "drop_relation" `Quick crash_drop_relation;
        ] );
      ( "commit crash points",
        [
          Alcotest.test_case "one-row insert" `Quick one_row_insert;
          Alcotest.test_case "logical +1 update" `Quick logical_increment;
        ] );
    ]
