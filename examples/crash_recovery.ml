(* Crash-recovery comparison (§2.5 / §3.4): after the same crash, measure
   simulated time until a transaction needing ONE relation can run.  There
   is one restart path, [Db.recover]: it restores the catalogs and lets
   transactions run while partitions are restored on demand.  Three ways
   of using it are timed:

   - the first transaction faults its partitions in on first access
     (§2.5 method 2, the paper's design);
   - the first transaction declares its relation in [Db.begin_txn
     ~declare] and waits for it before its first operation (method 1);
   - full database reload, the Hagmann-style baseline: [Db.recover]
     followed by [Db.recover_everything] before any transaction runs.

   Partition-level recovery should win by roughly the ratio of database
   size to working-set size; the program exits 1 when it does not.

   Run with: dune exec examples/crash_recovery.exe *)

open Mrdb_core

let build_db () =
  let db = Db.create ~config:Config.small () in
  (* Several relations so the database is much larger than any one
     transaction's working set. *)
  let schema =
    Mrdb_storage.Schema.of_list [ ("k", Mrdb_storage.Schema.Int); ("v", Mrdb_storage.Schema.Str) ]
  in
  for r = 0 to 5 do
    let name = Printf.sprintf "table%d" r in
    Db.create_relation db ~name ~schema;
    Db.with_txn db (fun tx ->
        for i = 1 to 120 do
          ignore
            (Db.insert db tx ~rel:name
               [| Mrdb_storage.Schema.int i;
                  Mrdb_storage.Schema.S (String.make 40 (Char.chr (65 + r)));
               |])
        done)
  done;
  (* Leave a mix of checkpointed and log-only state behind. *)
  ignore (Db.process_checkpoints db);
  Db.with_txn db (fun tx ->
      for i = 200 to 260 do
        ignore
          (Db.insert db tx ~rel:"table0"
             [| Mrdb_storage.Schema.int i; Mrdb_storage.Schema.S "late" |])
      done);
  Db.quiesce db;
  db

let time_first_txn db f =
  let t0 = Mrdb_sim.Sim.now (Db.sim db) in
  f ();
  Mrdb_sim.Sim.now (Db.sim db) -. t0

let () =
  (* On-demand: recover catalogs, then touch one relation. *)
  let db = build_db () in
  Db.crash db;
  let on_demand =
    time_first_txn db (fun () ->
        Db.recover db;
        Db.with_txn db (fun tx -> ignore (Db.scan db tx ~rel:"table0")))
  in
  let resident_at_first_txn = Db.resident_fraction db in

  (* Declared: same restart, but the transaction declares its relation. *)
  let db2 = build_db () in
  Db.crash db2;
  let predeclare =
    time_first_txn db2 (fun () ->
        Db.recover db2;
        let tx = Db.begin_txn ~declare:[ "table0" ] db2 in
        ignore (Db.scan db2 tx ~rel:"table0");
        Db.commit db2 tx)
  in

  (* Full reload: everything restored before any transaction. *)
  let db3 = build_db () in
  Db.crash db3;
  let full_reload =
    time_first_txn db3 (fun () ->
        Db.recover db3;
        Db.recover_everything db3;
        Db.with_txn db3 (fun tx -> ignore (Db.scan db3 tx ~rel:"table0")))
  in

  Printf.printf "time to first transaction after crash (simulated ms):\n";
  Printf.printf "  on-demand partition-level : %8.2f  (%.0f%% of db resident at that point)\n"
    (on_demand /. 1000.0)
    (resident_at_first_txn *. 100.0);
  Printf.printf "  predeclared relations     : %8.2f\n" (predeclare /. 1000.0);
  Printf.printf "  full database reload      : %8.2f\n" (full_reload /. 1000.0);
  Printf.printf "  partition-level speedup over full reload: %.1fx\n"
    (full_reload /. on_demand);
  if full_reload <= on_demand then begin
    print_endline "unexpected: full reload not slower — check configuration";
    exit 1
  end;
  print_endline "crash_recovery OK"
