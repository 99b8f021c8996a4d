(* Tests for the workload generators and the configuration validator. *)

open Mrdb_core

let check = Alcotest.check
let bool_t = Alcotest.bool
let int_t = Alcotest.int

(* -- Bank -------------------------------------------------------------------- *)

let test_bank_setup_and_invariant () =
  let db = Db.create ~config:Config.small () in
  let bank = Workload.Bank.setup db ~accounts:120 ~tellers:6 ~branches:2 () in
  check int_t "accounts" 120 (Workload.Bank.accounts bank);
  check int_t "rows" 120 (Db.cardinality db ~rel:"account");
  check bool_t "initial invariant" true (Workload.Bank.consistent bank db);
  check Alcotest.int64 "initial total" (Workload.Bank.expected_total bank)
    (Workload.Bank.audit bank db)

let test_bank_debit_credit_maintains_invariant () =
  let db = Db.create ~config:Config.small () in
  let bank = Workload.Bank.setup db ~accounts:100 () in
  let rng = Mrdb_util.Rng.of_int 3 in
  for _ = 1 to 120 do
    Workload.Bank.run_debit_credit bank db ~rng
  done;
  check bool_t "invariant after 120 txns" true (Workload.Bank.consistent bank db);
  (* History grows one record per transaction. *)
  check int_t "history rows" 120 (Db.cardinality db ~rel:"history")

let test_bank_invariant_across_crash () =
  let db = Db.create ~config:Config.small () in
  let bank = Workload.Bank.setup db ~accounts:80 () in
  let rng = Mrdb_util.Rng.of_int 9 in
  for _ = 1 to 60 do
    Workload.Bank.run_debit_credit bank db ~rng
  done;
  let total = Workload.Bank.audit bank db in
  Db.crash db;
  Db.recover db;
  check Alcotest.int64 "total preserved" total (Workload.Bank.audit bank db);
  check bool_t "invariant preserved" true (Workload.Bank.consistent bank db)

(* -- Update_heavy / Skewed ----------------------------------------------------- *)

let test_update_heavy () =
  let db = Db.create ~config:Config.small () in
  let w = Workload.Update_heavy.setup db ~rows:60 () in
  check int_t "rows" 60 (Workload.Update_heavy.rows w);
  let rng = Mrdb_util.Rng.of_int 1 in
  let records0 = Mrdb_sim.Trace.count (Db.trace db) "log_records" in
  for _ = 1 to 50 do
    Workload.Update_heavy.run_one w db ~rng
  done;
  let per_txn =
    float_of_int (Mrdb_sim.Trace.count (Db.trace db) "log_records" - records0) /. 50.0
  in
  (* The §3.2 update-intensive extreme: ~one log record per transaction. *)
  check bool_t "about one record per txn" true (per_txn >= 1.0 && per_txn < 2.0);
  check int_t "cardinality unchanged" 60 (Db.cardinality db ~rel:"cells")

let test_skewed_concentrates_updates () =
  let db = Db.create ~config:Config.small () in
  let w = Workload.Skewed.setup db ~rows:500 ~theta:1.5 () in
  check bool_t "several partitions" true (Workload.Skewed.partitions w db > 2);
  let rng = Mrdb_util.Rng.of_int 4 in
  for _ = 1 to 200 do
    Workload.Skewed.run_one w db ~rng
  done;
  check int_t "rows stable" 500 (Db.cardinality db ~rel:"skewed")

(* -- Config validation ---------------------------------------------------------- *)

let test_config_default_and_small_valid () =
  Config.validate Config.default;
  Config.validate Config.small

let test_config_rejects_bad_geometry () =
  Alcotest.check_raises "tiny partition"
    (Invalid_argument "Config: partition_bytes too small") (fun () ->
      Config.validate { Config.small with Config.partition_bytes = 64 });
  Alcotest.check_raises "ckpt disk too small"
    (Invalid_argument "Config: checkpoint disk cannot hold a single partition image")
    (fun () -> Config.validate { Config.small with Config.ckpt_disk_pages = 1 });
  Alcotest.check_raises "zero group"
    (Invalid_argument "Config: group size must be >= 1") (fun () ->
      Config.validate { Config.small with Config.commit_mode = Config.group 0 });
  Alcotest.check_raises "zero n_update"
    (Invalid_argument "Config: n_update must be >= 1") (fun () ->
      Config.validate { Config.small with Config.n_update = 0 });
  Alcotest.check_raises "index nodes vs log page"
    (Invalid_argument "Config: index node records exceed log page capacity")
    (fun () -> Config.validate { Config.small with Config.ttree_max_items = 64 })

(* -- commit modes over workloads -------------------------------------------------- *)

let run_bank_with mode =
  let config = { Config.small with Config.commit_mode = mode } in
  let db = Db.create ~config () in
  let bank = Workload.Bank.setup db ~accounts:60 () in
  let rng = Mrdb_util.Rng.of_int 12 in
  for _ = 1 to 40 do
    Workload.Bank.run_debit_credit bank db ~rng
  done;
  Db.flush_group db;
  Db.quiesce db;
  (db, bank)

let test_group_commit_equivalent_results () =
  (* The default commit (a group of one) against real batching. *)
  let db_i, bank_i = run_bank_with Config.small.Config.commit_mode in
  let db_g, bank_g = run_bank_with (Config.group 4) in
  check Alcotest.int64 "same totals under same seed"
    (Workload.Bank.audit bank_i db_i) (Workload.Bank.audit bank_g db_g);
  check bool_t "group invariant" true (Workload.Bank.consistent bank_g db_g)

let test_group_commit_survives_crash_after_flush () =
  let db, bank = run_bank_with (Config.group 4) in
  let total = Workload.Bank.audit bank db in
  Db.crash db;
  Db.recover db;
  check Alcotest.int64 "flushed groups durable" total (Workload.Bank.audit bank db)

let latency_p50 db =
  Mrdb_obs.Metrics.quantile (Mrdb_obs.Obs.txn_latency (Db.obs db)) 0.5

let test_disk_force_mode_works () =
  let db, bank = run_bank_with Config.Disk_force in
  check bool_t "invariant" true (Workload.Bank.consistent bank db);
  (* Disk-force is the default commit plus a log force; its latency must
     include the wait for that force. *)
  let forced = latency_p50 db in
  let default = latency_p50 (fst (run_bank_with Config.small.Config.commit_mode)) in
  check bool_t
    (Printf.sprintf "disk-force p50 %d ns above default p50 %d ns" forced default)
    true (forced > default);
  Db.crash db;
  Db.recover db;
  check bool_t "recovers" true (Workload.Bank.consistent bank db)

let () =
  Alcotest.run "mrdb_workload"
    [
      ( "bank",
        [
          Alcotest.test_case "setup + invariant" `Quick test_bank_setup_and_invariant;
          Alcotest.test_case "debit/credit invariant" `Quick
            test_bank_debit_credit_maintains_invariant;
          Alcotest.test_case "invariant across crash" `Quick test_bank_invariant_across_crash;
        ] );
      ( "other workloads",
        [
          Alcotest.test_case "update-heavy" `Quick test_update_heavy;
          Alcotest.test_case "skewed" `Quick test_skewed_concentrates_updates;
        ] );
      ( "config",
        [
          Alcotest.test_case "defaults valid" `Quick test_config_default_and_small_valid;
          Alcotest.test_case "rejects bad geometry" `Quick test_config_rejects_bad_geometry;
        ] );
      ( "commit modes",
        [
          Alcotest.test_case "group == instant results" `Quick test_group_commit_equivalent_results;
          Alcotest.test_case "group survives crash after flush" `Quick
            test_group_commit_survives_crash_after_flush;
          Alcotest.test_case "disk-force works" `Quick test_disk_force_mode_works;
        ] );
    ]
