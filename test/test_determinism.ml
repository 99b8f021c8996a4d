(* Before/after determinism lock for the recovery-component extraction.

   Runs a fixed-seed debit/credit workload (with a crash + recovery in the
   middle) and asserts that the Trace counters and the simulated elapsed
   time match the values captured on the seed tree, bit for bit.  Any
   refactor of the recovery path that changes scheduling, instruction
   accounting, or replay order shows up here as a counter or clock drift.

   Two scenarios are locked: the original single-executor run (whose
   golden predates the executor refactor and must stay byte-identical),
   and a four-executor run driven by a deterministic round-robin
   schedule over striped SLB regions.

   New counters introduced at module seams after the capture (the
   [sorter_] / [restorer_] / [ckpt_deferred_] / [codec_] families) are
   excluded from the golden comparison; they are asserted separately in
   test_recovery.ml and test_logical.ml. *)

open Mrdb_core
module Executor = Mrdb_exec.Executor
module Schedule = Mrdb_exec.Schedule

let check = Alcotest.check

(* Counters added by the recovery extraction, after the golden capture. *)
let post_seed_counter name =
  let prefixes = [ "sorter_"; "restorer_"; "ckpt_deferred_"; "codec_" ] in
  List.exists
    (fun p -> String.length name >= String.length p
              && String.sub name 0 (String.length p) = p)
    prefixes

let run_scenario () =
  let db = Db.create ~config:Config.small () in
  let bank = Workload.Bank.setup db ~accounts:400 ~tellers:8 ~branches:2 () in
  let rng = Mrdb_util.Rng.of_int 42 in
  for _ = 1 to 300 do
    Workload.Bank.run_debit_credit bank db ~rng
  done;
  Db.quiesce db;
  Db.crash db;
  Db.recover db;
  for _ = 1 to 100 do
    Workload.Bank.run_debit_credit bank db ~rng
  done;
  Db.quiesce db;
  Db.checkpoint_all db;
  Db.quiesce db;
  let counters =
    List.filter
      (fun (name, _) -> not (post_seed_counter name))
      (Mrdb_sim.Trace.counters (Db.trace db))
  in
  (counters, Mrdb_sim.Sim.now (Db.sim db))

(* Golden values captured on the seed tree (pre-refactor), printed by
   running this file with MRDB_DETERMINISM_CAPTURE=1.  The counters are
   the seed's; the elapsed time was re-captured (0x1.98e23p+21 ->
   0x1.98e228p+21, 1 simulated µs earlier) when system transactions
   folded into one path: the index build on an empty relation now
   registers its first partition inside its own system transaction, one
   nested commit and drain fewer. *)
let golden_counters =
  [
    ("checkpoints", 174);
    ("ckpt_req_age", 5);
    ("ckpt_req_update_count", 157);
    ("commits", 410);
    ("crashes", 1);
    ("indices_created", 1);
    ("log_records", 4836);
    ("partitions_recovered", 30);
    ("recoveries", 1);
    ("recovery_records_applied", 73);
    ("relations_created", 4);
  ]

let golden_elapsed_us = 0x1.98e228p+21

(* The four-executor scenario: same bank, same transaction count, but the
   transactions are spread round-robin over four executors (each drawing
   from its own RNG stream) and their REDO records land in four striped
   SLB regions that recovery merges by commit sequence. *)
let run_scenario_exec4 () =
  let config =
    (* Striping divides the SLB block pool by the executor count, but the
       bank setup still runs its whole populate workload through region 0
       — scale the pool so each region keeps the single-executor budget. *)
    let stable =
      {
        Config.small.Config.stable with
        Mrdb_wal.Stable_layout.slb_block_count =
          4 * Config.small.Config.stable.Mrdb_wal.Stable_layout.slb_block_count;
      }
    in
    { Config.small with Config.executors = 4; stable }
  in
  let db = Db.create ~config () in
  let bank = Workload.Bank.setup db ~accounts:400 ~tellers:8 ~branches:2 () in
  let sched = Schedule.create ~seed:42 (Executor.spawn ~seed:42 ~n:4) in
  let step e = Workload.Bank.run_debit_credit_exec bank db ~exec:e in
  ignore (Sim_exec.run_scheduled ~db ~schedule:sched ~steps:300 ~f:step ());
  Db.crash db;
  Db.recover db;
  ignore (Sim_exec.run_scheduled ~db ~schedule:sched ~steps:100 ~f:step ());
  Db.quiesce db;
  Db.checkpoint_all db;
  Db.quiesce db;
  Alcotest.(check bool) "bank consistent at 4 executors" true
    (Workload.Bank.consistent bank db);
  let counters =
    List.filter
      (fun (name, _) -> not (post_seed_counter name))
      (Mrdb_sim.Trace.counters (Db.trace db))
  in
  (counters, Mrdb_sim.Sim.now (Db.sim db))

(* Golden values for the four-executor scenario, captured when the
   executor refactor landed (MRDB_DETERMINISM_CAPTURE=1 MRDB_EXECUTORS=4);
   the elapsed time was re-captured (0x1.9b582p+21 -> 0x1.9b5818p+21) for
   the same one-path change as above. *)
let golden_counters_e4 =
  [
    ("checkpoints", 175);
    ("ckpt_req_age", 5);
    ("ckpt_req_update_count", 156);
    ("commits", 413);
    ("crashes", 1);
    ("indices_created", 1);
    ("log_records", 4837);
    ("partitions_recovered", 30);
    ("recoveries", 1);
    ("recovery_records_applied", 89);
    ("relations_created", 4);
  ]

let golden_elapsed_us_e4 = 0x1.9b5818p+21

let capture scenario =
  let counters, elapsed = scenario () in
  Printf.printf "let golden_counters = [\n";
  List.iter (fun (n, c) -> Printf.printf "  (%S, %d);\n" n c) counters;
  Printf.printf "]\n\nlet golden_elapsed_us = %h\n" elapsed

let test_counters_and_clock () =
  let counters, elapsed = run_scenario () in
  check
    Alcotest.(list (pair string int))
    "trace counters identical to seed capture" golden_counters counters;
  check (Alcotest.float 0.0) "simulated elapsed time identical to seed capture"
    golden_elapsed_us elapsed

let test_scenario_repeatable () =
  (* The scenario itself must be deterministic for the golden lock to mean
     anything: two fresh runs agree exactly. *)
  let c1, e1 = run_scenario () in
  let c2, e2 = run_scenario () in
  check Alcotest.(list (pair string int)) "counters repeatable" c1 c2;
  check (Alcotest.float 0.0) "clock repeatable" e1 e2

let test_counters_and_clock_e4 () =
  let counters, elapsed = run_scenario_exec4 () in
  check
    Alcotest.(list (pair string int))
    "trace counters identical to executors=4 capture" golden_counters_e4
    counters;
  check (Alcotest.float 0.0) "simulated elapsed time identical to capture"
    golden_elapsed_us_e4 elapsed

let test_scenario_repeatable_e4 () =
  let c1, e1 = run_scenario_exec4 () in
  let c2, e2 = run_scenario_exec4 () in
  check Alcotest.(list (pair string int)) "counters repeatable" c1 c2;
  check (Alcotest.float 0.0) "clock repeatable" e1 e2

let () =
  if Sys.getenv_opt "MRDB_DETERMINISM_CAPTURE" <> None then
    capture
      (if Sys.getenv_opt "MRDB_EXECUTORS" = Some "4" then run_scenario_exec4
       else run_scenario)
  else
    Alcotest.run "determinism"
      [
        ( "debit_credit",
          [
            Alcotest.test_case "repeatable" `Quick test_scenario_repeatable;
            Alcotest.test_case "matches seed capture" `Quick
              test_counters_and_clock;
          ] );
        ( "debit_credit_4_executors",
          [
            Alcotest.test_case "repeatable" `Quick test_scenario_repeatable_e4;
            Alcotest.test_case "matches capture" `Quick
              test_counters_and_clock_e4;
          ] );
      ]
