(* mrdb — command-line driver for the MM-DBMS recovery reproduction.

   Subcommands:
     run       drive a workload, report logging/checkpoint statistics
     crashtest run a workload, crash, recover, verify integrity
     obs       drive a workload through a crash/recovery cycle and dump the
               observability snapshot (metrics, histograms, recovery
               timeline, flight recorder) as JSON or aligned tables
     model     print the Section-3 analytic model at chosen parameters
     replicate run one of the three headline warm-standby flows
               (catchup | failover | divergence) and report the promoted
               standby's commit-order prefix check

   Examples:
     dune exec bin/mrdb_cli.exe -- run --workload bank --txns 1000
     dune exec bin/mrdb_cli.exe -- crashtest --txns 500 --mode full-reload
     dune exec bin/mrdb_cli.exe -- obs --txns 500 --format json
     dune exec bin/mrdb_cli.exe -- model --record-bytes 24 --page-kb 8
     dune exec bin/mrdb_cli.exe -- replicate --scenario failover --seed 7 *)

open Cmdliner
module Trace = Mrdb_sim.Trace

let report_stats db =
  let tr = Mrdb_core.Db.trace db in
  Printf.printf "commits:                 %d\n" (Trace.count tr "commits");
  Printf.printf "aborts:                  %d\n" (Trace.count tr "aborts");
  Printf.printf "log records:             %d\n" (Trace.count tr "log_records");
  Printf.printf "checkpoints:             %d\n" (Trace.count tr "checkpoints");
  Printf.printf "  by update count:       %d\n" (Trace.count tr "ckpt_req_update_count");
  Printf.printf "  by age:                %d\n" (Trace.count tr "ckpt_req_age");
  Printf.printf "log pages written:       %d\n"
    (Mrdb_wal.Log_disk.pages_written (Mrdb_core.Db.log_disk db));
  Printf.printf "simulated time:          %.1f ms\n"
    (Mrdb_sim.Sim.now (Mrdb_core.Db.sim db) /. 1000.0)

type workload_kind = Bank | Update_heavy | Skewed

let workload_conv =
  let parse = function
    | "bank" -> Ok Bank
    | "update" -> Ok Update_heavy
    | "skewed" -> Ok Skewed
    | s -> Error (`Msg ("unknown workload: " ^ s))
  in
  let print ppf = function
    | Bank -> Format.pp_print_string ppf "bank"
    | Update_heavy -> Format.pp_print_string ppf "update"
    | Skewed -> Format.pp_print_string ppf "skewed"
  in
  Arg.conv (parse, print)

let run_workload_quiet db kind txns seed =
  let rng = Mrdb_util.Rng.of_int seed in
  match kind with
  | Bank ->
      let w = Mrdb_core.Workload.Bank.setup db ~accounts:500 () in
      for _ = 1 to txns do
        Mrdb_core.Workload.Bank.run_debit_credit w db ~rng
      done
  | Update_heavy ->
      let w = Mrdb_core.Workload.Update_heavy.setup db ~rows:500 () in
      for _ = 1 to txns do
        Mrdb_core.Workload.Update_heavy.run_one w db ~rng
      done
  | Skewed ->
      let w = Mrdb_core.Workload.Skewed.setup db ~rows:2000 ~theta:1.0 () in
      for _ = 1 to txns do
        Mrdb_core.Workload.Skewed.run_one w db ~rng
      done

let run_workload db kind txns seed =
  let rng = Mrdb_util.Rng.of_int seed in
  match kind with
  | Bank ->
      let w = Mrdb_core.Workload.Bank.setup db ~accounts:500 () in
      for _ = 1 to txns do
        Mrdb_core.Workload.Bank.run_debit_credit w db ~rng
      done;
      Printf.printf "bank account total:      %Ld (initial %Ld)\n"
        (Mrdb_core.Workload.Bank.audit w db)
        (Mrdb_core.Workload.Bank.expected_total w);
      Printf.printf "debit/credit invariant:  %s\n"
        (if Mrdb_core.Workload.Bank.consistent w db then "holds" else "VIOLATED")
  | Update_heavy ->
      let w = Mrdb_core.Workload.Update_heavy.setup db ~rows:500 () in
      for _ = 1 to txns do
        Mrdb_core.Workload.Update_heavy.run_one w db ~rng
      done
  | Skewed ->
      let w = Mrdb_core.Workload.Skewed.setup db ~rows:2000 ~theta:1.0 () in
      for _ = 1 to txns do
        Mrdb_core.Workload.Skewed.run_one w db ~rng
      done

let cmd_run workload txns seed =
  let db = Mrdb_core.Db.create ~config:Mrdb_core.Config.small () in
  run_workload db workload txns seed;
  Mrdb_core.Db.quiesce db;
  report_stats db

(* The one restart path, optionally followed by the full-reload baseline
   (§3.4): every partition restored before the first transaction. *)
let restart db ~full_reload =
  Mrdb_core.Db.recover db;
  if full_reload then Mrdb_core.Db.recover_everything db

let cmd_crashtest workload txns seed full_reload =
  let db = Mrdb_core.Db.create ~config:Mrdb_core.Config.small () in
  (match workload with
  | Bank ->
      let w = Mrdb_core.Workload.Bank.setup db ~accounts:500 () in
      let rng = Mrdb_util.Rng.of_int seed in
      for _ = 1 to txns do
        Mrdb_core.Workload.Bank.run_debit_credit w db ~rng
      done;
      let before = Mrdb_core.Workload.Bank.audit w db in
      Mrdb_core.Db.crash db;
      let t0 = Mrdb_sim.Sim.now (Mrdb_core.Db.sim db) in
      restart db ~full_reload;
      let after_catalogs = Mrdb_sim.Sim.now (Mrdb_core.Db.sim db) in
      let after = Mrdb_core.Workload.Bank.audit w db in
      let after_first = Mrdb_sim.Sim.now (Mrdb_core.Db.sim db) in
      Mrdb_core.Db.recover_everything db;
      Printf.printf "crash+recovery (%s):\n"
        (if full_reload then "full-reload" else "on-demand");
      Printf.printf "  catalogs restored in:      %8.2f ms\n"
        ((after_catalogs -. t0) /. 1000.0);
      Printf.printf "  first audit txn done in:   %8.2f ms\n"
        ((after_first -. t0) /. 1000.0);
      Printf.printf "  account total %Ld -> %Ld: %s\n" before after
        (if Int64.equal before after then "preserved" else "VIOLATED");
      Printf.printf "  debit/credit invariant:    %s\n"
        (if Mrdb_core.Workload.Bank.consistent w db then "holds" else "VIOLATED");
      if not (Int64.equal before after && Mrdb_core.Workload.Bank.consistent w db)
      then exit 1
  | Update_heavy | Skewed ->
      run_workload db workload txns seed;
      let count_before =
        Mrdb_core.Db.cardinality db
          ~rel:(match workload with Update_heavy -> "cells" | _ -> "skewed")
      in
      Mrdb_core.Db.crash db;
      restart db ~full_reload;
      let rel = match workload with Update_heavy -> "cells" | _ -> "skewed" in
      let count_after = Mrdb_core.Db.cardinality db ~rel in
      Printf.printf "rows before/after crash: %d / %d (%s)\n" count_before count_after
        (if count_before = count_after then "OK" else "MISMATCH");
      if count_before <> count_after then exit 1);
  report_stats db

(* The obs subcommand's scenario exercises every instrumented path: a
   workload (txn latency, SLB appends, sorter drains, checkpoint triggers),
   a crash, a recovery (timeline phases, partition restores) and a full
   background sweep, then snapshots the observability surface. *)
let cmd_obs workload txns seed format =
  let db = Mrdb_core.Db.create ~config:Mrdb_core.Config.small () in
  run_workload_quiet db workload txns seed;
  Mrdb_core.Db.quiesce db;
  Mrdb_core.Db.crash db;
  Mrdb_core.Db.recover db;
  (match workload with
  | Bank ->
      (* One post-crash on-demand restore burst before the sweep. *)
      ignore (Mrdb_core.Db.cardinality db ~rel:"account")
  | Update_heavy -> ignore (Mrdb_core.Db.cardinality db ~rel:"cells")
  | Skewed -> ignore (Mrdb_core.Db.cardinality db ~rel:"skewed"));
  Mrdb_core.Db.recover_everything db;
  Mrdb_core.Db.quiesce db;
  let t = Mrdb_core.Db.obs db in
  match format with
  | `Json -> print_string (Mrdb_obs.Export.json ~t ());
      print_newline ()
  | `Text -> print_string (Mrdb_obs.Export.texttab ~t ())

let cmd_model record_bytes page_kb n_update =
  let module P = Mrdb_analysis.Params in
  let module LM = Mrdb_analysis.Log_model in
  let module CM = Mrdb_analysis.Ckpt_model in
  let p =
    P.with_sizes ~s_log_record:record_bytes ~s_log_page:(page_kb * 1024) ~n_update
      P.default
  in
  Printf.printf "analytic model at record=%dB page=%dKB N_update=%d:\n" record_bytes
    page_kb n_update;
  Printf.printf "  I_record_sort:      %8.1f instructions/record\n" (LM.i_record_sort p);
  Printf.printf "  I_page_write:       %8.1f instructions/page\n" (LM.i_page_write p);
  Printf.printf "  logging capacity:   %8.0f records/s (%.0f bytes/s)\n"
    (LM.records_logged_per_s p) (LM.bytes_logged_per_s p);
  Printf.printf "  debit/credit rate:  %8.0f txn/s (4 records each)\n"
    (LM.txn_rate p ~records_per_txn:4);
  Printf.printf "  checkpoint rate:    %8.2f /s best, %.2f /s worst\n"
    (CM.best_case p ~records_per_s:(LM.records_logged_per_s p))
    (CM.worst_case p ~records_per_s:(LM.records_logged_per_s p))

(* The replicate subcommand runs one headline warm-standby flow end to end
   and renders its Scenario.report; exit 1 if the scenario's folded-in
   acceptance criteria (commit-order prefix et al.) do not hold. *)
let scenario_conv =
  let parse = function
    | "catchup" -> Ok `Catchup
    | "failover" -> Ok `Failover
    | "divergence" -> Ok `Divergence
    | s -> Error (`Msg ("unknown scenario: " ^ s))
  in
  let print ppf = function
    | `Catchup -> Format.pp_print_string ppf "catchup"
    | `Failover -> Format.pp_print_string ppf "failover"
    | `Divergence -> Format.pp_print_string ppf "divergence"
  in
  Arg.conv (parse, print)

let cmd_replicate scenario seed =
  let module S = Mrdb_replica.Scenario in
  let name, r =
    match scenario with
    | `Catchup -> ("standby-down-then-catchup", S.catchup ~seed ())
    | `Failover -> ("primary-crash-then-failover", S.failover ~seed ())
    | `Divergence -> ("divergence-forced-re-seed", S.divergence ~seed ())
  in
  Printf.printf "%s (seed %d):\n" name r.S.seed;
  Printf.printf "  committed on old primary:  %d txns\n" r.S.committed;
  Printf.printf "  ship cuts:                 %d\n" r.S.cuts;
  Printf.printf "  durable floor at failover: %d txns (last acked cut)\n"
    r.S.durable_len;
  Printf.printf "  lag at failover:           %d records\n" r.S.lag_at_failover;
  Printf.printf "  divergences detected:      %d\n" r.S.divergences;
  Printf.printf "  full re-seeds forced:      %d\n" r.S.reseeds;
  Printf.printf "  failover phase:            %8.2f ms simulated\n"
    (r.S.promote_us /. 1000.0);
  Printf.printf "  commit-order prefix:       %d/%d %s\n" r.S.prefix_len
    r.S.committed
    (if r.S.prefix_ok then "(acceptance holds)" else "(VIOLATED)");
  if not r.S.prefix_ok then exit 1

let workload_arg =
  Arg.(value & opt workload_conv Bank & info [ "workload"; "w" ] ~doc:"bank | update | skewed")

let txns_arg = Arg.(value & opt int 500 & info [ "txns"; "n" ] ~doc:"transactions to run")
let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"RNG seed")

let full_reload_arg =
  Arg.(
    value & flag
    & info [ "full-reload" ]
        ~doc:"restore every partition before the first transaction (the \
              database-level baseline); default: on demand")

let run_cmd =
  Cmd.v (Cmd.info "run" ~doc:"drive a workload and report recovery-component statistics")
    Term.(const cmd_run $ workload_arg $ txns_arg $ seed_arg)

let crashtest_cmd =
  Cmd.v (Cmd.info "crashtest" ~doc:"run a workload, crash, recover, verify integrity")
    Term.(const cmd_crashtest $ workload_arg $ txns_arg $ seed_arg $ full_reload_arg)

let format_conv =
  let parse = function
    | "json" -> Ok `Json
    | "text" -> Ok `Text
    | s -> Error (`Msg ("unknown format: " ^ s))
  in
  let print ppf = function
    | `Json -> Format.pp_print_string ppf "json"
    | `Text -> Format.pp_print_string ppf "text"
  in
  Arg.conv (parse, print)

let obs_cmd =
  Cmd.v
    (Cmd.info "obs"
       ~doc:
         "drive a workload through a crash/recovery cycle and dump the \
          observability snapshot (mrdb-obs/3 JSON or aligned tables)")
    Term.(
      const cmd_obs $ workload_arg $ txns_arg $ seed_arg
      $ Arg.(
          value
          & opt format_conv `Text
          & info [ "format"; "f" ] ~doc:"json | text"))

let model_cmd =
  Cmd.v (Cmd.info "model" ~doc:"print the Section-3 analytic model")
    Term.(
      const cmd_model
      $ Arg.(value & opt int 24 & info [ "record-bytes" ] ~doc:"log record size")
      $ Arg.(value & opt int 8 & info [ "page-kb" ] ~doc:"log page size in KB")
      $ Arg.(value & opt int 1000 & info [ "n-update" ] ~doc:"checkpoint threshold"))

let replicate_cmd =
  Cmd.v
    (Cmd.info "replicate"
       ~doc:
         "run a headline warm-standby flow (catchup | failover | divergence) \
          and verify the promoted standby against the commit-order history")
    Term.(
      const cmd_replicate
      $ Arg.(
          value
          & opt scenario_conv `Failover
          & info [ "scenario"; "s" ] ~doc:"catchup | failover | divergence")
      $ seed_arg)

let () =
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "mrdb" ~version:"1.0.0"
             ~doc:"memory-resident DBMS with the Lehman–Carey recovery architecture")
          [ run_cmd; crashtest_cmd; obs_cmd; model_cmd; replicate_cmd ]))
