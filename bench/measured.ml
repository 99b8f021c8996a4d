(* Measured (simulated-clock) experiments on the real database: the R1
   recovery comparison, the A3 commit-mode comparison, and the Graph 3
   trigger-mix measurement.  All timings are simulated microseconds from
   the DES (disk model per §3.1); host CPU time is irrelevant here. *)

open Mrdb_core
module Sim = Mrdb_sim.Sim
module Trace = Mrdb_sim.Trace

let heap_schema =
  Mrdb_storage.Schema.of_list
    [ ("k", Mrdb_storage.Schema.Int); ("v", Mrdb_storage.Schema.Str) ]

(* A database of [relations] × [rows] string rows, partially checkpointed,
   with a tail of post-checkpoint commits — a representative crash state. *)
let build ~relations ~rows () =
  let db = Db.create ~config:Config.small () in
  for r = 0 to relations - 1 do
    let name = Printf.sprintf "rel%02d" r in
    Db.create_relation db ~name ~schema:heap_schema;
    let i = ref 0 in
    while !i < rows do
      let stop = Stdlib.min rows (!i + 50) in
      Db.with_txn db (fun tx ->
          while !i < stop do
            ignore
              (Db.insert db tx ~rel:name
                 [| Mrdb_storage.Schema.int !i;
                    Mrdb_storage.Schema.S (String.make 32 (Char.chr (97 + (r mod 26))));
                 |]);
            incr i
          done)
    done
  done;
  ignore (Db.process_checkpoints db);
  (* Post-checkpoint work so recovery must replay log on top of images. *)
  Db.with_txn db (fun tx ->
      for i = rows to rows + 40 do
        ignore
          (Db.insert db tx ~rel:"rel00"
             [| Mrdb_storage.Schema.int i; Mrdb_storage.Schema.S "tail" |])
      done);
  Db.quiesce db;
  db

type recovery_row = {
  relations : int;
  partitions : int;
  first_txn_on_demand_ms : float;
  first_txn_full_reload_ms : float;
  full_restore_on_demand_ms : float;
  catalog_only_ms : float;
  speedup : float;
}

let recovery_comparison ~relations ~rows =
  let timed db f =
    let t0 = Sim.now (Db.sim db) in
    f ();
    (Sim.now (Db.sim db) -. t0) /. 1000.0
  in
  (* On-demand: catalogs, then one relation, then background completion. *)
  let db = build ~relations ~rows () in
  let partitions =
    List.length
      (List.concat_map
         (fun r -> Db.relation_partitions db ~rel:r)
         (Db.relations db))
  in
  Db.crash db;
  let catalog_only_ms = timed db (fun () -> Db.recover db) in
  let first_txn_on_demand_ms =
    timed db (fun () ->
        Db.with_txn db (fun tx -> ignore (Db.scan db tx ~rel:"rel00")))
  in
  let full_restore_on_demand_ms = timed db (fun () -> Db.recover_everything db) in
  (* Full reload baseline: the same restart, then every partition before
     the first transaction. *)
  let db2 = build ~relations ~rows () in
  Db.crash db2;
  let first_txn_full_reload_ms =
    timed db2 (fun () ->
        Db.recover db2;
        Db.recover_everything db2;
        Db.with_txn db2 (fun tx -> ignore (Db.scan db2 tx ~rel:"rel00")))
  in
  {
    relations;
    partitions;
    first_txn_on_demand_ms = catalog_only_ms +. first_txn_on_demand_ms;
    first_txn_full_reload_ms;
    full_restore_on_demand_ms =
      catalog_only_ms +. first_txn_on_demand_ms +. full_restore_on_demand_ms;
    catalog_only_ms;
    speedup = first_txn_full_reload_ms /. (catalog_only_ms +. first_txn_on_demand_ms);
  }

(* Commit any set-up transactions still waiting in the group, then run
   the clock dry, so a measured window starts with nothing of the set-up
   pending: [Db.quiesce] alone does not flush a waiting group. *)
let settle db =
  Db.flush_group db;
  Db.quiesce db

type commit_row = {
  mode : string;
  txns : int;
  simulated_ms : float;
  log_pages : int;
}

let commit_mode_comparison ~txns =
  let run mode name =
    let config = { Config.small with Config.commit_mode = mode } in
    let db = Db.create ~config () in
    let w = Workload.Update_heavy.setup db ~rows:200 () in
    let rng = Mrdb_util.Rng.of_int 11 in
    settle db;
    let t0 = Sim.now (Db.sim db) in
    let pages0 = Mrdb_wal.Log_disk.pages_written (Db.log_disk db) in
    for _ = 1 to txns do
      Workload.Update_heavy.run_one w db ~rng
    done;
    settle db;
    {
      mode = name;
      txns;
      simulated_ms = (Sim.now (Db.sim db) -. t0) /. 1000.0;
      log_pages = Mrdb_wal.Log_disk.pages_written (Db.log_disk db) - pages0;
    }
  in
  [
    run (Config.group 1) "group 1 (stable SLB, the paper's commit)";
    run (Config.group 8) "group commit (n=8)";
    run Config.Disk_force "disk-force WAL";
  ]

type group_row = {
  batch_size : int;
  g_simulated_ms : float;
  txns_per_s : float;
  wait_p50_us : float;
  wait_p99_us : float;
  flushes : int;
  g_log_pages : int;
  stable_bytes_per_txn : float;
}

(* Group-commit batch-size sweep: same update-heavy workload at every
   batch size, measuring end-to-end simulated time (throughput) against
   the commit-wait distribution (latency cost of batching), the log pages
   written and the stable-memory bytes written per transaction.  The SLB
   receives the same REDO at every batch size; only the timing of the
   commit records, and hence of the drains, moves. *)
let group_batch_sweep ~txns =
  List.map
    (fun batch_size ->
      let config =
        {
          Config.small with
          Config.commit_mode =
            Config.Group { Config.batch_size; timeout_us = 0.0 };
        }
      in
      let db = Db.create ~config () in
      let w = Workload.Update_heavy.setup db ~rows:200 () in
      let rng = Mrdb_util.Rng.of_int 11 in
      settle db;
      let t0 = Sim.now (Db.sim db) in
      let stable_bytes () = Mrdb_hw.Stable_mem.bytes_written (Db.stable_mem db) in
      let b0 = stable_bytes () in
      let pages0 = Mrdb_wal.Log_disk.pages_written (Db.log_disk db) in
      let commits () = Mrdb_sim.Trace.count (Db.trace db) "commits" in
      let commits0 = commits () in
      (* The histograms restart at [t0], so they hold the window alone. *)
      let batches = Mrdb_obs.Obs.group_batch (Db.obs db) in
      let wait = Mrdb_obs.Obs.group_commit_wait (Db.obs db) in
      Mrdb_obs.Metrics.h_clear batches;
      Mrdb_obs.Metrics.h_clear wait;
      for _ = 1 to txns do
        Workload.Update_heavy.run_one w db ~rng
      done;
      settle db;
      let elapsed_us = Sim.now (Db.sim db) -. t0 in
      (* One flush per commit, less [n - 1] for every batch of [n] that
         had waiters (the only batches group_batch_txns samples). *)
      let n = Mrdb_obs.Metrics.h_count batches in
      let batched =
        Float.to_int (Float.round (Mrdb_obs.Metrics.h_mean batches *. float_of_int n))
      in
      let flushes = commits () - commits0 - (batched - n) in
      {
        batch_size;
        g_simulated_ms = elapsed_us /. 1000.0;
        txns_per_s = float_of_int txns /. (elapsed_us /. 1.0e6);
        wait_p50_us = float_of_int (Mrdb_obs.Metrics.quantile wait 0.5) /. 1000.0;
        wait_p99_us = float_of_int (Mrdb_obs.Metrics.quantile wait 0.99) /. 1000.0;
        flushes;
        g_log_pages = Mrdb_wal.Log_disk.pages_written (Db.log_disk db) - pages0;
        stable_bytes_per_txn =
          float_of_int (stable_bytes () - b0) /. float_of_int txns;
      })
    [ 1; 2; 4; 8; 16 ]

type strategy_row = {
  strategy : string;
  total_ms : float;
  mean_txn_us : float;
  p99_txn_us : float;
  max_txn_us : float;
  ckpts : int;
}

(* §1.2: previous proposals "treat the database as a single object instead
   of a collection of smaller objects".  Compare the paper's amortized
   per-partition checkpoints against a periodic full-database dump (the
   Hagmann / Eich shape): same workload, measure the per-transaction
   latency distribution on the simulated clock — the dump shows up as
   latency spikes on the transactions that wait for it. *)
let ckpt_strategy_comparison ~txns =
  let run ~strategy ~config ~after_txn =
    let db = Db.create ~config () in
    let w = Workload.Update_heavy.setup db ~rows:400 () in
    let rng = Mrdb_util.Rng.of_int 21 in
    Db.quiesce db;
    let stats = Mrdb_util.Stats.create () in
    let t0 = Sim.now (Db.sim db) in
    (* Count the window only: set-up's own checkpoints happen before [t0]. *)
    let ckpts0 = Trace.count (Db.trace db) "checkpoints" in
    for i = 1 to txns do
      let s = Sim.now (Db.sim db) in
      Workload.Update_heavy.run_one w db ~rng;
      after_txn db i;
      Mrdb_util.Stats.add stats (Sim.now (Db.sim db) -. s)
    done;
    Db.quiesce db;
    {
      strategy;
      total_ms = (Sim.now (Db.sim db) -. t0) /. 1000.0;
      mean_txn_us = Mrdb_util.Stats.mean stats;
      p99_txn_us = Mrdb_util.Stats.percentile stats 99.0;
      max_txn_us = Mrdb_util.Stats.max stats;
      ckpts = Trace.count (Db.trace db) "checkpoints" - ckpts0;
    }
  in
  let amortized =
    run ~strategy:"per-partition (paper)" ~config:Config.small
      ~after_txn:(fun _ _ -> ())
  in
  let full_dump =
    (* Triggers effectively disabled; every 100 txns the whole database is
       dumped, as single-object designs do. *)
    let config = { Config.small with Config.n_update = 1_000_000 } in
    run ~strategy:"periodic full dump" ~config ~after_txn:(fun db i ->
        if i mod 100 = 0 then begin
          Db.checkpoint_all db;
          Db.quiesce db
        end)
  in
  [ amortized; full_dump ]

type mpl_row = {
  clients : int;
  committed : int;
  aborted : int;
  txn_per_s : float;
  abort_pct : float;
  p99_latency_us : float;
}

(* Multiprogramming: concurrent no-wait clients over the same database,
   one single-row update per transaction, keys drawn Zipf-skewed.  The
   recovery component (logging, checkpoints) runs underneath. *)
let multiprogramming ~theta ~clients_list =
  List.map
    (fun clients ->
      let db = Db.create ~config:Config.small () in
      let w = Workload.Skewed.setup db ~rows:800 ~theta () in
      Db.quiesce db;
      let rows = 800 in
      let duration_us = 300_000.0 in
      let addr_cache = Hashtbl.create 1024 in
      Db.with_txn db (fun tx ->
          List.iter
            (fun (a, tup) ->
              Hashtbl.replace addr_cache
                (Mrdb_storage.Schema.to_int (Mrdb_storage.Tuple.field tup 0))
                a)
            (Db.scan db tx ~rel:"skewed"));
      ignore w;
      let bump key db tx =
        let addr = Hashtbl.find addr_cache key in
        match Db.read db tx ~rel:"skewed" addr with
        | Some tup ->
            let v = Mrdb_storage.Schema.to_int (Mrdb_storage.Tuple.field tup 1) in
            ignore
              (Db.update_field db tx ~rel:"skewed" addr ~column:"v"
                 (Mrdb_storage.Schema.int (v + 1)))
        | None -> failwith "row missing"
      in
      let stats =
        (* Three-step transactions so locks span several scheduling events
           — that is where no-wait conflicts live. *)
        Sim_exec.run ~db ~clients ~duration_us ~think_us:800.0 ~seed:31
          ~make_txn:(fun rng ->
            List.init 3 (fun _ -> bump (Mrdb_util.Rng.zipf rng ~n:rows ~theta)))
          ()
      in
      {
        clients;
        committed = stats.Sim_exec.committed;
        aborted = stats.Sim_exec.aborted;
        txn_per_s = Sim_exec.throughput_per_s stats ~duration_us;
        abort_pct = Sim_exec.abort_fraction stats *. 100.0;
        p99_latency_us = Mrdb_util.Stats.percentile stats.Sim_exec.latencies_us 99.0;
      })
    clients_list

type mix_row = {
  theta : float;
  update_triggers : int;
  age_triggers : int;
  measured_f_update : float;
  checkpoints : int;
}

let trigger_mix ~theta ~updates =
  (* A tight log window and a high update-count threshold so that cold
     partitions age out while hot ones reach N_update — the regime Graph 3
     mixes describe. *)
  let config =
    {
      Config.small with
      Config.n_update = 64;
      log_window_pages = 128;
      age_grace_pages = Some 8;
      stable =
        {
          Config.small.Config.stable with
          Mrdb_wal.Stable_layout.bin_count = 128;
          page_pool_count = 192;
        };
    }
  in
  let db = Db.create ~config () in
  let w = Workload.Skewed.setup db ~rows:2400 ~theta () in
  let rng = Mrdb_util.Rng.of_int 5 in
  for _ = 1 to updates do
    Workload.Skewed.run_one w db ~rng
  done;
  Db.quiesce db;
  let tr = Db.trace db in
  let u = Trace.count tr "ckpt_req_update_count" in
  let a = Trace.count tr "ckpt_req_age" in
  {
    theta;
    update_triggers = u;
    age_triggers = a;
    measured_f_update =
      (if u + a = 0 then 1.0 else float_of_int u /. float_of_int (u + a));
    checkpoints = Trace.count tr "checkpoints";
  }
