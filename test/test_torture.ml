(* Randomized crash-anywhere torture campaign.

   Each seed drives one simulated machine through several rounds of random
   transactions with a seeded fault plan armed against its devices
   (transient read errors, latent sector corruption, mirror failure, torn
   writes, checkpoint-image rot) and a "crash bomb" scheduled at a random
   simulated time — so the power can fail inside any device operation, any
   commit, any checkpoint, even inside recovery reads.  After every crash
   the injector is re-armed and the database must recover exactly the
   committed state (a crash inside [commit] legitimately resolves either
   way — the transaction is durable iff its committed-list entry reached
   stable memory — so both outcomes are accepted, then pinned).

   Environment knobs:
     MRDB_TORTURE_SEEDS=<n>   campaign size (default 200 seeds)
     MRDB_TORTURE_SEED=<s>    replay one failing seed
     MRDB_EXECUTORS=<n>       logical executors per machine (default 1);
                              transactions are spread over them by a
                              deterministic round-robin schedule and the
                              fault plan may fail individual executors
                              (the group-commit campaign spreads its
                              transactions round-robin too)
     MRDB_REDO_CODEC=<c>      physical | logical (default physical):
                              the REDO record family the commit path
                              emits — logical runs recover across
                              mixed-codec chains,
                              since non-derivable operations fall back
                              to physical records in the same stream

   Every failure message embeds the exact replay command line (including
   the executor count and codec when not the defaults). *)

open Mrdb_storage
open Mrdb_core
open Mrdb_wal
module Sim = Mrdb_sim.Sim
module Rng = Mrdb_util.Rng
module Fault_plan = Mrdb_fault.Fault_plan
module Injector = Mrdb_fault.Injector
module Executor = Mrdb_exec.Executor
module Schedule = Mrdb_exec.Schedule

exception Crash_now

let executors =
  match Sys.getenv_opt "MRDB_EXECUTORS" with
  | Some s -> int_of_string s
  | None -> 1

let redo_codec, codec_name =
  match Sys.getenv_opt "MRDB_REDO_CODEC" with
  | Some "logical" -> (Config.Logical, "logical")
  | None | Some "physical" -> (Config.Physical, "physical")
  | Some other -> Alcotest.failf "MRDB_REDO_CODEC: unknown codec %S" other

(* The env prefix a failure's replay line must carry to reproduce this
   process's configuration. *)
let env_prefix =
  (if codec_name = "physical" then ""
   else Printf.sprintf "MRDB_REDO_CODEC=%s " codec_name)
  ^ if executors = 1 then "" else Printf.sprintf "MRDB_EXECUTORS=%d " executors

let replay_line seed =
  Printf.sprintf "%sMRDB_TORTURE_SEED=%d dune exec test/test_torture.exe"
    env_prefix seed

let schema = Schema.of_list [ ("k", Schema.Int); ("v", Schema.Int) ]

(* Campaign-wide statistics, asserted after the seeds. *)
let total_recoveries = ref 0
let total_injected = ref 0

let snapshot tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let observed db =
  Db.with_txn db (fun tx ->
      Db.scan db tx ~rel:"t"
      |> List.map (fun (_, tup) ->
             (Schema.to_int (Tuple.field tup 0), Schema.to_int (Tuple.field tup 1)))
      |> List.sort compare)

let apply_model tbl ops =
  List.iter
    (function
      | k, `Put v -> Hashtbl.replace tbl k v
      | k, `Del -> Hashtbl.remove tbl k)
    ops

let run_seed seed =
  (* The archive must be on: random plans corrupt checkpoint-disk pages,
     and a lost image is only recoverable from the archive (§2.6). *)
  let config =
    { Config.small with Config.archive = true; Config.executors; Config.redo_codec }
  in
  let db = Db.create ~config () in
  Db.create_relation db ~name:"t" ~schema;
  let sim = Db.sim db in
  let rng = Rng.of_int seed in
  (* Round-robin over the executor set: scheduling itself consumes no
     randomness, so the executors=1 campaign replays the pre-executor
     RNG stream exactly. *)
  let sched = Schedule.create ~seed (Executor.spawn ~seed ~n:executors) in
  let plan =
    Fault_plan.random ~executors ~seed ~horizon_us:400_000.0
      ~window_pages:config.Config.log_window_pages
      ~ckpt_pages:config.Config.ckpt_disk_pages ()
  in
  let inj =
    Injector.install ~plan ~sim ~trace:(Db.trace db)
      ~log:(Log_disk.duplex (Db.log_disk db))
      ~ckpt:(Db.ckpt_disk db) ~stable:(Db.stable_mem db)
      ~recorder:(Mrdb_obs.Obs.recorder (Db.obs db))
      ~on_executor_fail:(Schedule.mark_failed sched)
      ()
  in
  let model = Hashtbl.create 64 in
  let addr_of = Hashtbl.create 64 in
  let staged = ref [] in
  let committing = ref false in
  let next_val = ref 0 in
  let fail_with what =
    (* Leave an inspectable history next to the replay line: the plan and
       the last ~200 flight-recorder events (appends, drains, checkpoint
       triggers, faults, the crash).  CI uploads this file as an artifact
       when the campaign fails. *)
    let oc = open_out "torture-flight-dump.txt" in
    let fmt = Format.formatter_of_out_channel oc in
    Format.fprintf fmt "seed %d: %s@.plan: %a@.replay: %s@.@." seed what
      Fault_plan.pp plan (replay_line seed);
    Mrdb_obs.Flight_recorder.dump fmt (Mrdb_obs.Obs.recorder (Db.obs db));
    Format.pp_print_flush fmt ();
    close_out oc;
    Alcotest.failf
      "seed %d: %s@.plan: %a@.replay: %s@.flight recorder dumped to torture-flight-dump.txt"
      seed what Fault_plan.pp plan (replay_line seed)
  in
  let rebuild_addrs () =
    Hashtbl.reset addr_of;
    Db.with_txn db (fun tx ->
        List.iter
          (fun (a, tup) ->
            Hashtbl.replace addr_of (Schema.to_int (Tuple.field tup 0)) a)
          (Db.scan db tx ~rel:"t"))
  in
  let crash_recover_verify () =
    incr total_recoveries;
    Db.crash db;
    (* The crash discarded the plan's pending timed events with the rest of
       the simulated queue; re-arm so faults keep coming — including during
       the recovery reads that follow. *)
    Injector.arm inj;
    Db.recover db;
    Db.recover_everything db;
    (* Recovery restarts every logical executor along with the system;
       their striped SLB regions were drained by the merge above. *)
    Schedule.revive_all sched;
    let obs = observed db in
    if obs <> snapshot model then begin
      let committed = Hashtbl.copy model in
      apply_model committed !staged;
      if !committing && obs = snapshot committed then apply_model model !staged
      else
        fail_with
          (Printf.sprintf "state diverged after recovery #%d (%d keys observed)"
             !total_recoveries (List.length obs))
    end;
    staged := [];
    committing := false;
    rebuild_addrs ()
  in
  let rounds = 2 + Rng.int rng 2 in
  for _round = 1 to rounds do
    (* Log-uniform bomb delay, 1 ms .. 100 ms of simulated time: short
       enough to often land inside device operations, long enough to let
       some rounds finish their workload and crash at the quiet point. *)
    let bomb_delay = 10.0 ** (3.0 +. Rng.float rng 2.0) in
    Sim.schedule sim ~delay:bomb_delay (fun () -> raise Crash_now);
    (try
       let txns = 5 + Rng.int rng 16 in
       for _ = 1 to txns do
         let ops =
           List.init
             (1 + Rng.int rng 3)
             (fun _ ->
               let k = Rng.int rng 32 in
               if Rng.int rng 5 = 0 then (k, `Del)
               else begin
                 incr next_val;
                 (k, `Put !next_val)
               end)
         in
         staged := ops;
         committing := false;
         (match Schedule.next sched with
          | None ->
              (* Every executor is failed; nothing runs until the next
                 crash/recovery revives the set. *)
              staged := []
          | Some e -> (
              try
                let tx = Db.begin_txn ~executor:(Executor.id e) db in
                List.iter
                  (fun (k, op) ->
                    match (op, Hashtbl.find_opt addr_of k) with
                    | `Put v, Some a ->
                        Hashtbl.replace addr_of k
                          (Db.update_field db tx ~rel:"t" a ~column:"v" (Schema.int v))
                    | `Put v, None ->
                        Hashtbl.replace addr_of k
                          (Db.insert db tx ~rel:"t" [| Schema.int k; Schema.int v |])
                    | `Del, Some a ->
                        Db.delete db tx ~rel:"t" a;
                        Hashtbl.remove addr_of k
                    | `Del, None -> ())
                  ops;
                if Rng.int rng 8 = 0 then begin
                  Db.abort db tx;
                  staged := [];
                  rebuild_addrs ()
                end
                else begin
                  committing := true;
                  Db.commit db tx;
                  Executor.note_commit e;
                  apply_model model ops;
                  staged := [];
                  committing := false
                end
              with Db.Aborted _ ->
                Executor.note_abort e;
                staged := [];
                rebuild_addrs ()));
         if Rng.int rng 4 = 0 then ignore (Db.process_checkpoints db)
       done
     with Crash_now -> ());
    (* Crash wherever the bomb left us — or, if the round outran the bomb,
       right here with the un-fired bomb still queued (Db.crash clears it). *)
    crash_recover_verify ()
  done;
  total_injected := !total_injected + Injector.fired_count inj

(* -- Group-commit crash-anywhere campaign ------------------------------------

   Under [Config.Group] a committed-to-the-caller transaction is durable
   only once its group flushes, so crash-anywhere acceptance weakens from
   "exactly the committed state" to a prefix property: the recovered
   state must equal the committed state after dropping some SUFFIX of the
   commit-order transaction sequence (whole unflushed groups are lost
   wholesale, never an individual transaction out of order), optionally
   extended by the one transaction whose [Db.commit] call the crash
   interrupted.  After an explicit [flush_group], no slack: every
   committed transaction must be durable. *)

let group_replay_line seed =
  Printf.sprintf "%sMRDB_GROUP_SEED=%d dune exec test/test_torture.exe"
    env_prefix seed

let total_group_batches = ref 0
let total_group_timeout_flushes = ref 0
let total_group_waiters = ref 0
let total_group_suffix_losses = ref 0

let run_group_seed seed =
  let config =
    {
      Config.small with
      Config.commit_mode = Config.Group { Config.batch_size = 3; timeout_us = 5_000.0 };
      Config.executors;
      Config.redo_codec;
    }
  in
  let db = Db.create ~config () in
  Db.create_relation db ~name:"t" ~schema;
  let sim = Db.sim db in
  (* Offset the stream so the campaign is not a replay of the main one. *)
  let rng = Rng.of_int (0x9C0DE + seed) in
  (* Round-robin executors, drawing no randomness: a group then spans
     several SLB regions, and its flush commits chains across them. *)
  let txn_no = ref 0 in
  let base = Hashtbl.create 64 in
  let committed_log = ref [] (* newest first *) in
  let inflight = ref None in
  let addr_of = Hashtbl.create 64 in
  let next_val = ref 0 in
  let rebuild_addrs () =
    Hashtbl.reset addr_of;
    Db.with_txn db (fun tx ->
        List.iter
          (fun (a, tup) ->
            Hashtbl.replace addr_of (Schema.to_int (Tuple.field tup 0)) a)
          (Db.scan db tx ~rel:"t"))
  in
  (* The committed state replayed up to commit-order position [p],
     optionally with the interrupted commit's operations on top. *)
  let candidate p ~with_inflight =
    let t = Hashtbl.copy base in
    List.iteri (fun i ops -> if i < p then apply_model t ops) (List.rev !committed_log);
    (match (with_inflight, !inflight) with
    | true, Some ops -> apply_model t ops
    | _ -> ());
    t
  in
  let crash_recover_verify ~require_full =
    Db.crash db;
    Db.recover db;
    Db.recover_everything db;
    let obs = observed db in
    let n = List.length !committed_log in
    let matches t = obs = snapshot t in
    let rec longest_prefix p =
      if p < 0 then None
      else
        let t = candidate p ~with_inflight:false in
        if matches t then Some (p, t) else longest_prefix (p - 1)
    in
    let accepted =
      (* The interrupted transaction, if any, precommitted last; it can
         only be durable together with every earlier committed one. *)
      let with_tail = candidate n ~with_inflight:true in
      if !inflight <> None && matches with_tail then Some (n, with_tail)
      else longest_prefix n
    in
    (match accepted with
    | Some (p, t) ->
        if require_full && p < n then
          Alcotest.failf
            "group seed %d: explicit flush lost committed work (%d of %d durable)@.replay: %s"
            seed p n (group_replay_line seed);
        if p < n then incr total_group_suffix_losses;
        Hashtbl.reset base;
        Hashtbl.iter (fun k v -> Hashtbl.replace base k v) t
    | None ->
        Alcotest.failf
          "group seed %d: recovered state matches no committed prefix (%d committed since last crash)@.replay: %s"
          seed n (group_replay_line seed));
    committed_log := [];
    inflight := None;
    rebuild_addrs ()
  in
  let rounds = 2 + Rng.int rng 2 in
  for _round = 1 to rounds do
    let bomb_delay = 10.0 ** (3.0 +. Rng.float rng 2.0) in
    Sim.schedule sim ~delay:bomb_delay (fun () -> raise Crash_now);
    (try
       let txns = 6 + Rng.int rng 15 in
       for _ = 1 to txns do
         let ops =
           List.init
             (1 + Rng.int rng 3)
             (fun _ ->
               let k = Rng.int rng 32 in
               if Rng.int rng 5 = 0 then (k, `Del)
               else begin
                 incr next_val;
                 (k, `Put !next_val)
               end)
         in
         (try
            let tx = Db.begin_txn ~executor:(!txn_no mod executors) db in
            incr txn_no;
            List.iter
              (fun (k, op) ->
                match (op, Hashtbl.find_opt addr_of k) with
                | `Put v, Some a ->
                    Hashtbl.replace addr_of k
                      (Db.update_field db tx ~rel:"t" a ~column:"v" (Schema.int v))
                | `Put v, None ->
                    Hashtbl.replace addr_of k
                      (Db.insert db tx ~rel:"t" [| Schema.int k; Schema.int v |])
                | `Del, Some a ->
                    Db.delete db tx ~rel:"t" a;
                    Hashtbl.remove addr_of k
                | `Del, None -> ())
              ops;
            if Rng.int rng 8 = 0 then begin
              Db.abort db tx;
              rebuild_addrs ()
            end
            else begin
              inflight := Some ops;
              Db.commit db tx;
              committed_log := ops :: !committed_log;
              inflight := None
            end
          with Db.Aborted _ -> rebuild_addrs ());
         (* Let the simulated clock reach the group deadline sometimes, so
            the timeout path flushes partial batches under fire. *)
         if Rng.int rng 6 = 0 then Db.quiesce db;
         if Rng.int rng 5 = 0 then ignore (Db.process_checkpoints db)
       done
     with Crash_now -> ());
    crash_recover_verify ~require_full:false
  done;
  (* Planned shutdown: an explicit flush must make every commit durable. *)
  Db.flush_group db;
  crash_recover_verify ~require_full:true;
  let trace = Db.trace db in
  let obs = Db.obs db in
  (* One group_batch sample per batch that had waiters, one
     group_commit_wait sample per transaction that waited. *)
  total_group_batches :=
    !total_group_batches + Mrdb_obs.Metrics.h_count (Mrdb_obs.Obs.group_batch obs);
  total_group_timeout_flushes :=
    !total_group_timeout_flushes + Mrdb_sim.Trace.count trace "group_timeout_flushes";
  total_group_waiters :=
    !total_group_waiters
    + Mrdb_obs.Metrics.h_count (Mrdb_obs.Obs.group_commit_wait obs)

(* -- Replication crash-anywhere campaign --------------------------------------

   Two-node seeds: a primary under the usual device-fault plan EXTENDED
   with node events (whole-node crash/restart of one victim node, link
   partitions adding delay or dropping ship frames), a standby consuming
   ship cuts, crash bombs aimed at BOTH nodes, and a final promotion.
   Acceptance: the promoted standby's committed state is a commit-order
   PREFIX of the primary's history (and the full history when the last
   cut drained the backlog).

   On top of the random plan, each seed deterministically exercises one
   headline flow so the campaign always covers all three:
     seed % 3 = 0  scripted standby outage + catchup drain
     seed % 3 = 1  promotion under lag, serving mid-restore
     seed % 3 = 2  scripted standby checkpoint rot -> divergence re-seed

   Environment knobs:
     MRDB_REPLICA_SEEDS=<n>   campaign size (default 24 seeds)
     MRDB_REPLICA_SEED=<s>    replay one failing seed *)

module Replica = Mrdb_replica.Replica
module Ship_channel = Mrdb_hw.Ship_channel

let replica_replay_line seed =
  Printf.sprintf "%sMRDB_REPLICA_SEED=%d dune exec test/test_torture.exe"
    env_prefix seed

let total_promotions = ref 0
let total_catchups = ref 0
let total_midrestore_promotions = ref 0
let total_divergence_reseeds = ref 0
let total_node_faults = ref 0

let run_replica_seed seed =
  let config = { Config.small with Config.archive = true; Config.redo_codec } in
  let cl = Replica.create ~config ~lag_bound:(8 + (seed mod 17)) () in
  let db = Replica.primary cl in
  Db.create_relation db ~name:"t" ~schema;
  ignore (Replica.ship_cut cl);
  let sim = Db.sim db in
  let rng = Rng.of_int (0x5EED0 + seed) in
  let plan =
    Fault_plan.random ~nodes:true ~seed ~horizon_us:400_000.0
      ~window_pages:config.Config.log_window_pages
      ~ckpt_pages:config.Config.ckpt_disk_pages ()
  in
  let fwd = Replica.fwd_channel cl and rev = Replica.rev_channel cl in
  let standby_went_down = ref false in
  let inj =
    Injector.install ~plan ~sim ~trace:(Db.trace db)
      ~log:(Log_disk.duplex (Db.log_disk db))
      ~ckpt:(Db.ckpt_disk db) ~stable:(Db.stable_mem db)
      ~recorder:(Mrdb_obs.Obs.recorder (Db.obs db))
      ~on_node_fail:(fun node ->
        incr total_node_faults;
        match node with
        | Fault_plan.Primary_node ->
            (* Like the crash bomb: unwind out of whatever device op or
               commit is in flight, then crash + recover at the catch. *)
            raise Crash_now
        | Fault_plan.Standby_node ->
            standby_went_down := true;
            Replica.crash_standby cl)
      ~on_node_resume:(fun node ->
        match node with
        | Fault_plan.Primary_node -> () (* the catch recovers immediately *)
        | Fault_plan.Standby_node -> Replica.resume_standby cl)
      ~on_link_change:(fun ~delay_us ~drop ->
        Ship_channel.set_extra_delay fwd delay_us;
        Ship_channel.set_drop fwd drop;
        Ship_channel.set_extra_delay rev delay_us;
        Ship_channel.set_drop rev drop)
      ()
  in
  let model = Hashtbl.create 64 in
  let history = ref [] (* newest first *) in
  let addr_of = Hashtbl.create 64 in
  let staged = ref [] in
  let committing = ref false in
  let next_val = ref 0 in
  let fail_with what =
    let oc = open_out "torture-flight-dump.txt" in
    let fmt = Format.formatter_of_out_channel oc in
    Format.fprintf fmt "replica seed %d: %s@.plan: %a@.replay: %s@.@.== primary ==@."
      seed what Fault_plan.pp plan (replica_replay_line seed);
    Mrdb_obs.Flight_recorder.dump fmt (Mrdb_obs.Obs.recorder (Db.obs db));
    Format.fprintf fmt "@.== standby ==@.";
    Mrdb_obs.Flight_recorder.dump fmt
      (Mrdb_obs.Obs.recorder (Db.obs (Replica.standby cl)));
    Format.pp_print_flush fmt ();
    close_out oc;
    Alcotest.failf
      "replica seed %d: %s@.plan: %a@.replay: %s@.flight recorder dumped to torture-flight-dump.txt"
      seed what Fault_plan.pp plan (replica_replay_line seed)
  in
  let rebuild_addrs () =
    Hashtbl.reset addr_of;
    Db.with_txn db (fun tx ->
        List.iter
          (fun (a, tup) ->
            Hashtbl.replace addr_of (Schema.to_int (Tuple.field tup 0)) a)
          (Db.scan db tx ~rel:"t"))
  in
  let rec crash_recover_primary () =
    Replica.crash_primary cl;
    Injector.arm inj;
    (* A re-armed Fail_node can land inside the recovery reads themselves:
       crash again and restart recovery (fired events never refire, so
       this terminates). *)
    (match
       Replica.recover_primary cl;
       Db.recover_everything db
     with
    | () -> ()
    | exception Crash_now -> crash_recover_primary ());
    let obs = observed db in
    if obs <> snapshot model then begin
      let committed = Hashtbl.copy model in
      apply_model committed !staged;
      if !committing && obs = snapshot committed then begin
        apply_model model !staged;
        history := !staged :: !history
      end
      else fail_with "primary state diverged after recovery"
    end;
    staged := [];
    committing := false;
    rebuild_addrs ()
  in
  (* A cut pumps the primary's clock, so a bomb or Fail_node can fire
     inside it; crash-recover and retry until the cut goes through. *)
  let rec cut_retry () =
    match Replica.ship_cut cl with
    | _ -> ()
    | exception Crash_now ->
        crash_recover_primary ();
        cut_retry ()
  in
  let run_txns n =
    try
      for _ = 1 to n do
        let ops =
          List.init
            (1 + Rng.int rng 3)
            (fun _ ->
              let k = Rng.int rng 32 in
              if Rng.int rng 6 = 0 then (k, `Del)
              else begin
                incr next_val;
                (k, `Put !next_val)
              end)
        in
        staged := ops;
        committing := false;
        let tx = Db.begin_txn db in
        List.iter
          (fun (k, op) ->
            match (op, Hashtbl.find_opt addr_of k) with
            | `Put v, Some a ->
                Hashtbl.replace addr_of k
                  (Db.update_field db tx ~rel:"t" a ~column:"v" (Schema.int v))
            | `Put v, None ->
                Hashtbl.replace addr_of k
                  (Db.insert db tx ~rel:"t" [| Schema.int k; Schema.int v |])
            | `Del, Some a ->
                Db.delete db tx ~rel:"t" a;
                Hashtbl.remove addr_of k
            | `Del, None -> ())
          ops;
        committing := true;
        Db.commit db tx;
        apply_model model ops;
        history := ops :: !history;
        staged := [];
        committing := false;
        ignore (Replica.maybe_ship cl);
        if Rng.int rng 4 = 0 then ignore (Db.process_checkpoints db)
      done
    with Crash_now -> crash_recover_primary ()
  in
  let rounds = 2 + Rng.int rng 2 in
  for round = 1 to rounds do
    let bomb_delay = 10.0 ** (3.0 +. Rng.float rng 2.0) in
    Sim.schedule sim ~delay:bomb_delay (fun () -> raise Crash_now);
    (* Sometimes aim a bomb at the standby too: it drops off mid-stream
       and the cursor freezes until it comes back. *)
    if Rng.int rng 3 = 0 then
      Sim.schedule sim ~delay:(Rng.float rng 50_000.0) (fun () ->
          standby_went_down := true;
          Replica.crash_standby cl);
    run_txns (5 + Rng.int rng 12);
    (* The round outran the bombs or already crashed; crash once more at
       the quiet point so every round ends with a recovery. *)
    crash_recover_primary ();
    if round = 1 && seed mod 3 = 0 then begin
      (* Headline flow (a): scripted standby outage, then catchup. *)
      standby_went_down := true;
      Replica.crash_standby cl;
      run_txns (4 + Rng.int rng 4);
      Replica.resume_standby cl;
      Replica.warm_standby cl;
      cut_retry ()
    end;
    if round = 1 && seed mod 3 = 2 then begin
      (* Headline flow (c): rot the standby's durable copy so the next
         cut's audit forces a re-seed. *)
      (try Db.checkpoint_all db with Crash_now -> crash_recover_primary ());
      cut_retry ();
      let s = Replica.standby cl in
      let page =
        match
          List.filter_map
            (fun part -> Db.checkpoint_location db part)
            (Db.all_partitions db)
        with
        | (first, _) :: _ -> first
        | [] -> 0
      in
      let rot =
        Fault_plan.scripted
          [ Fault_plan.Corrupt_page { target = Fault_plan.Ckpt; page; at_us = 1.0 } ]
      in
      let rot_inj =
        Injector.install ~plan:rot ~sim:(Db.sim s) ~trace:(Db.trace s)
          ~log:(Log_disk.duplex (Db.log_disk s))
          ~ckpt:(Db.ckpt_disk s) ()
      in
      ignore rot_inj;
      Sim.run (Db.sim s);
      run_txns 2;
      cut_retry ();
      cut_retry ()
    end
  done;
  (* Endgame: heal the link, bring the standby back, and promote.  Late
     plan events (a leftover node fail, a crash inside a cut) can undo
     a drain attempt, so keep healing and cutting until the backlog is
     gone — every retry consumes one-shot events, so this settles. *)
  let heal () =
    Replica.resume_standby cl;
    Ship_channel.set_extra_delay fwd 0.0;
    Ship_channel.set_drop fwd false;
    Ship_channel.set_extra_delay rev 0.0;
    Ship_channel.set_drop rev false
  in
  heal ();
  let drain = seed mod 3 <> 1 in
  if drain then begin
    let tries = ref 5 in
    cut_retry ();
    while Replica.lag_records cl <> 0 && !tries > 0 do
      decr tries;
      heal ();
      cut_retry ()
    done;
    if Replica.lag_records cl <> 0 then
      fail_with
        (Printf.sprintf "backlog not drained: lag %d records after final cut"
           (Replica.lag_records cl))
  end;
  let lag = Replica.lag_records cl in
  let np = Replica.promote cl in
  incr total_promotions;
  if !standby_went_down && drain then incr total_catchups;
  (* Headline flow (b): serve transactions on the new primary while its
     restore is still in flight (residency below 1 forces on-demand
     restores under live traffic). *)
  let resident_before = Db.resident_fraction np in
  (* The key is outside the workload range, so it is fresh by construction. *)
  Db.with_txn np (fun tx ->
      ignore (Db.insert np tx ~rel:"t" [| Schema.int (1000 + seed); Schema.int (- seed - 1) |]));
  let post = [ [ (1000 + seed, `Put (- seed - 1)) ] ] in
  if (not drain) && (lag > 0 || resident_before < 1.0) then
    incr total_midrestore_promotions;
  Db.recover_everything np;
  let obs =
    Db.with_txn np (fun tx ->
        Db.scan np tx ~rel:"t"
        |> List.map (fun (_, tup) ->
               (Schema.to_int (Tuple.field tup 0), Schema.to_int (Tuple.field tup 1)))
        |> List.sort compare)
  in
  let hist = List.rev !history in
  let n = List.length hist in
  let candidate p =
    let t = Hashtbl.create 64 in
    List.iteri (fun i ops -> if i < p then apply_model t ops) hist;
    List.iter (apply_model t) post;
    snapshot t
  in
  let rec longest_prefix p = if p < 0 then None else if obs = candidate p then Some p else longest_prefix (p - 1) in
  (match longest_prefix n with
  | None -> fail_with "promoted standby state matches no commit-order prefix"
  | Some p ->
      if drain && p <> n then
        fail_with
          (Printf.sprintf "drained promotion lost committed work (%d of %d durable)" p n));
  total_divergence_reseeds :=
    !total_divergence_reseeds + Mrdb_sim.Trace.count (Db.trace db) "ship_reseeds";
  total_injected := !total_injected + Injector.fired_count inj

let () =
  let group_replay = Sys.getenv_opt "MRDB_GROUP_SEED" in
  let replica_replay = Sys.getenv_opt "MRDB_REPLICA_SEED" in
  (* Replaying any one suite zeroes the other suites' seed counts. *)
  let other_replaying = group_replay <> None || replica_replay <> None in
  let seeds, replay =
    match Sys.getenv_opt "MRDB_TORTURE_SEED" with
    | Some s -> ([ int_of_string s ], true)
    | None ->
        let n =
          match Sys.getenv_opt "MRDB_TORTURE_SEEDS" with
          | Some s -> int_of_string s
          | None -> if other_replaying then 0 else 200
        in
        (List.init n (fun i -> i), false)
  in
  let group_seeds, group_replaying =
    match group_replay with
    | Some s -> ([ int_of_string s ], true)
    | None ->
        let n =
          match Sys.getenv_opt "MRDB_GROUP_SEEDS" with
          | Some s -> int_of_string s
          | None -> if replay || replica_replay <> None then 0 else 24
        in
        (List.init n (fun i -> i), false)
  in
  let replica_seeds, replica_replaying =
    match replica_replay with
    | Some s -> ([ int_of_string s ], true)
    | None ->
        let n =
          match Sys.getenv_opt "MRDB_REPLICA_SEEDS" with
          | Some s -> int_of_string s
          | None -> if replay || group_replay <> None then 0 else 24
        in
        (List.init n (fun i -> i), false)
  in
  let cases =
    List.map
      (fun seed ->
        Alcotest.test_case (Printf.sprintf "seed %d" seed) `Quick (fun () ->
            run_seed seed))
      seeds
  in
  let stats =
    if replay || seeds = [] then []
    else
      [
        Alcotest.test_case "campaign statistics" `Quick (fun () ->
            Alcotest.(check bool) "at least two recoveries per seed" true
              (!total_recoveries >= 2 * List.length seeds);
            (* Deterministic: with a campaign-sized seed range some plans
               always carry events that fire. *)
            if List.length seeds >= 24 then
              Alcotest.(check bool) "campaign injected real faults" true
                (!total_injected > 0));
      ]
  in
  let group_cases =
    List.map
      (fun seed ->
        Alcotest.test_case (Printf.sprintf "group seed %d" seed) `Quick (fun () ->
            run_group_seed seed))
      group_seeds
  in
  let group_stats =
    if group_replaying || group_seeds = [] then []
    else
      [
        Alcotest.test_case "group campaign statistics" `Quick (fun () ->
            (* Deterministic per seed set: batching must actually happen,
               both trigger paths must fire, and at least one crash must
               land on an unflushed group (otherwise the prefix acceptance
               never exercised its weaker clause). *)
            Alcotest.(check bool) "groups flushed" true (!total_group_batches > 0);
            Alcotest.(check bool) "transactions group-committed" true
              (!total_group_waiters > 0);
            if List.length group_seeds >= 24 then begin
              Alcotest.(check bool) "timeout deadline flushed partial groups" true
                (!total_group_timeout_flushes > 0);
              Alcotest.(check bool) "some crash caught an unflushed group" true
                (!total_group_suffix_losses > 0)
            end);
      ]
  in
  let replica_cases =
    List.map
      (fun seed ->
        Alcotest.test_case (Printf.sprintf "replica seed %d" seed) `Quick (fun () ->
            run_replica_seed seed))
      replica_seeds
  in
  let replica_stats =
    if replica_replaying || replica_seeds = [] then []
    else
      [
        Alcotest.test_case "replication campaign statistics" `Quick (fun () ->
            Alcotest.(check int) "every seed ends in a promotion"
              (List.length replica_seeds) !total_promotions;
            if List.length replica_seeds >= 24 then begin
              (* Deterministic per seed set: all three headline flows and
                 the node-level fault machinery must actually fire. *)
              Alcotest.(check bool) "standby catchup exercised" true (!total_catchups > 0);
              Alcotest.(check bool) "mid-restore promotion exercised" true
                (!total_midrestore_promotions > 0);
              Alcotest.(check bool) "divergence-forced re-seed exercised" true
                (!total_divergence_reseeds > 0);
              Alcotest.(check bool) "node-level faults injected" true
                (!total_node_faults > 0)
            end);
      ]
  in
  Alcotest.run "mrdb_torture"
    [
      ("torture", cases @ stats);
      ("group_commit", group_cases @ group_stats);
      ("replication", replica_cases @ replica_stats);
    ]
