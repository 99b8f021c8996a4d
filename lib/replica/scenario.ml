module Db = Mrdb_core.Db
module Sim = Mrdb_sim.Sim
module Trace = Mrdb_sim.Trace
module Rng = Mrdb_util.Rng
module Schema = Mrdb_storage.Schema
module Tuple = Mrdb_storage.Tuple
module Fault_plan = Mrdb_fault.Fault_plan
module Injector = Mrdb_fault.Injector

type report = {
  seed : int;
  committed : int; (* transactions committed on the old primary *)
  cuts : int; (* batches shipped *)
  prefix_len : int; (* commit-order prefix found on the promoted standby *)
  prefix_ok : bool; (* promoted state IS such a prefix (+ post-failover work) *)
  durable_len : int; (* history length at the last acked cut: the floor for prefix_len *)
  divergences : int; (* standby audits that failed *)
  reseeds : int; (* full re-seeds forced *)
  promote_us : float; (* simulated time charged to the failover phase *)
  lag_at_failover : int;
}

let schema = Schema.of_list [ ("k", Schema.Int); ("v", Schema.Int) ]

(* The same tiny key-value workload and model the torture campaigns use:
   every committed transaction's ops are appended to an oldest-first
   history, so "commit-order prefix" is literally a list prefix. *)
type w = {
  rng : Rng.t;
  mutable history : (int * [ `Put of int | `Del ]) list list;
  addr_of : (int, Mrdb_storage.Addr.t) Hashtbl.t;
  mutable next_val : int;
}

let mk_workload seed =
  {
    rng = Rng.of_int (0x5EED + seed);
    history = [];
    addr_of = Hashtbl.create 64;
    next_val = 0;
  }

let apply_model tbl ops =
  List.iter
    (function
      | k, `Put v -> Hashtbl.replace tbl k v
      | k, `Del -> Hashtbl.remove tbl k)
    ops

let snapshot tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let observed db =
  Db.with_txn db (fun tx ->
      Db.scan db tx ~rel:"t"
      |> List.map (fun (_, tup) ->
             (Schema.to_int (Tuple.field tup 0), Schema.to_int (Tuple.field tup 1)))
      |> List.sort compare)

let rebuild_addrs w db =
  Hashtbl.reset w.addr_of;
  Db.with_txn db (fun tx ->
      List.iter
        (fun (a, tup) -> Hashtbl.replace w.addr_of (Schema.to_int (Tuple.field tup 0)) a)
        (Db.scan db tx ~rel:"t"))

let run_txn w db =
  let ops =
    List.init
      (1 + Rng.int w.rng 3)
      (fun _ ->
        let k = Rng.int w.rng 24 in
        if Rng.int w.rng 6 = 0 then (k, `Del)
        else begin
          w.next_val <- w.next_val + 1;
          (k, `Put w.next_val)
        end)
  in
  Db.with_txn db (fun tx ->
      List.iter
        (fun (k, op) ->
          match (op, Hashtbl.find_opt w.addr_of k) with
          | `Put v, Some a ->
              Hashtbl.replace w.addr_of k
                (Db.update_field db tx ~rel:"t" a ~column:"v" (Schema.int v))
          | `Put v, None ->
              Hashtbl.replace w.addr_of k
                (Db.insert db tx ~rel:"t" [| Schema.int k; Schema.int v |])
          | `Del, Some a ->
              Db.delete db tx ~rel:"t" a;
              Hashtbl.remove w.addr_of k
          | `Del, None -> ())
        ops);
  w.history <- w.history @ [ ops ]

(* The longest commit-order prefix of [history] that, with [post] (work
   committed on the new primary after failover) applied on top,
   reproduces [obs]. *)
let find_prefix ~obs ~history ~post =
  let n = List.length history in
  let rec try_p p =
    if p < 0 then None
    else begin
      let tbl = Hashtbl.create 64 in
      List.iteri (fun i ops -> if i < p then apply_model tbl ops) history;
      List.iter (apply_model tbl) post;
      if obs = snapshot tbl then Some p else try_p (p - 1)
    end
  in
  try_p n

let failover_us db =
  let _, _, us =
    List.find
      (fun (p, _, _) -> p = Mrdb_obs.Timeline.Failover)
      (Mrdb_obs.Timeline.phases (Mrdb_obs.Obs.timeline (Db.obs db)))
  in
  us

let mk_report cl ~seed ~w ~durable_len ~lag_at_failover ~prefix ~promoted =
  let p_trace = Db.trace (Replica.primary cl) in
  let s_trace = Db.trace (Replica.standby cl) in
  {
    seed;
    committed = List.length w.history;
    cuts = Replica.cuts_shipped cl;
    prefix_len = (match prefix with Some p -> p | None -> -1);
    prefix_ok = prefix <> None;
    durable_len;
    divergences = Trace.count s_trace "replica_divergences";
    reseeds = Trace.count p_trace "ship_reseeds";
    promote_us = failover_us promoted;
    lag_at_failover;
  }

(* (a) Standby-down-then-catchup: the standby drops off, the primary keeps
   committing (its cuts fall on a dead wire), the standby comes back,
   recovers locally from what it already had, then one cut drains the
   whole backlog through the frozen cursor. *)
let catchup ~seed () =
  let cl = Replica.create ~lag_bound:24 () in
  let p = Replica.primary cl in
  Db.create_relation p ~name:"t" ~schema;
  ignore (Replica.ship_cut cl);
  let w = mk_workload seed in
  rebuild_addrs w p;
  for _ = 1 to 6 + Rng.int w.rng 4 do
    run_txn w p;
    ignore (Replica.maybe_ship cl)
  done;
  ignore (Replica.ship_cut cl);
  Replica.crash_standby cl;
  for _ = 1 to 8 + Rng.int w.rng 6 do
    run_txn w p
  done;
  ignore (Replica.ship_cut cl) (* falls on the dead wire *);
  Replica.resume_standby cl;
  Replica.warm_standby cl (* "recovers locally" from pre-outage artifacts *);
  for _ = 1 to 2 + Rng.int w.rng 3 do
    run_txn w p
  done;
  ignore (Replica.ship_cut cl) (* drains the backlog *);
  let lag = Replica.lag_records cl in
  let durable_len = List.length w.history in
  let promoted = Replica.promote cl in
  Db.recover_everything promoted;
  let prefix = find_prefix ~obs:(observed promoted) ~history:w.history ~post:[] in
  let r = mk_report cl ~seed ~w ~durable_len ~lag_at_failover:lag ~prefix ~promoted in
  (* Catchup must be total: the last cut drained everything. *)
  { r with prefix_ok = r.prefix_ok && r.prefix_len = r.committed && lag = 0 }

(* (b) Primary-crash-then-failover: the primary dies with committed work
   past the last cut; the standby is promoted and serves new
   transactions while its restore is still in flight.  The
   promoted state must be a commit-order prefix of the old primary's
   history, extended by the post-failover work. *)
let failover ~seed () =
  let cl = Replica.create ~lag_bound:16 () in
  let p = Replica.primary cl in
  Db.create_relation p ~name:"t" ~schema;
  ignore (Replica.ship_cut cl);
  let w = mk_workload seed in
  rebuild_addrs w p;
  for _ = 1 to 8 + Rng.int w.rng 6 do
    run_txn w p;
    ignore (Replica.maybe_ship cl)
  done;
  ignore (Replica.ship_cut cl);
  let durable_len = List.length w.history in
  (* The tail: committed on the primary, never shipped — lost with it. *)
  for _ = 1 to 2 + Rng.int w.rng 4 do
    run_txn w p
  done;
  let lag = Replica.lag_records cl in
  Replica.crash_primary cl;
  let np = Replica.promote cl in
  (* Mid-restore service: transactions run before the sweep finishes;
     on-demand restores pull partitions in as they are touched. *)
  let wp = { w with history = [] } in
  rebuild_addrs wp np;
  let post = ref [] in
  for _ = 1 to 3 do
    run_txn wp np
  done;
  post := wp.history;
  Db.recover_everything np;
  let prefix = find_prefix ~obs:(observed np) ~history:w.history ~post:!post in
  let r = mk_report cl ~seed ~w ~durable_len ~lag_at_failover:lag ~prefix ~promoted:np in
  (* Nothing acked can be lost: the prefix is at least the acked cuts. *)
  { r with prefix_ok = r.prefix_ok && r.prefix_len >= durable_len }

(* (c) Divergence detection: the standby's copy of a checkpoint image
   rots (scripted latent corruption, armed through the regular fault
   injector on the standby's devices).  The next cut's audit fails to
   reproduce that partition, the ack comes back Diverged, and the
   following cut re-seeds the standby wholesale under a bumped epoch. *)
let divergence ~seed () =
  let cl = Replica.create ~lag_bound:1000 () in
  let p = Replica.primary cl in
  let s = Replica.standby cl in
  Db.create_relation p ~name:"t" ~schema;
  let w = mk_workload seed in
  rebuild_addrs w p;
  for _ = 1 to 8 + Rng.int w.rng 4 do
    run_txn w p
  done;
  Db.checkpoint_all p;
  ignore (Replica.ship_cut cl);
  (* Rot one checkpoint-image page on the standby. *)
  let page =
    let parts =
      List.filter_map (fun part -> Db.checkpoint_location p part) (Db.all_partitions p)
    in
    match parts with
    | (first, _) :: _ -> first
    | [] -> 0
  in
  let plan =
    Fault_plan.scripted
      [ Fault_plan.Corrupt_page { target = Fault_plan.Ckpt; page; at_us = 1.0 } ]
  in
  let inj =
    Injector.install ~plan ~sim:(Db.sim s) ~trace:(Db.trace s)
      ~log:(Mrdb_wal.Log_disk.duplex (Db.log_disk s))
      ~ckpt:(Db.ckpt_disk s) ()
  in
  ignore inj;
  Sim.run (Db.sim s);
  for _ = 1 to 2 + Rng.int w.rng 3 do
    run_txn w p
  done;
  ignore (Replica.ship_cut cl) (* audit detects the rot; ack Diverged *);
  ignore (Replica.ship_cut cl) (* full re-seed under the bumped epoch *);
  let lag = Replica.lag_records cl in
  let durable_len = List.length w.history in
  let promoted = Replica.promote cl in
  Db.recover_everything promoted;
  let prefix = find_prefix ~obs:(observed promoted) ~history:w.history ~post:[] in
  let r = mk_report cl ~seed ~w ~durable_len ~lag_at_failover:lag ~prefix ~promoted in
  {
    r with
    prefix_ok =
      r.prefix_ok && r.prefix_len = r.committed && r.divergences > 0 && r.reseeds > 0
      && Replica.epoch cl > 1 && lag = 0;
  }
