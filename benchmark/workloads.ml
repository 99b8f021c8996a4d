(* The benchmark's workloads, driven through the public Db facade only.

   Every workload runs the same round, one or more times per run:

     set-up    create a database on Config.default (auto_checkpoint off),
               load it, and run any warm-up transactions;
     forward   a closed loop of [txns] transactions from one synchronous
               caller with no think time;
     restart   [cycles] crash -> restart cycles: leave one uncommitted
               write in flight, Db.crash, Db.recover, one update
               transaction, Db.background_recovery_step until the database
               is fully resident, then check the state.

   Checkpoint requests are polled by the benchmark after every commit
   ([poll]), exactly what auto mode does inside Db.commit, so checkpoint
   time is timed as its own call.  The workloads differ in data and mix
   (see [spec]); README.md says why each was chosen. *)

open Mrdb_storage
open Mrdb_core
module Rng = Mrdb_util.Rng
module Executor = Mrdb_exec.Executor
module Schedule = Mrdb_exec.Schedule

(* -- traced entry points ------------------------------------------------------ *)

(* Each public Db entry point the workloads call, wrapped in a span that
   records only while [Meter.tracing] is set.  The wrappers are written
   out rather than built from a closure-taking helper so the untraced path
   allocates nothing extra. *)
module Call = struct
  (* Calls made inside forward transactions take turns being timed. *)
  let begin_sp = Meter.span ~slot:0 "db.begin_txn"
  let read_sp = Meter.span ~slot:1 "db.read"
  let update_field_sp = Meter.span ~slot:2 "db.update_field"
  let insert_sp = Meter.span ~slot:3 "db.insert"
  let lookup_sp = Meter.span ~slot:4 "db.lookup"
  let commit_sp = Meter.span ~slot:5 ~tail:true "db.commit"
  let checkpoints_sp = Meter.span ~slot:6 ~tail:true "db.process_checkpoints"
  let in_txn =
    [ begin_sp; read_sp; update_field_sp; insert_sp; lookup_sp; commit_sp; checkpoints_sp ]
  let rotating = List.length in_txn

  (* Begin to commit return, checkpoint poll included. *)
  let txn_sp = Meter.span ~tail:true "txn"
  let quiesce_sp = Meter.span "db.quiesce"

  (* The restart phase: crash -> fully restored is tiled by these three. *)
  let recover_sp = Meter.span "db.recover"
  let first_txn_sp = Meter.span "restart.first_txn"
  let background_sp = Meter.span ~tail:true "db.background_recovery_step"
  let restart = [ recover_sp; first_txn_sp; background_sp ]
  let all = in_txn @ [ txn_sp; quiesce_sp ] @ restart

  let begin_txn db ~executor =
    if Meter.enter begin_sp then begin
      let t0 = Meter.now_ns () in
      let tx = Db.begin_txn ~executor db in
      Meter.stop begin_sp t0;
      tx
    end
    else Db.begin_txn ~executor db

  let read db tx ~rel addr =
    if Meter.enter read_sp then begin
      let t0 = Meter.now_ns () in
      let r = Db.read db tx ~rel addr in
      Meter.stop read_sp t0;
      r
    end
    else Db.read db tx ~rel addr

  let update_field db tx ~rel addr ~column v =
    if Meter.enter update_field_sp then begin
      let t0 = Meter.now_ns () in
      let r = Db.update_field db tx ~rel addr ~column v in
      Meter.stop update_field_sp t0;
      r
    end
    else Db.update_field db tx ~rel addr ~column v

  let insert db tx ~rel tuple =
    if Meter.enter insert_sp then begin
      let t0 = Meter.now_ns () in
      let r = Db.insert db tx ~rel tuple in
      Meter.stop insert_sp t0;
      r
    end
    else Db.insert db tx ~rel tuple

  let lookup db tx ~rel ~index key =
    if Meter.enter lookup_sp then begin
      let t0 = Meter.now_ns () in
      let r = Db.lookup db tx ~rel ~index key in
      Meter.stop lookup_sp t0;
      r
    end
    else Db.lookup db tx ~rel ~index key

  let commit db tx =
    if Meter.enter commit_sp then begin
      let t0 = Meter.now_ns () in
      Db.commit db tx;
      Meter.stop commit_sp t0
    end
    else Db.commit db tx

  let process_checkpoints db =
    if Meter.enter checkpoints_sp then begin
      let t0 = Meter.now_ns () in
      let r = Db.process_checkpoints db in
      Meter.stop checkpoints_sp t0;
      r
    end
    else Db.process_checkpoints db

  let quiesce db =
    if Meter.enter quiesce_sp then begin
      let t0 = Meter.now_ns () in
      Db.quiesce db;
      Meter.stop quiesce_sp t0
    end
    else Db.quiesce db

  let recover db =
    if Meter.enter recover_sp then begin
      let t0 = Meter.now_ns () in
      Db.recover db;
      Meter.stop recover_sp t0
    end
    else Db.recover db

  let background_recovery_step db =
    if Meter.enter background_sp then begin
      let t0 = Meter.now_ns () in
      let r = Db.background_recovery_step db in
      Meter.stop background_sp t0;
      r
    end
    else Db.background_recovery_step db
end

(* The main CPU's between-transaction polling, done here instead of inside
   Db.commit when the configuration leaves it to the caller. *)
let poll db =
  if not (Db.config db).Config.auto_checkpoint then
    ignore (Call.process_checkpoints db)

(* -- failures ------------------------------------------------------------------- *)

(* Every exception a Db call raises is counted and named; the workload then
   stops cleanly (see [Stop]) and its metrics are still reported. *)
type outcome = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** failed correctness checks *)
}

let outcome = { attempted = 0; failed = 0; problems = [] }

exception Stop

let note_failure e =
  outcome.failed <- outcome.failed + 1;
  prerr_endline ("benchmark: operation failed: " ^ Printexc.to_string e)

(* Count the failure, roll back the transaction it interrupted, stop. *)
let failure db tx e =
  note_failure e;
  (match tx with
  | Some tx when not (Db.is_crashed db) -> ( try Db.abort db tx with _ -> ())
  | _ -> ());
  raise Stop

let problem msg =
  if List.length outcome.problems < 20 then outcome.problems <- msg :: outcome.problems

(* -- workload mixes ------------------------------------------------------------------ *)

(* What the round driver needs from a loaded workload.  The mix keeps its
   own model of the committed state and checks the database against it. *)
type mix = {
  body : Db.t -> Db.txn -> Rng.t -> write:bool -> unit;
      (** one transaction's work between begin and commit *)
  committed : unit -> unit;  (** fold the last transaction into the model *)
  update_every : int;  (** transaction [i] writes iff [i mod update_every = update_every - 1] *)
  hang : Db.t -> unit;  (** begin a write that is never committed *)
  check : Db.t -> unit;  (** report every mismatch with the model via [problem] *)
}

(* Load [n] rows in transactions of 50, polling checkpoints after each. *)
let populate db ~rel n row =
  let addrs = Array.make n Addr.null in
  let i = ref 0 in
  while !i < n do
    let stop = min n (!i + 50) in
    let tx = Db.begin_txn db in
    while !i < stop do
      addrs.(!i) <- Db.insert db tx ~rel (row !i);
      incr i
    done;
    Db.commit db tx;
    poll db
  done;
  addrs

let sum_column db ~rel ~col =
  let tx = Db.begin_txn db in
  let total =
    List.fold_left
      (fun acc (_, tup) -> acc + Schema.to_int (Tuple.field tup col))
      0 (Db.scan db tx ~rel)
  in
  Db.commit db tx;
  total

(* Paper §3.2: read and update an account, its teller and branch, then
   append a history row. *)
module Bank = struct
  let initial_balance = 1000

  let load ~accounts ~tellers ~branches db =
    let schema cols = Schema.of_list (List.map (fun c -> (c, Schema.Int)) cols) in
    Db.create_relation db ~name:"account" ~schema:(schema [ "aid"; "branch"; "balance" ]);
    Db.create_relation db ~name:"teller" ~schema:(schema [ "tid"; "branch"; "balance" ]);
    Db.create_relation db ~name:"branch" ~schema:(schema [ "bid"; "balance" ]);
    Db.create_relation db ~name:"history" ~schema:(schema [ "aid"; "tid"; "delta" ]);
    Db.create_index db ~rel:"account" ~name:"account_aid" ~kind:Catalog.Ttree
      ~key_column:"aid";
    let b = Schema.int initial_balance in
    let account_addrs =
      populate db ~rel:"account" accounts (fun i ->
          [| Schema.int i; Schema.int (i mod branches); b |])
    in
    let teller_addrs =
      populate db ~rel:"teller" tellers (fun i ->
          [| Schema.int i; Schema.int (i mod branches); b |])
    in
    let branch_addrs =
      populate db ~rel:"branch" branches (fun i -> [| Schema.int i; b |])
    in
    (* Model: the sum of committed deltas and the number of commits. *)
    let drift = ref 0 and commits = ref 0 and pending = ref 0 in
    let bump db tx ~rel addr ~col delta =
      match Call.read db tx ~rel addr with
      | Some tup ->
          let v = Schema.to_int (Tuple.field tup col) + delta in
          ignore (Call.update_field db tx ~rel addr ~column:"balance" (Schema.int v))
      | None -> failwith ("missing " ^ rel ^ " row")
    in
    let body db tx rng ~write:_ =
      let aid = Rng.int rng accounts in
      let tid = Rng.int rng tellers in
      let delta = Rng.int_in rng (-100) 100 in
      bump db tx ~rel:"account" account_addrs.(aid) ~col:2 delta;
      bump db tx ~rel:"teller" teller_addrs.(tid) ~col:2 delta;
      bump db tx ~rel:"branch" branch_addrs.(tid mod branches) ~col:1 delta;
      ignore
        (Call.insert db tx ~rel:"history"
           [| Schema.int aid; Schema.int tid; Schema.int delta |]);
      pending := delta
    in
    let committed () =
      drift := !drift + !pending;
      incr commits
    in
    let hang db =
      let tx = Db.begin_txn db in
      bump db tx ~rel:"branch" branch_addrs.(0) ~col:1 1_000_000
    in
    let check db =
      let drift_of rel ~col n = sum_column db ~rel ~col - (n * initial_balance) in
      List.iter
        (fun (rel, col, n) ->
          let d = drift_of rel ~col n in
          if d <> !drift then
            problem
              (Printf.sprintf "%s balances drifted by %d, committed deltas sum to %d" rel d
                 !drift))
        [ ("account", 2, accounts); ("teller", 2, tellers); ("branch", 1, branches) ];
      let h = Db.cardinality db ~rel:"history" in
      if h <> !commits then
        problem (Printf.sprintf "history holds %d rows after %d commits" h !commits)
    in
    { body; committed; update_every = 1; hang; check }
end

(* Telecom home-location register: subscriber lookups through a
   linear-hash index under Zipf skew; every fifth transaction also moves
   the subscriber to a new cell. *)
module Hlr = struct
  let theta = 0.99
  let msisdn i = 15_550_000_000 + i
  let cell_col = 2

  let load ~subscribers db =
    let schema =
      Schema.of_list
        [ ("msisdn", Schema.Int); ("imsi", Schema.Int); ("cell", Schema.Int); ("vlr", Schema.Int) ]
    in
    Db.create_relation db ~name:"hlr" ~schema;
    Db.create_index db ~rel:"hlr" ~name:"hlr_msisdn" ~kind:Catalog.Lhash
      ~key_column:"msisdn";
    let cells = Array.init subscribers (fun i -> i mod 4096) in
    ignore
      (populate db ~rel:"hlr" subscribers (fun i ->
           [| Schema.int (msisdn i); Schema.int (310_150_000_000 + i);
              Schema.int cells.(i); Schema.int (i mod 64) |]));
    let pending_sub = ref (-1) and pending_cell = ref 0 in
    let lookup db tx sub =
      match Call.lookup db tx ~rel:"hlr" ~index:"hlr_msisdn" (Schema.int (msisdn sub)) with
      | [ (addr, tup) ] ->
          if Schema.to_int (Tuple.field tup cell_col) <> cells.(sub) then
            problem (Printf.sprintf "subscriber %d read a stale cell" sub);
          addr
      | rows ->
          failwith
            (Printf.sprintf "lookup of subscriber %d returned %d rows" sub (List.length rows))
    in
    let body db tx rng ~write =
      let sub = Rng.zipf rng ~n:subscribers ~theta in
      let addr = lookup db tx sub in
      if write then begin
        let cell = Rng.int rng 4096 in
        ignore (Call.update_field db tx ~rel:"hlr" addr ~column:"cell" (Schema.int cell));
        pending_sub := sub;
        pending_cell := cell
      end
      else pending_sub := -1
    in
    let committed () = if !pending_sub >= 0 then cells.(!pending_sub) <- !pending_cell in
    let hang db =
      let tx = Db.begin_txn db in
      let addr = lookup db tx 0 in
      ignore (Db.update_field db tx ~rel:"hlr" addr ~column:"cell" (Schema.int (-1)))
    in
    let check db =
      let tx = Db.begin_txn db in
      let rows = Db.scan db tx ~rel:"hlr" in
      Db.commit db tx;
      if List.length rows <> subscribers then
        problem (Printf.sprintf "hlr holds %d rows, loaded %d" (List.length rows) subscribers);
      List.iter
        (fun (_, tup) ->
          let sub = Schema.to_int (Tuple.field tup 0) - msisdn 0 in
          let cell = Schema.to_int (Tuple.field tup cell_col) in
          if sub < 0 || sub >= subscribers || cell <> cells.(sub) then
            problem (Printf.sprintf "subscriber %d has cell %d" sub cell))
        rows
    in
    { body; committed; update_every = 5; hang; check }
end

(* -- one transaction ------------------------------------------------------------------ *)

(* Run one transaction begin -> commit -> checkpoint poll and return its
   wall-clock duration in ns. *)
let run_txn db mix exec ~write =
  outcome.attempted <- outcome.attempted + 1;
  let traced = Meter.enter Call.txn_sp in
  if traced then Meter.turn := Call.txn_sp.Meter.calls mod Call.rotating;
  let t0 = Meter.now_ns () in
  (match Call.begin_txn db ~executor:(Executor.id exec) with
  | exception e -> failure db None e
  | tx -> (
      match
        mix.body db tx (Executor.rng exec) ~write;
        Call.commit db tx;
        poll db
      with
      | () -> mix.committed ()
      | exception e -> failure db (Some tx) e));
  let dt = Meter.now_ns () - t0 in
  if traced then Meter.record Call.txn_sp dt;
  dt

(* -- counters ---------------------------------------------------------------------------- *)

(* Public counters read around each measured phase.  Every reader works on
   a crashed node too (the restart phase snapshots right after Db.crash). *)
let probes : (string * (Db.t -> float)) array =
  let int = float_of_int in
  let trace name db = int (Mrdb_sim.Trace.count (Db.trace db) name) in
  let log_reads db =
    let d = Mrdb_wal.Log_disk.duplex (Db.log_disk db) in
    Mrdb_hw.Disk.stats_pages_read (Mrdb_hw.Duplex.primary d)
    + Mrdb_hw.Disk.stats_pages_read (Mrdb_hw.Duplex.mirror d)
  in
  [|
    ("sim_us", fun db -> Mrdb_sim.Sim.now (Db.sim db));
    ("log_bytes", trace "codec_log_bytes");
    ("log_records", trace "log_records");
    ("log_pages", fun db -> int (Mrdb_wal.Log_disk.pages_written (Db.log_disk db)));
    ("stable_bytes", fun db -> int (Mrdb_hw.Stable_mem.bytes_written (Db.stable_mem db)));
    ("sorter_records", trace "sorter_records_streamed");
    ("sorter_drains", trace "sorter_drain_calls");
    ("checkpoints", trace "checkpoints");
    ("ckpt_req_age", trace "ckpt_req_age");
    ("ckpt_req_update_count", trace "ckpt_req_update_count");
    ("ckpt_pages_written", fun db -> int (Mrdb_hw.Disk.stats_pages_written (Db.ckpt_disk db)));
    ("ckpt_pages_read", fun db -> int (Mrdb_hw.Disk.stats_pages_read (Db.ckpt_disk db)));
    ("log_pages_read", fun db -> int (log_reads db));
    ("recovery_instr", fun db -> int (Mrdb_sim.Cpu.total_instructions (Db.recovery_cpu db)));
    ( "recovery_busy_us",
      fun db -> Mrdb_sim.Cpu.utilization (Db.recovery_cpu db) *. Mrdb_sim.Sim.now (Db.sim db) );
    ("aborts", trace "aborts");
    ("partitions_restored", trace "restorer_partitions_restored");
    ("records_applied", trace "recovery_records_applied");
    ("minor_words", fun _ -> Gc.minor_words ());
    ("promoted_words", fun _ -> (Gc.quick_stat ()).Gc.promoted_words);
    ("major_collections", fun _ -> int (Gc.quick_stat ()).Gc.major_collections);
  |]

let probe_index name =
  let rec go i = if fst probes.(i) = name then i else go (i + 1) in
  go 0

let snapshot db = Array.map (fun (_, read) -> read db) probes

(* [acc += after - before], probe by probe. *)
let accumulate acc before after =
  Array.iteri (fun i a -> acc.(i) <- acc.(i) +. (a -. before.(i))) after

(* -- runs ----------------------------------------------------------------------------------- *)

type spec = {
  name : string;
  config : Config.t;
  load : Db.t -> mix;
  warm : int;  (** transactions run during set-up *)
  txns : int;  (** measured transactions per round *)
  cycles : int;  (** crash -> restart cycles per round *)
  crash_probe : bool;
      (** after one crash, call Db.begin_txn on the crashed node (smoke mode:
          proves a failing operation is counted, not fatal) *)
}

(* Everything a run measures, summed over its rounds. *)
type acc = {
  setup_ns : Meter.samples;
  mutable fwd_txns : int;
  mutable fwd_ns : int;  (** forward loop wall time, closing quiesce included *)
  fwd : float array;  (** probe deltas over the forward phases *)
  reads : Meter.samples;  (** untraced read-only transaction latencies, ns *)
  writes : Meter.samples;  (** untraced update transaction latencies, ns *)
  mutable gauges : (string * float) list;  (** end-of-forward readings, summed *)
  mutable rounds : int;
  (* per restart cycle *)
  open_ns : Meter.samples;
  first_ns : Meter.samples;
  full_ns : Meter.samples;
  sim_open_us : float Queue.t;
  sim_first_us : float Queue.t;
  sim_full_us : float Queue.t;
  on_demand : float array;  (** probe deltas, recover -> first commit *)
  sweep : float array;  (** probe deltas, background sweep *)
  mutable sweep_ns : int;
}

let make_acc spec ~rounds =
  let n = rounds * spec.txns and c = rounds * spec.cycles in
  {
    setup_ns = Meter.samples rounds;
    fwd_txns = 0;
    fwd_ns = 0;
    fwd = Array.make (Array.length probes) 0.0;
    reads = Meter.samples n;
    writes = Meter.samples n;
    gauges = [];
    rounds = 0;
    open_ns = Meter.samples c;
    first_ns = Meter.samples c;
    full_ns = Meter.samples c;
    sim_open_us = Queue.create ();
    sim_first_us = Queue.create ();
    sim_full_us = Queue.create ();
    on_demand = Array.make (Array.length probes) 0.0;
    sweep = Array.make (Array.length probes) 0.0;
    sweep_ns = 0;
  }

(* In a traced run, transactions alternate in blocks of 64 between traced
   and untraced, so the tracing overhead is measured on the same database
   state. *)
let block_bits = 6

let forward spec mix db sched acc ~trace =
  let before = snapshot db in
  let t0 = Meter.now_ns () in
  for i = 0 to spec.txns - 1 do
    if trace && i land ((1 lsl block_bits) - 1) = 0 then
      Meter.tracing := (i lsr block_bits) land 1 = 1;
    let exec = Option.get (Schedule.next sched) in
    let write = i mod mix.update_every = mix.update_every - 1 in
    let dt = run_txn db mix exec ~write in
    if not !Meter.tracing then Meter.add (if write then acc.writes else acc.reads) dt;
    acc.fwd_txns <- acc.fwd_txns + 1
  done;
  Meter.tracing := trace;
  Call.quiesce db;
  Meter.tracing := false;
  acc.fwd_ns <- acc.fwd_ns + (Meter.now_ns () - t0);
  accumulate acc.fwd before (snapshot db);
  let slt = Db.slt db in
  let add name v =
    let prev = Option.value (List.assoc_opt name acc.gauges) ~default:0.0 in
    acc.gauges <- (name, prev +. v) :: List.remove_assoc name acc.gauges
  in
  add "active_partitions" (float_of_int (List.length (Mrdb_wal.Slt.active_partitions slt)));
  add "bins_used" (float_of_int (Mrdb_wal.Stable_layout.bin_count_used (Mrdb_wal.Slt.layout slt)));
  add "window_pressure" (Mrdb_wal.Slt.window_pressure slt)

(* Only Db.recover, the first transaction (as one span) and the background
   sweep are traced. *)
let restart_cycle spec mix db sched acc ~trace =
  mix.hang db;
  Db.crash db;
  if spec.crash_probe then begin
    outcome.attempted <- outcome.attempted + 1;
    match Db.begin_txn db with
    | exception e -> failure db None e
    | _ -> problem "Db.begin_txn succeeded on a crashed node"
  end;
  outcome.attempted <- outcome.attempted + 1;
  (* A restarted node does not inherit the dead process's garbage: collect
     the discarded volatile state before the clock starts. *)
  Gc.full_major ();
  let s0 = snapshot db in
  Meter.tracing := trace;
  let t0 = Meter.now_ns () in
  (match Call.recover db with () -> () | exception e -> failure db None e);
  let t_open = Meter.now_ns () in
  Meter.tracing := false;
  let s_open = snapshot db in
  let t_open' = Meter.now_ns () in
  (* One span for the whole transaction: its calls restore partitions on
     demand, so they must not mix with the forward per-call means. *)
  ignore (run_txn db mix (Option.get (Schedule.next sched)) ~write:true);
  let t_first = Meter.now_ns () in
  if trace then Meter.observe Call.first_txn_sp (t_first - t_open');
  let s_first = snapshot db in
  Meter.tracing := trace;
  let t_sweep = Meter.now_ns () in
  (match
     while Call.background_recovery_step db do
       ()
     done
   with
  | () -> ()
  | exception e -> failure db None e);
  let t_full = Meter.now_ns () in
  Meter.tracing := false;
  let s_full = snapshot db in
  let open_ns = t_open - t0 in
  let first_ns = open_ns + (t_first - t_open') in
  Meter.add acc.open_ns open_ns;
  Meter.add acc.first_ns first_ns;
  Meter.add acc.full_ns (first_ns + (t_full - t_sweep));
  acc.sweep_ns <- acc.sweep_ns + (t_full - t_sweep);
  let sim = probe_index "sim_us" in
  Queue.add (s_open.(sim) -. s0.(sim)) acc.sim_open_us;
  Queue.add (s_first.(sim) -. s0.(sim)) acc.sim_first_us;
  Queue.add (s_full.(sim) -. s0.(sim)) acc.sim_full_us;
  accumulate acc.on_demand s0 s_first;
  accumulate acc.sweep s_first s_full;
  let resident = Db.resident_fraction db in
  if resident <> 1.0 then
    problem (Printf.sprintf "resident fraction %.3f after the sweep" resident);
  mix.check db

(* A failure may leave the node crashed; bring it back so the final
   state check still runs. *)
let settle db =
  if Db.is_crashed db then begin
    Db.recover db;
    Db.recover_everything db
  end

let round spec ~seed ~trace acc =
  Gc.compact ();
  Meter.tracing := false;
  let db = ref None and mix = ref None in
  let stopped =
    match
      outcome.attempted <- outcome.attempted + 1;
      let t0 = Meter.now_ns () in
      let d = Db.create ~config:spec.config () in
      db := Some d;
      let m = spec.load d in
      mix := Some m;
      let sched =
        Schedule.create ~seed (Executor.spawn ~seed ~n:spec.config.Config.executors)
      in
      for _ = 1 to spec.warm do
        ignore (run_txn d m (Option.get (Schedule.next sched)) ~write:true)
      done;
      Meter.add acc.setup_ns (Meter.now_ns () - t0);
      Gc.full_major ();
      forward spec m d sched acc ~trace;
      for _ = 1 to spec.cycles do
        restart_cycle spec m d sched acc ~trace
      done;
      m.check d
    with
    | () -> false
    | exception Stop -> true
    | exception e ->
        (* Raised outside a guarded transaction (set-up, checks). *)
        note_failure e;
        true
  in
  Meter.tracing := false;
  if stopped then begin
    match (!db, !mix) with
    | Some d, Some m -> (
        match
          settle d;
          m.check d
        with
        | () -> ()
        | exception e -> problem ("state check after failure: " ^ Printexc.to_string e))
    | _ -> ()
  end;
  acc.rounds <- acc.rounds + 1;
  stopped

let run spec ~seed ~rounds ~trace =
  let acc = make_acc spec ~rounds in
  let rec go r =
    if r < rounds && not (round spec ~seed:((seed * 1009) + r) ~trace acc) then go (r + 1)
  in
  go 0;
  acc
