(* The repository benchmark.

     dune exec benchmark/run.exe -- [--seed N] [--repeat N] [--out FILE]
         every workload, untraced then traced, each run in its own child
         process; prints every metric and writes the results as JSON
     dune exec benchmark/run.exe -- --workload W [--seed N] [--seconds S] [--trace 0|1]
         one run of one workload in this process; the last line of
         standard output is the JSON result
     dune exec benchmark/run.exe -- --smoke
         tiny sizes, every workload, with assertions (wired into runtest)

   See README.md for the workloads, the metrics and their bounds. *)

open Mrdb_core
module W = Workloads

let workloads = [ "debit_credit"; "debit_credit_e4"; "hlr"; "restart" ]

(* Config.default with checkpoint polling left to the benchmark.  The SLB
   block pool is scaled by the executor count because striping divides it
   between the executors' regions. *)
let config executors =
  let base = { Config.default with Config.auto_checkpoint = false } in
  let stable = base.Config.stable in
  {
    base with
    Config.executors;
    stable =
      {
        stable with
        Mrdb_wal.Stable_layout.slb_block_count =
          executors * stable.Mrdb_wal.Stable_layout.slb_block_count;
      };
  }

let spec ~smoke name =
  let pick full tiny = if smoke then tiny else full in
  let bank =
    W.Bank.load ~accounts:(pick 10_000 300) ~tellers:(pick 100 10) ~branches:(pick 10 2)
  in
  let base =
    {
      W.name;
      config = config 1;
      load = bank;
      warm = 0;
      txns = pick 200_000 3_000;
      cycles = pick 5 2;
      crash_probe = false;
    }
  in
  match name with
  | "debit_credit" -> base
  | "debit_credit_e4" -> { base with W.config = config 4 }
  | "hlr" ->
      {
        base with
        W.load = W.Hlr.load ~subscribers:(pick 100_000 2_000);
        txns = pick 600_000 5_000;
      }
  | "restart" ->
      { base with W.warm = pick 200_000 2_000; txns = pick 50_000 500; cycles = pick 20 3 }
  | _ -> invalid_arg ("unknown workload " ^ name)

(* Rounds per run: each round re-creates and reloads the database, so
   set-up time is a median over several set-ups. *)
let rounds_for ~seconds = max 3 (seconds / 3)

(* -- metrics ------------------------------------------------------------------ *)

type metric = { name : string; unit_ : string; value : float; n : int option }

let m ?n name unit_ value = { name; unit_; value; n }
let per a b = if b = 0.0 then 0.0 else a /. b

let median_floats q =
  let a = Array.of_seq (Queue.to_seq q) in
  Array.sort compare a;
  if a = [||] then 0.0 else a.((Array.length a - 1) / 2)

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

let end_to_end (acc : W.acc) =
  (* Read before the percentile copies below add to the heap. *)
  let heap_mb = heap_peak_mb () in
  let fwd name = acc.W.fwd.(W.probe_index name) in
  let txns = float_of_int acc.W.fwd_txns in
  let all = Meter.concat acc.W.reads acc.W.writes in
  let cycles = Meter.count acc.W.open_ns in
  let us s q = float_of_int (Meter.percentile s q) /. 1e3 in
  let ms s = float_of_int (Meter.percentile s 0.5) /. 1e6 in
  [
    m ~n:(Meter.count acc.W.setup_ns) "setup_s" "s"
      (float_of_int (Meter.percentile acc.W.setup_ns 0.5) /. 1e9);
    m "throughput_txn_s" "txn/s" (per txns (float_of_int acc.W.fwd_ns /. 1e9));
    m ~n:(Meter.count all) "txn_p50_us" "us" (us all 0.5);
    (* The tail of update transactions only: on hlr the p99 of all
       transactions falls on the knee of the write distribution and swung
       by a third between runs. *)
    m ~n:(Meter.count acc.W.writes) "write_p99_us" "us" (us acc.W.writes 0.99);
    m "log_bytes_per_txn" "B" (per (fwd "log_bytes") txns);
    m "sim_txn_s" "txn/sim_s" (per txns (fwd "sim_us" /. 1e6));
    m "heap_peak_mb" "MB" heap_mb;
    m ~n:cycles "open_ms" "ms" (ms acc.W.open_ns);
    m ~n:cycles "first_commit_ms" "ms" (ms acc.W.first_ns);
    m ~n:cycles "full_restore_ms" "ms" (ms acc.W.full_ns);
    m ~n:cycles "sim_first_commit_ms" "sim_ms" (median_floats acc.W.sim_first_us /. 1e3);
    m ~n:cycles "sim_full_restore_ms" "sim_ms" (median_floats acc.W.sim_full_us /. 1e3);
  ]

let per_layer (acc : W.acc) =
  let txn = W.Call.txn_sp and quiesce = W.Call.quiesce_sp in
  let restarts = float_of_int (Meter.count acc.W.open_ns) in
  let restart_ns = float_of_int (Meter.sum acc.W.full_ns) in
  let tail (sp : Meter.span) =
    match sp.Meter.tail with
    | Some s ->
        let p99 = float_of_int (Meter.percentile s 0.99) in
        [ m ~n:(Meter.count s) (sp.Meter.name ^ ".p99_ns") "ns" p99 ]
    | None -> []
  in
  (* Forward calls: shares of traced transaction time. *)
  let forward =
    List.concat_map
      (fun (sp : Meter.span) ->
        [
          m ~n:sp.Meter.timed (sp.Meter.name ^ ".ns_per_call") "ns" (Meter.ns_per_call sp);
          m (sp.Meter.name ^ ".calls_per_txn") "calls/txn"
            (per (float_of_int sp.Meter.calls) (float_of_int txn.Meter.calls));
          m (sp.Meter.name ^ ".share") "frac"
            (per (Meter.estimated_ns sp) (float_of_int txn.Meter.total_ns));
        ]
        @ tail sp)
      W.Call.in_txn
  in
  (* Restart calls: shares of crash -> fully restored time. *)
  let restart =
    List.concat_map
      (fun (sp : Meter.span) ->
        [
          m ~n:sp.Meter.timed (sp.Meter.name ^ ".ns_per_call") "ns" (Meter.ns_per_call sp);
          m (sp.Meter.name ^ ".calls_per_restart") "calls"
            (per (float_of_int sp.Meter.calls) restarts);
          m (sp.Meter.name ^ ".share") "frac" (per (float_of_int sp.Meter.total_ns) restart_ns);
        ]
        @ tail sp)
      W.Call.restart
  in
  let in_txn = List.fold_left (fun s sp -> s +. Meter.estimated_ns sp) 0.0 W.Call.in_txn in
  let fwd name = acc.W.fwd.(W.probe_index name) in
  let txns = float_of_int acc.W.fwd_txns in
  let ktxns = txns /. 1e3 in
  let od name = acc.W.on_demand.(W.probe_index name)
  and sw name = acc.W.sweep.(W.probe_index name) in
  let both name = od name +. sw name in
  let gauge name =
    per (Option.value (List.assoc_opt name acc.W.gauges) ~default:0.0) (float_of_int acc.W.rounds)
  in
  let us s q = float_of_int (Meter.percentile s q) /. 1e3 in
  forward @ restart
  @ [
      m "txn.glue_share" "frac" (1.0 -. per in_txn (float_of_int txn.Meter.total_ns));
      m "db.quiesce.ns_per_call" "ns" (Meter.ns_per_call quiesce);
      m "db.quiesce.share" "frac"
        (per (float_of_int quiesce.Meter.total_ns) (float_of_int acc.W.fwd_ns));
      (* Median traced over median untraced transaction time, minus one:
         medians, because a few checkpoint stalls move a mean by more than
         the tracing cost. *)
      m "trace.overhead_frac" "frac"
        (per
           (float_of_int (Meter.percentile (Option.get txn.Meter.tail) 0.5))
           (float_of_int (Meter.percentile (Meter.concat acc.W.reads acc.W.writes) 0.5))
        -. 1.0);
      m ~n:(Meter.count acc.W.reads) "mix.read_p50_us" "us" (us acc.W.reads 0.5);
      m ~n:(Meter.count acc.W.reads) "mix.read_p99_us" "us" (us acc.W.reads 0.99);
      m ~n:(Meter.count acc.W.writes) "mix.write_p50_us" "us" (us acc.W.writes 0.5);
      m ~n:(Meter.count acc.W.writes) "mix.write_p99_us" "us" (us acc.W.writes 0.99);
      m ~n:(Meter.count acc.W.writes) "tail.write_p999_us" "us" (us acc.W.writes 0.999);
      m "wal.log_records_per_txn" "records/txn" (per (fwd "log_records") txns);
      m "wal.log_pages_per_ktxn" "pages/ktxn" (per (fwd "log_pages") ktxns);
      m "stable_mem.bytes_written_per_txn" "B/txn" (per (fwd "stable_bytes") txns);
      m "sorter.records_per_drain" "records" (per (fwd "sorter_records") (fwd "sorter_drains"));
      m "ckpt.checkpoints_per_ktxn" "ckpt/ktxn" (per (fwd "checkpoints") ktxns);
      m "ckpt.by_age_share" "frac"
        (per (fwd "ckpt_req_age") (fwd "ckpt_req_age" +. fwd "ckpt_req_update_count"));
      m "ckpt.disk_pages_written_per_ktxn" "pages/ktxn" (per (fwd "ckpt_pages_written") ktxns);
      m "cpu.recovery_instr_per_txn" "instr/txn" (per (fwd "recovery_instr") txns);
      m "cpu.recovery_utilization" "frac" (per (fwd "recovery_busy_us") (fwd "sim_us"));
      m "slt.active_partitions" "count" (gauge "active_partitions");
      m "slt.bins_used" "count" (gauge "bins_used");
      m "slt.window_pressure" "frac" (gauge "window_pressure");
      m "gc.minor_words_per_txn" "words/txn" (per (fwd "minor_words") txns);
      m "gc.promoted_words_per_txn" "words/txn" (per (fwd "promoted_words") txns);
      m "gc.major_collections" "count" (fwd "major_collections");
      m "txn.aborts_per_ktxn" "aborts/ktxn" (per (fwd "aborts") ktxns);
      m "restorer.partitions_per_restart" "count" (per (both "partitions_restored") restarts);
      m "restorer.on_demand_partitions" "count" (per (od "partitions_restored") restarts);
      m "restorer.records_per_restart" "records" (per (both "records_applied") restarts);
      m "restorer.ns_per_record" "ns" (per (float_of_int acc.W.sweep_ns) (sw "records_applied"));
      m "restorer.ckpt_pages_read_per_restart" "pages" (per (both "ckpt_pages_read") restarts);
      m "restorer.log_pages_read_per_restart" "pages" (per (both "log_pages_read") restarts);
      m "restart.sim_open_ms" "sim_ms" (median_floats acc.W.sim_open_us /. 1e3);
      m "restorer.sim_us_per_partition" "sim_us"
        (per (both "sim_us") (both "partitions_restored"));
    ]

(* -- one run ---------------------------------------------------------------------- *)

let reset () =
  let o = W.outcome in
  o.W.attempted <- 0;
  o.W.failed <- 0;
  o.W.problems <- [];
  List.iter Meter.reset W.Call.all

let run_one spec ~seed ~rounds ~trace =
  reset ();
  let acc = W.run spec ~seed ~rounds ~trace in
  if trace then per_layer acc else end_to_end acc

let result_json metrics =
  let o = W.outcome in
  Json.Obj
    [
      ("correct", Json.Bool (o.W.problems = []));
      ("attempted", Json.Num (float_of_int o.W.attempted));
      ("failed", Json.Num (float_of_int o.W.failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun mt ->
               (mt.name, Json.Obj [ ("value", Json.Num mt.value); ("unit", Json.Str mt.unit_) ]))
             metrics) );
    ]

let print_metric mt =
  Printf.printf "  %-40s %14.4f %-12s%s\n" mt.name mt.value mt.unit_
    (match mt.n with Some n -> Printf.sprintf " (n=%d)" n | None -> "")

let single ~workload ~seed ~seconds ~trace =
  let spec = spec ~smoke:false workload in
  let metrics = run_one spec ~seed ~rounds:(rounds_for ~seconds) ~trace in
  let o = W.outcome in
  Printf.printf "%s seed=%d trace=%b attempted=%d failed=%d failed_frac=%g\n" workload seed
    trace o.W.attempted o.W.failed
    (per (float_of_int o.W.failed) (float_of_int o.W.attempted));
  List.iter print_metric metrics;
  List.iter (fun p -> Printf.printf "  CHECK FAILED: %s\n" p) (List.rev o.W.problems);
  print_endline (Json.to_string (result_json metrics));
  if o.W.problems <> [] then exit 1

(* -- BENCHMARK.json ------------------------------------------------------------------------ *)

type declared = { d_name : string; d_unit : string; bound : float option }

let read_spec path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let j = Json.parse text in
  let section key =
    List.map
      (fun e ->
        {
          d_name = Option.get (Json.to_str (Json.member "name" e));
          d_unit = Option.value (Json.to_str (Json.member "unit" e)) ~default:"";
          bound = Json.to_num (Json.member "bound" e);
        })
      (Json.to_list (Json.member key j))
  in
  (section "end_to_end", section "per_layer")

(* -- orchestration -------------------------------------------------------------------------- *)

(* Run one workload in a fresh child process and parse its result line. *)
let child ~workload ~seed ~seconds ~trace =
  let args =
    [| Sys.executable_name; "--workload"; workload; "--seed"; string_of_int seed;
       "--seconds"; string_of_int seconds; "--trace"; (if trace then "1" else "0") |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  match !lines with
  | last :: _ -> (
      match Json.parse last with
      | j -> (status = Unix.WEXITED 0, j)
      | exception Json.Parse_error _ -> (false, Json.Null))
  | [] -> (false, Json.Null)

(* Python's statistics.quantiles(values, n=4), the "exclusive" method. *)
let quartiles values =
  let a = Array.of_list values in
  Array.sort compare a;
  let ld = Array.length a in
  if ld = 0 then (0.0, 0.0, 0.0)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let mm = ld + 1 in
      let j = max 1 (min (ld - 1) (i * mm / 4)) in
      let delta = float_of_int ((i * mm) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let orchestrate ~spec_path ~seed ~seconds ~repeat ~out =
  let e2e, layers = read_spec spec_path in
  let ok = ref true in
  let untraced = Hashtbl.create 8 and traced = Hashtbl.create 8 in
  for i = 0 to repeat - 1 do
    (* Alternate the order so drift over time does not favour one workload. *)
    List.iter
      (fun w ->
        Printf.printf "run %d/%d %s\n%!" (i + 1) repeat w;
        let good, j = child ~workload:w ~seed ~seconds ~trace:false in
        if not good then ok := false;
        Hashtbl.add untraced w j)
      (if i mod 2 = 0 then workloads else List.rev workloads)
  done;
  List.iter
    (fun w ->
      Printf.printf "traced run %s\n%!" w;
      let good, j = child ~workload:w ~seed ~seconds ~trace:true in
      if not good then ok := false;
      Hashtbl.replace traced w j)
    workloads;
  let value j name =
    Json.to_num (Json.member "value" (Json.member name (Json.member "metrics" j)))
  in
  let flagged = ref [] in
  let report =
    List.map
      (fun w ->
        let runs = List.rev (Hashtbl.find_all untraced w) in
        Printf.printf "\n%s (%d untraced runs)\n" w (List.length runs);
        let total key =
          List.fold_left
            (fun s j -> s +. Option.value (Json.to_num (Json.member key j)) ~default:0.0)
            0.0 runs
        in
        let failed = total "failed" and attempted = total "attempted" in
        Printf.printf "  %-40s %14g (%g of %g)\n" "failed_frac" (per failed attempted) failed
          attempted;
        let e2e_json =
          List.map
            (fun d ->
              let vals = List.filter_map (fun j -> value j d.d_name) runs in
              let q1, med, q3 = quartiles vals in
              let spread = per (q3 -. q1) med in
              let bound = Option.value d.bound ~default:infinity in
              let flag = spread > bound in
              if flag then flagged := (w ^ "/" ^ d.d_name) :: !flagged;
              Printf.printf
                "  %-40s %14.4f %-10s q1 %.4f  q3 %.4f  spread %.2f%% (bound %.0f%%)%s\n"
                d.d_name med d.d_unit q1 q3 (100.0 *. spread) (100.0 *. bound)
                (if flag then "  SPREAD ABOVE BOUND" else "");
              ( d.d_name,
                Json.Obj
                  [ ("median", Json.Num med); ("q1", Json.Num q1); ("q3", Json.Num q3);
                    ("runs", Json.List (List.map (fun v -> Json.Num v) vals)) ] ))
            e2e
        in
        let tj = Hashtbl.find traced w in
        let layer_json =
          List.map
            (fun d ->
              let v = Option.value (value tj d.d_name) ~default:nan in
              Printf.printf "  %-40s %14.4f %s\n" d.d_name v d.d_unit;
              (d.d_name, Json.Num v))
            layers
        in
        ( w,
          Json.Obj
            [ ("failed", Json.Num failed); ("attempted", Json.Num attempted);
              ("end_to_end", Json.Obj e2e_json); ("per_layer", Json.Obj layer_json) ] ))
      workloads
  in
  let oc = open_out out in
  output_string oc
    (Json.to_string
       (Json.Obj
          [ ("seed", Json.Num (float_of_int seed)); ("seconds", Json.Num (float_of_int seconds));
            ("repeat", Json.Num (float_of_int repeat)); ("workloads", Json.Obj report) ]));
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s\n" out;
  if !flagged <> [] then
    Printf.printf "spread above bound: %s\n" (String.concat ", " (List.rev !flagged));
  if not !ok then begin
    print_endline "a run failed its correctness checks or did not finish";
    exit 1
  end

(* -- smoke mode ---------------------------------------------------------------------------- *)

let smoke ~spec_path =
  let e2e, layers = read_spec spec_path in
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let expect ~what ~positive declared metrics =
    List.iter
      (fun d ->
        match List.find_opt (fun mt -> mt.name = d.d_name) metrics with
        | None -> fail "%s: metric %s not emitted" what d.d_name
        | Some mt when not (Float.is_finite mt.value) ->
            fail "%s: %s is not finite" what d.d_name
        | Some mt when positive && mt.value <= 0.0 -> fail "%s: %s is %g" what d.d_name mt.value
        | Some _ -> ())
      declared;
    List.iter
      (fun mt ->
        if not (List.exists (fun d -> d.d_name = mt.name) declared) then
          fail "%s: metric %s is not declared in %s" what mt.name spec_path)
      metrics
  in
  let clean what =
    let o = W.outcome in
    if o.W.problems <> [] then fail "%s: %s" what (String.concat "; " o.W.problems);
    if o.W.failed <> 0 then fail "%s: %d failed operations" what o.W.failed
  in
  List.iter
    (fun w ->
      let spec = spec ~smoke:true w in
      expect ~what:w ~positive:true e2e (run_one spec ~seed:7 ~rounds:1 ~trace:false);
      clean w;
      expect ~what:(w ^ " traced") ~positive:false layers
        (run_one spec ~seed:7 ~rounds:1 ~trace:true);
      clean (w ^ " traced"))
    workloads;
  (* A failing operation is counted and the run still reports. *)
  prerr_endline "benchmark smoke: forcing one failure, Db.begin_txn on a crashed node";
  let probe = { (spec ~smoke:true "restart") with W.crash_probe = true } in
  expect ~what:"crash probe" ~positive:false e2e
    (run_one probe ~seed:7 ~rounds:1 ~trace:false);
  let o = W.outcome in
  if o.W.failed <> 1 then fail "crash probe: %d failures counted, expected 1" o.W.failed;
  if o.W.problems <> [] then fail "crash probe: %s" (String.concat "; " o.W.problems);
  (* Explicit polling after every commit behaves exactly like auto mode. *)
  let explicit = spec ~smoke:true "debit_credit" in
  let auto =
    { explicit with W.config = { explicit.W.config with Config.auto_checkpoint = true } }
  in
  let counters s =
    reset ();
    let acc = W.run { s with W.cycles = 0 } ~seed:7 ~rounds:1 ~trace:false in
    List.map
      (fun p -> (p, acc.W.fwd.(W.probe_index p)))
      [ "checkpoints"; "ckpt_req_age"; "log_records"; "log_bytes"; "log_pages" ]
  in
  let a = counters explicit and b = counters auto in
  if a <> b then fail "explicit and auto checkpoint polling disagree";
  if List.assoc "checkpoints" a = 0.0 then fail "equivalence run took no checkpoints";
  match !errors with
  | [] -> print_endline "benchmark smoke: ok"
  | errs ->
      List.iter (fun e -> prerr_endline ("benchmark smoke: " ^ e)) (List.rev errs);
      exit 1

(* -- command line ---------------------------------------------------------------------------- *)

let () =
  let workload = ref None and seed = ref 7 and seconds = ref 10 and trace = ref 0 in
  let smoke_mode = ref false and repeat = ref 1 in
  let spec_path = ref "BENCHMARK.json" and out = ref "benchmark-results.json" in
  Arg.parse
    [
      ( "--workload",
        Arg.String (fun w -> workload := Some w),
        "W run one workload in this process" );
      ("--seed", Arg.Set_int seed, "N input seed (default 7)");
      ( "--seconds",
        Arg.Set_int seconds,
        "S measured time budget: rounds = max 3 (S / 3) (default 10)" );
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end pass or traced per-layer pass");
      ("--smoke", Arg.Set smoke_mode, " tiny sizes and assertions");
      ("--repeat", Arg.Set_int repeat, "N runs of each workload, alternating the order");
      ("--spec", Arg.Set_string spec_path, "FILE metric declarations (default BENCHMARK.json)");
      ("--out", Arg.Set_string out, "FILE results (default benchmark-results.json)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "run.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--repeat N]";
  if !smoke_mode then smoke ~spec_path:!spec_path
  else
    match !workload with
    | Some w when List.mem w workloads ->
        single ~workload:w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
    | Some w ->
        prerr_endline ("unknown workload " ^ w);
        exit 2
    | None ->
        orchestrate ~spec_path:!spec_path ~seed:!seed ~seconds:!seconds ~repeat:!repeat
          ~out:!out
