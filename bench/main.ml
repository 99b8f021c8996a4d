(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 3), plus the ablations DESIGN.md calls out.

     dune exec bench/main.exe

   Absolute values come from the paper's own Table 2 constants (1-MIPS
   recovery CPU, 8 KB log pages, 24-byte records, 48 KB partitions), so
   the analytic columns should track the paper's curves closely; the "sim"
   columns re-measure them on the discrete-event substrate. *)

module P = Mrdb_analysis.Params
module LM = Mrdb_analysis.Log_model
module CM = Mrdb_analysis.Ckpt_model
module RM = Mrdb_analysis.Recovery_model
module T = Mrdb_util.Texttab

let section title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n"

(* -- Table 2 ------------------------------------------------------------- *)

let table2 () =
  section "Table 2 — parameter descriptions (paper values + calculated)";
  let p = P.default in
  let t = T.create_aligned ~headers:[ ("Name", T.Left); ("Value", T.Right); ("Units", T.Left) ] in
  List.iter (fun (n, v, u) -> T.row t [ n; v; u ]) (P.rows p);
  T.row t [ "I_record_sort (calculated)"; Printf.sprintf "%.1f" (LM.i_record_sort p); "instructions / record" ];
  T.row t [ "I_page_write (calculated)"; Printf.sprintf "%.1f" (LM.i_page_write p); "instructions / page" ];
  T.row t
    [ "N_log_pages (calculated)";
      Printf.sprintf "%.1f" (float_of_int (p.P.n_update * p.P.s_log_record) /. float_of_int p.P.s_log_page);
      "pages / partition checkpoint" ];
  T.row t [ "R_bytes_logged (calculated)"; Printf.sprintf "%.0f" (LM.bytes_logged_per_s p); "bytes / second" ];
  T.row t [ "R_records_logged (calculated)"; Printf.sprintf "%.0f" (LM.records_logged_per_s p); "records / second" ];
  T.row t
    [ "R_checkpoint best case (calculated)";
      Printf.sprintf "%.2f" (CM.best_case p ~records_per_s:(LM.records_logged_per_s p));
      "checkpoints / second" ];
  T.print t

(* -- Graph 1 ------------------------------------------------------------- *)

let record_sizes = [ 8; 16; 24; 32; 48; 64 ]
let page_sizes = [ 4096; 8192; 16384; 32768 ]

let graph1 () =
  section
    "Graph 1 — logging capacity of the recovery component\n\
     (log records/second vs record size; one analytic + one simulated\n\
     column per log page size)";
  let p = P.default in
  let analytic = LM.graph1 ~record_sizes ~page_sizes p in
  let sim = Sim_graphs.graph1_sim ~record_sizes ~page_sizes p in
  let t =
    T.create
      ~headers:
        ("rec bytes"
        :: List.concat_map
             (fun s -> [ Printf.sprintf "%dK model" (s / 1024); Printf.sprintf "%dK sim" (s / 1024) ])
             page_sizes)
  in
  List.iter2
    (fun (x, model) (_, simulated) ->
      T.row t
        (Printf.sprintf "%.0f" x
        :: List.concat_map
             (fun (m, s) -> [ Printf.sprintf "%.0f" m; Printf.sprintf "%.0f" s ])
             (List.combine model simulated)))
    analytic sim;
  T.print t;
  Printf.printf
    "shape check: capacity falls with record size (more per-record work per\n\
     byte) and rises slightly with page size (page overhead amortized).\n"

(* -- Graph 2 ------------------------------------------------------------- *)

let graph2 () =
  section
    "Graph 2 — maximum transaction rate vs log records per transaction\n\
     (one series per record size)";
  let p = P.default in
  let ns = [ 1; 2; 4; 8; 10; 20; 50; 100 ] in
  let sizes = [ 8; 16; 24; 48 ] in
  let rows = LM.graph2 ~records_per_txn:ns ~record_sizes:sizes p in
  let t =
    T.create
      ~headers:("records/txn" :: List.map (fun s -> Printf.sprintf "%dB rec" s) sizes)
  in
  List.iter
    (fun (x, ys) ->
      T.row t (Printf.sprintf "%.0f" x :: List.map (fun y -> Printf.sprintf "%.0f" y) ys))
    rows;
  T.print t;
  let headline = LM.txn_rate p ~records_per_txn:4 in
  Printf.printf
    "headline check (§3.2): debit/credit at 4 records/txn sustains %.0f txn/s\n\
     (paper: \"approximately 4,000 transactions per second\").\n"
    headline

(* -- Graph 3 ------------------------------------------------------------- *)

let graph3 () =
  section
    "Graph 3 — checkpoint frequency vs logging rate\n\
     (N_update x fraction-triggered-by-update-count mixes; age-triggered\n\
     partitions assume the worst case of one page of records each)";
  let p = P.default in
  let rates = [ 1000.; 2500.; 5000.; 7500.; 10000.; 12500.; 15000. ] in
  let mixes =
    [ (1000, 1.0); (1000, 0.6); (1000, 0.0); (4000, 1.0); (4000, 0.6) ]
  in
  let rows = CM.graph3 ~logging_rates:rates ~mixes p in
  let t =
    T.create
      ~headers:
        ("records/s"
        :: List.map (fun (n, f) -> Printf.sprintf "N=%d f_upd=%.0f%%" n (f *. 100.)) mixes)
  in
  List.iter
    (fun (x, ys) ->
      T.row t (Printf.sprintf "%.0f" x :: List.map (fun y -> Printf.sprintf "%.2f" y) ys))
    rows;
  T.print t;
  Printf.printf
    "checkpoint-load check (§3.3): at N_update=1000, f_update=60%%, 10\n\
     records/txn, checkpoint transactions are %.1f%% of the load (paper: ~1.5%%).\n"
    (CM.checkpoint_load_fraction p ~records_per_txn:10 ~f_update:0.6 *. 100.0);
  (* Measured trigger mix on the real system under skewed access. *)
  let t2 =
    T.create
      ~headers:[ "zipf theta"; "update trigs"; "age trigs"; "measured f_update"; "ckpts done" ]
  in
  List.iter
    (fun theta ->
      let m = Measured.trigger_mix ~theta ~updates:6000 in
      T.row t2
        [ Printf.sprintf "%.1f" m.Measured.theta;
          string_of_int m.Measured.update_triggers;
          string_of_int m.Measured.age_triggers;
          Printf.sprintf "%.0f%%" (m.Measured.measured_f_update *. 100.0);
          string_of_int m.Measured.checkpoints ])
    [ 0.0; 0.8; 1.6 ];
  print_endline "measured trigger mix (skewed workload, small geometry):";
  T.print t2;
  Printf.printf
    "shape check: with a window tight relative to the working set, both\n\
     triggers fire — hot partitions reach N_update, colder ones age out —\n\
     and the measured mix lands near the 60%% update-count regime that\n\
     Graph 3's middle series (and the paper's 1.5%%-load estimate) assume.\n"

(* -- R1: recovery comparison ---------------------------------------------- *)

let recovery () =
  section
    "R1 (§3.4) — partition-level vs database-level post-crash recovery\n\
     analytic: time to first transaction (ms) as the database grows";
  let p = P.default in
  let sizes = [ 16; 64; 256; 1024; 4096 ] in
  let rows = RM.sweep p ~n_partitions:sizes in
  let t = T.create ~headers:[ "partitions"; "partition-level ms"; "db-level ms"; "speedup" ] in
  List.iter
    (fun (n, ys) ->
      match ys with
      | [ a; b ] ->
          T.row t
            [ Printf.sprintf "%.0f" n; Printf.sprintf "%.1f" a; Printf.sprintf "%.1f" b;
              Printf.sprintf "%.0fx" (b /. a) ]
      | _ -> assert false)
    rows;
  T.print t;
  print_endline "measured on the functional system (small geometry, simulated clock):";
  let t2 =
    T.create
      ~headers:
        [ "relations"; "partitions"; "catalogs ms"; "1st txn on-demand ms";
          "1st txn full-reload ms"; "full restore ms"; "speedup" ]
  in
  List.iter
    (fun relations ->
      let r = Measured.recovery_comparison ~relations ~rows:100 in
      T.row t2
        [ string_of_int r.Measured.relations;
          string_of_int r.Measured.partitions;
          Printf.sprintf "%.2f" r.Measured.catalog_only_ms;
          Printf.sprintf "%.2f" r.Measured.first_txn_on_demand_ms;
          Printf.sprintf "%.2f" r.Measured.first_txn_full_reload_ms;
          Printf.sprintf "%.2f" r.Measured.full_restore_on_demand_ms;
          Printf.sprintf "%.1fx" r.Measured.speedup ])
    [ 2; 4; 8; 12 ];
  T.print t2;
  print_endline
    "shape check: first-transaction latency is flat for partition-level\n\
     recovery but grows linearly with database size for full reload."

(* -- A1: size ablations ---------------------------------------------------- *)

let ablation_sizes () =
  section
    "A1 (§3.1) — log page size and N_update tradeoffs (analytic)\n\
     larger pages amortize write overhead but raise the age-trigger floor";
  let p = P.default in
  let t =
    T.create
      ~headers:
        [ "page KB"; "records/s"; "ckpts/s best"; "ckpts/s worst"; "worst/best" ]
  in
  List.iter
    (fun s_page ->
      let p' = P.with_sizes ~s_log_page:s_page p in
      let rate = LM.records_logged_per_s p' in
      let best = CM.best_case p' ~records_per_s:rate in
      let worst = CM.worst_case p' ~records_per_s:rate in
      T.row t
        [ Printf.sprintf "%d" (s_page / 1024); Printf.sprintf "%.0f" rate;
          Printf.sprintf "%.1f" best; Printf.sprintf "%.1f" worst;
          Printf.sprintf "%.1f" (worst /. best) ])
    [ 2048; 4096; 8192; 16384; 32768 ];
  T.print t;
  let t2 = T.create ~headers:[ "N_update"; "ckpts/s best"; "pages/ckpt"; "1-part recovery ms" ] in
  List.iter
    (fun n ->
      let p' = P.with_sizes ~n_update:n p in
      let rate = LM.records_logged_per_s p' in
      let est = RM.partition_recovery p' () in
      T.row t2
        [ string_of_int n;
          Printf.sprintf "%.1f" (CM.best_case p' ~records_per_s:rate);
          Printf.sprintf "%.1f" (float_of_int (n * p.P.s_log_record) /. float_of_int p.P.s_log_page);
          Printf.sprintf "%.1f" (est.RM.total_us /. 1000.0) ])
    [ 250; 500; 1000; 2000; 4000 ];
  T.print t2;
  print_endline
    "tradeoff: larger N_update means rarer checkpoints but more log pages\n\
     to replay when a partition is recovered."

(* -- A2: directory-size ablation ------------------------------------------- *)

let ablation_directory () =
  section
    "A2 (§2.3.3) — log page directory size vs recovery read pattern\n\
     directories let pages be read in apply order (overlap); a plain\n\
     backward chain must fetch every page before replay starts";
  (* A partition with a long log tail (N_update = 4000 regime, ~12 pages)
     so span structure matters. *)
  let p = P.with_sizes ~n_update:4000 P.default in
  let est = RM.partition_recovery p () in
  let n_pages = est.RM.log_pages in
  let page_read = p.P.d_seek_near_us +. p.P.d_page_transfer_us in
  let t =
    T.create ~headers:[ "dir size N"; "extra span hops"; "log read ms"; "recovery ms" ]
  in
  List.iter
    (fun dir ->
      (* dir = 1 is the plain backward chain: every page is read (in
         reverse) before replay can start, so reads and replay serialize.
         dir >= 2: ceil(pages/N) - 1 extra hops reach the span-start pages
         during the backward walk, then pages stream in apply order and
         replay overlaps the reads. *)
      let hops, read_ms, total_us =
        if dir = 1 then
          (0.0, n_pages *. page_read, (n_pages *. page_read) +. est.RM.apply_us)
        else begin
          let hops = Float.max 0.0 (ceil (n_pages /. float_of_int dir) -. 1.0) in
          let read = (hops +. n_pages) *. page_read in
          (hops, read, Float.max read est.RM.apply_us)
        end
      in
      T.row t
        [ string_of_int dir; Printf.sprintf "%.0f" hops;
          Printf.sprintf "%.1f" (read_ms /. 1000.0);
          Printf.sprintf "%.1f" (Float.max total_us est.RM.image_read_us /. 1000.0) ])
    [ 1; 2; 4; 8; 16; 32 ];
  T.print t;
  print_endline
    "shape check: a backward chain serializes reads and replay; directories\n\
     recover the paper's ceil(n/N)+n read bound with read/apply overlap."

(* -- A3: commit modes -------------------------------------------------------- *)

let commit_modes () =
  section
    "A3 (§1.2 / §2.3.1) — commit-path comparison (measured, simulated clock)\n\
     stable-memory commit vs FASTPATH group commit vs disk-force WAL";
  let rows = Measured.commit_mode_comparison ~txns:300 in
  let t = T.create ~headers:[ "commit mode"; "txns"; "simulated ms"; "log pages" ] in
  List.iter
    (fun (r : Measured.commit_row) ->
      T.row t
        [ r.Measured.mode; string_of_int r.Measured.txns;
          Printf.sprintf "%.1f" r.Measured.simulated_ms;
          string_of_int r.Measured.log_pages ])
    rows;
  T.print t;
  print_endline
    "shape check: disk-force pays a synchronous log write per transaction;\n\
     stable-memory commit does not wait on the disk at all, and batching\n\
     its commit records (n=8) moves it by a few percent, not a factor."

(* -- A3b: group-commit batch-size sweep --------------------------------------- *)

let group_batch_sizes () =
  section
    "A3b — group-commit batch size vs throughput / commit latency\n\
     (REDO appended to the SLB as it is produced; only commit records wait)";
  let rows = Measured.group_batch_sweep ~txns:300 in
  let t =
    T.create
      ~headers:
        [ "batch"; "simulated ms"; "txns/s"; "wait p50 us"; "wait p99 us";
          "flushes"; "log pages"; "stable B/txn" ]
  in
  List.iter
    (fun (r : Measured.group_row) ->
      T.row t
        [ string_of_int r.Measured.batch_size;
          Printf.sprintf "%.1f" r.Measured.g_simulated_ms;
          Printf.sprintf "%.0f" r.Measured.txns_per_s;
          Printf.sprintf "%.1f" r.Measured.wait_p50_us;
          Printf.sprintf "%.1f" r.Measured.wait_p99_us;
          string_of_int r.Measured.flushes;
          string_of_int r.Measured.g_log_pages;
          Printf.sprintf "%.1f" r.Measured.stable_bytes_per_txn ])
    rows;
  T.print t;
  print_endline
    "shape check: the SLB receives the same REDO at every batch size —\n\
     batching only moves when commit records are written.  Larger batches\n\
     drain the SLB less often and write slightly fewer log pages, so\n\
     simulated time falls by about a tenth from batch 1 to 16.  With a\n\
     stable log buffer, group commit buys little (§2.3.1)."

(* -- A4: checkpoint strategies ------------------------------------------------ *)

let ckpt_strategies () =
  section
    "A4 (§1.2) — amortized per-partition checkpoints vs periodic full dump\n\
     (single-object designs pause the transaction stream; measured\n\
     per-transaction latency on the simulated clock)";
  let rows = Measured.ckpt_strategy_comparison ~txns:400 in
  let t =
    T.create
      ~headers:
        [ "strategy"; "total ms"; "mean txn us"; "p99 txn us"; "max txn us"; "ckpts" ]
  in
  List.iter
    (fun (r : Measured.strategy_row) ->
      T.row t
        [ r.Measured.strategy;
          Printf.sprintf "%.1f" r.Measured.total_ms;
          Printf.sprintf "%.0f" r.Measured.mean_txn_us;
          Printf.sprintf "%.0f" r.Measured.p99_txn_us;
          Printf.sprintf "%.0f" r.Measured.max_txn_us;
          string_of_int r.Measured.ckpts ])
    rows;
  T.print t;
  print_endline
    "shape check: the full dump's pauses surface as tail-latency spikes\n\
     (max >> p99), while amortized per-partition checkpoints keep the\n\
     latency distribution tight — the paper's motivation for treating the\n\
     database as a collection of small objects."

(* -- A5: multiprogramming ------------------------------------------------------ *)

let multiprogramming () =
  section
    "A5 — multiprogramming on the DES executor (no-wait 2PL)\n\
     concurrent clients, single-row Zipf-skewed updates; the recovery\n\
     component (logging, per-partition checkpoints) runs underneath";
  List.iter
    (fun theta ->
      Printf.printf "zipf theta = %.1f:\n" theta;
      let rows = Measured.multiprogramming ~theta ~clients_list:[ 1; 2; 4; 8; 16 ] in
      let t =
        T.create
          ~headers:[ "clients"; "committed"; "aborted"; "txn/s"; "abort %"; "p99 latency us" ]
      in
      List.iter
        (fun (r : Measured.mpl_row) ->
          T.row t
            [ string_of_int r.Measured.clients;
              string_of_int r.Measured.committed;
              string_of_int r.Measured.aborted;
              Printf.sprintf "%.0f" r.Measured.txn_per_s;
              Printf.sprintf "%.1f" r.Measured.abort_pct;
              Printf.sprintf "%.0f" r.Measured.p99_latency_us ])
        rows;
      T.print t)
    [ 0.0; 1.2 ];
  print_endline
    "shape check: throughput scales with clients until the main CPU\n\
     saturates; skew raises the no-wait abort rate with client count."

let () =
  print_endline
    "MM-DBMS recovery reproduction — Lehman & Carey, SIGMOD 1987\n\
     regenerating every evaluation artifact (see DESIGN.md experiment index)";
  table2 ();
  graph1 ();
  graph2 ();
  graph3 ();
  recovery ();
  ablation_sizes ();
  ablation_directory ();
  commit_modes ();
  group_batch_sizes ();
  ckpt_strategies ();
  multiprogramming ();
  print_endline "\nbench complete."
