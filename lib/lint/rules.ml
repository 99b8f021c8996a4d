(* The declared architecture.  This table is the single place the rules
   live; mrdb_lint enforces it against the sources.  Library layering is
   not here: dune's [libraries] fields, with [implicit_transitive_deps]
   off, reject every undeclared cross-library reference at build time. *)

(* -- library universe ------------------------------------------------------ *)

(* Directory under lib/ -> library name, mirroring the dune stanzas (a
   test checks the two agree).  The call graph behind R8 and R9 resolves
   [Mrdb_*] heads through this table, so a missing entry blinds them. *)
let libraries =
  [
    ("util", "mrdb_util");
    ("sim", "mrdb_sim");
    ("obs", "mrdb_obs");
    ("exec", "mrdb_exec");
    ("hw", "mrdb_hw");
    ("fault", "mrdb_fault");
    ("storage", "mrdb_storage");
    ("index", "mrdb_index");
    ("logical", "mrdb_logical");
    ("txn", "mrdb_txn");
    ("wal", "mrdb_wal");
    ("ckpt", "mrdb_ckpt");
    ("analysis", "mrdb_analysis");
    ("archive", "mrdb_archive");
    ("recovery", "mrdb_recovery");
    ("core", "mrdb_core");
    ("replica", "mrdb_replica");
    ("lint", "mrdb_lint");
  ]

let library_of_dir dir = List.assoc_opt dir libraries
let is_known_library name = List.exists (fun (_, l) -> l = name) libraries

(* -- R6: output discipline --------------------------------------------------- *)

(* Bare stdout printers (each with its [Stdlib]-qualified spelling).
   [Format.pp_print_string ppf] and friends take an explicit formatter and
   stay legal — only the implicit-stdout forms are banned. *)
let print_idents =
  [
    ([ "Printf"; "printf" ], "Printf.printf");
    ([ "Stdlib"; "Printf"; "printf" ], "Printf.printf");
    ([ "print_string" ], "print_string");
    ([ "Stdlib"; "print_string" ], "print_string");
    ([ "print_endline" ], "print_endline");
    ([ "Stdlib"; "print_endline" ], "print_endline");
    ([ "print_newline" ], "print_newline");
    ([ "Stdlib"; "print_newline" ], "print_newline");
  ]

let print_ident path =
  let rec find = function
    | [] -> None
    | (p, name) :: rest -> if p = path then Some name else find rest
  in
  find print_idents

(* Who may print (relative to lib/): the observability subsystem's
   renderers and the table renderer itself.  Binaries, benches and tests
   live outside lib/ and are not linted. *)
let print_allowed rel =
  (String.length rel >= 4 && String.sub rel 0 4 = "obs/") || rel = "util/texttab.ml"

(* -- R8: nondeterminism sources ---------------------------------------------- *)

type nondet = Clock | Random_src | Poly_hash | Unordered_iter

(* Classify a flattened reference as a nondeterminism source.  Matching
   scans the whole path, so [Stdlib.Hashtbl.fold], [Hashtbl.fold] and
   [Mrdb_foo.Hashtbl.fold] all hit; [Mrdb_util.Rng] (our seeded
   splitmix64) deliberately does not. *)
let nondet_ident path =
  let rec scan = function
    | "Random" :: _ -> Some (Random_src, "Random")
    | "Unix" :: (("gettimeofday" | "time" | "times") as f) :: _ ->
        Some (Clock, "Unix." ^ f)
    | "Sys" :: "time" :: _ -> Some (Clock, "Sys.time")
    | "Sim" :: "now" :: _ -> Some (Clock, "Sim.now")
    | "Hashtbl" :: (("hash" | "hash_param" | "seeded_hash") as f) :: _ ->
        Some (Poly_hash, "Hashtbl." ^ f)
    | "Hashtbl"
      :: (("iter" | "fold" | "to_seq" | "to_seq_keys" | "to_seq_values") as f)
      :: _ ->
        Some (Unordered_iter, "Hashtbl." ^ f)
    | _ :: rest -> scan rest
    | [] -> None
  in
  scan path

(* -- interprocedural configuration (R8-R11) ---------------------------------- *)

type entry_point = { e_rel : string; e_binding : string }

type allow = {
  a_rel : string;
  a_binding : string;
  a_ident : string;
  a_why : string;
}

type resource = {
  res_name : string;
  res_write_idents : (string * string) list;
      (* (module-anywhere-in-path, function) pairs *)
  res_fields : string list;  (* mutable record fields whose [<-] is a write *)
  res_owners : string list;  (* rel prefixes ("wal/") or exact files *)
}

type exn_decl = { x_rel : string; x_name : string }

type config = {
  r8_entry_points : entry_point list;
  r8_allow : allow list;
  r8_random_ok : string list;
  r9_resources : resource list;
  r10_exceptions : exn_decl list;
  r10_stdlib_exceptions : string list;
  r10_raise_ok : string list;
  r10_wildcard_allow : allow list;
}

let owner_matches owners rel =
  List.exists
    (fun o ->
      o = rel
      || (String.length o > 0
          && o.[String.length o - 1] = '/'
          && String.length rel >= String.length o
          && String.sub rel 0 (String.length o) = o))
    owners

let write_ident_call res path =
  let rec scan = function
    | m :: f :: _ when List.mem (m, f) res.res_write_idents ->
        Some (m ^ "." ^ f)
    | _ :: rest -> scan rest
    | [] -> None
  in
  scan path

let default_config =
  {
    (* R8 roots: the commit path (facade -> per-executor redo sink), the
       sorter's drain, and the recovery restart path — Db.recover too, as
       it decodes the catalog and finishes the restart after
       Recovery_mgr.restart returns.  Everything these reach must be
       replay-deterministic. *)
    r8_entry_points =
      [
        { e_rel = "core/db.ml"; e_binding = "commit" };
        { e_rel = "core/db.ml"; e_binding = "with_txn" };
        { e_rel = "core/db.ml"; e_binding = "begin_txn" };
        { e_rel = "core/db.ml"; e_binding = "recover" };
        { e_rel = "core/db_system.ml"; e_binding = "user_sink" };
        { e_rel = "core/db_system.ml"; e_binding = "system_txn" };
        { e_rel = "core/db_system.ml"; e_binding = "drain" };
        { e_rel = "recovery/recovery_mgr.ml"; e_binding = "restart" };
        { e_rel = "recovery/log_sorter.ml"; e_binding = "drain" };
        { e_rel = "recovery/log_sorter.ml"; e_binding = "sort_backlog" };
        { e_rel = "recovery/restorer.ml"; e_binding = "ensure_partition" };
        { e_rel = "recovery/restorer.ml"; e_binding = "restore_catalog" };
        { e_rel = "recovery/restorer.ml"; e_binding = "background_step" };
      ];
    (* Each entry is a justified suppression; R11 fails the build the
       moment the file, binding or identifier it cites stops existing, so
       none of these can go stale silently. *)
    r8_allow =
      [
        (* Sim.now is the discrete-event simulated clock: a pure function
           of the event schedule, not wall time.  It is classified as a
           Clock source anyway so every read on the deterministic path
           carries an explicit justification that the value feeds
           accounting or observability, never an exported ordering. *)
        {
          a_rel = "core/db.ml";
          a_binding = "observe_txn_latency";
          a_ident = "Sim.now";
          a_why = "simulated-clock latency sample; feeds obs histograms only";
        };
        {
          a_rel = "core/db.ml";
          a_binding = "commit";
          a_ident = "Sim.now";
          (* Group commit: the precommit timestamp paired with each queued
             transaction, and the flush deadline scheduled from it — both
             against the deterministic simulated clock. *)
          a_why = "group enqueue timestamp + deadline on the simulated clock";
        };
        {
          a_rel = "core/db.ml";
          a_binding = "recover";
          a_ident = "Sim.now";
          a_why = "catalog-recovery duration sample on the simulated clock; obs only";
        };
        {
          a_rel = "core/db.ml";
          a_binding = "write_waiting";
          a_ident = "Sim.now";
          a_why = "group-wait histogram sample on the simulated clock; obs only";
        };
        {
          a_rel = "hw/disk.ml";
          a_binding = "service";
          a_ident = "Sim.now";
          a_why = "device service-time accounting on the simulated clock";
        };
        {
          a_rel = "recovery/recovery_mgr.ml";
          a_binding = "restart";
          a_ident = "Sim.now";
          a_why = "recovery timeline timestamps on the simulated clock; obs only";
        };
        {
          a_rel = "recovery/restorer.ml";
          a_binding = "ensure_partition";
          a_ident = "Sim.now";
          a_why = "restore-latency measurement on the simulated clock; obs only";
        };
        (* Folds whose result is sorted on a total key before anyone sees
           it: the fold order cannot leak. *)
        {
          a_rel = "sim/trace.ml";
          a_binding = "counters";
          a_ident = "Hashtbl.fold";
          a_why = "result sorted by counter name before it is returned";
        };
        {
          a_rel = "sim/trace.ml";
          a_binding = "series";
          a_ident = "Hashtbl.fold";
          a_why = "result sorted by series name before it is returned";
        };
        {
          a_rel = "storage/catalog.ml";
          a_binding = "sorted_rels";
          a_ident = "Hashtbl.fold";
          a_why = "result sorted by rel_id, a unique key, before it is returned";
        };
        {
          a_rel = "sim/cpu.ml";
          a_binding = "enqueue";
          a_ident = "Sim.now";
          a_why = "instruction-time accounting on the simulated clock";
        };
        {
          a_rel = "sim/cpu.ml";
          a_binding = "execute";
          a_ident = "Sim.now";
          a_why = "instruction-time accounting on the simulated clock";
        };
        {
          a_rel = "txn/txn.ml";
          a_binding = "Manager.abort";
          a_ident = "Hashtbl.iter";
          (* Iterates the touched-segment set to invalidate index overlay
             caches; invalidation is idempotent and per-segment, so the
             visit order is unobservable. *)
          a_why = "overlay invalidation is idempotent; visit order unobservable";
        };
        {
          a_rel = "txn/txn.ml";
          a_binding = "Manager.active_count";
          a_ident = "Hashtbl.fold";
          (* Folds to a commutative count — the result is order-free. *)
          a_why = "commutative count; fold order cannot be observed";
        };
      ];
    r8_random_ok = [ "exec/executor.ml"; "util/rng.ml" ];
    (* R9: the shared-mutable-state registry.  Every write site must
       either live in the owning module or be reachable only through it
       (checked on the call graph, not per-file paths). *)
    r9_resources =
      [
        {
          (* The mutating half of the Stable_mem API; reads are legal
             anywhere.  Raw writes belong to the WAL components (SLB, SLT,
             partition bins, the stable layout), the recovery manager's
             well-known region, the defining module itself, and the
             standby batch-install path — the only place replication may
             write a shipped stable image. *)
          res_name =
            "stable memory (paper 2.2: protected from wild or malicious stores)";
          res_write_idents =
            List.map
              (fun f -> ("Stable_mem", f))
              [ "write"; "write_sub"; "fill"; "put_u32"; "put_i64" ];
          res_fields = [];
          res_owners =
            [ "wal/"; "recovery/wellknown.ml"; "hw/stable_mem.ml"; "replica/apply.ml" ];
        };
        {
          (* The injection half of the hardware API: arming hooks and
             fabricating failures or corruption.  Query calls
             (Disk.failed, Duplex.state) are legal anywhere.  Faults are
             simulated inputs, never production behaviour: only lib/fault
             and the defining hardware modules (Duplex fails its member
             Disk) may inject.  Tests live outside lib/ and stay free to. *)
          res_name = "device fault injection";
          res_write_idents =
            [
              ("Disk", "set_fault_hook");
              ("Disk", "corrupt_page");
              ("Disk", "fail");
              ("Duplex", "fail_primary");
              ("Duplex", "fail_mirror");
              ("Stable_mem", "set_fault_hook");
              ("Stable_mem", "corrupt");
              ("Ship_channel", "set_extra_delay");
              ("Ship_channel", "set_drop");
            ];
          res_fields = [];
          res_owners =
            [ "fault/"; "hw/disk.ml"; "hw/duplex.ml"; "hw/stable_mem.ml"; "hw/ship_channel.ml" ];
        };
        {
          res_name = "catalog descriptors";
          res_write_idents = [];
          res_fields =
            [ "indices"; "partitions"; "ckpt_page"; "ckpt_page_count"; "resident" ];
          res_owners = [ "storage/catalog.ml" ];
        };
        {
          res_name = "relation runtimes";
          res_write_idents = [];
          res_fields = [ "index_insts"; "indices_attached" ];
          res_owners = [ "core/" ];
        };
        {
          res_name = "striped SLB regions";
          res_write_idents = [ ("Region", "append") ];
          res_fields = [];
          res_owners = [ "wal/"; "core/db_system.ml" ];
        };
        {
          (* Bypassing-the-clock page installs: the replication transport
             writing received durable artifacts.  Outside the devices
             themselves, only the standby's batch-install path may call
             them — a primary must never install_page its own media. *)
          res_name = "standby durable page images";
          res_write_idents =
            [
              ("Disk", "install_page");
              ("Duplex", "install_page");
              ("Log_disk", "install_page");
            ];
          res_fields = [];
          res_owners = [ "hw/"; "wal/log_disk.ml"; "replica/apply.ml" ];
        };
        {
          (* Command application: a logical record mutates data it does
             not carry, so WHERE commands may be applied is an integrity
             boundary.  Only the codec subsystem itself and the shared
             REDO kernel in the restorer may run the dispatch table (the
             standby audit reaches it through Restorer.replay). *)
          res_name = "replay dispatch table";
          res_write_idents = [ ("Replay", "apply_cmd"); ("Dispatch", "register") ];
          res_fields = [];
          res_owners = [ "logical/"; "recovery/restorer.ml" ];
        };
        {
          res_name = "lock-manager shards";
          res_write_idents =
            [
              ("Lock_mgr", "acquire");
              ("Lock_mgr", "release");
              ("Lock_mgr", "release_all");
            ];
          res_fields = [];
          res_owners = [ "txn/"; "core/" ];
        };
      ];
    (* R10: the sanctioned structured exceptions.  A [raise] under lib/
       must construct one of these (or re-raise); R11 checks each entry
       still names a declared exception. *)
    r10_exceptions =
      [
        { x_rel = "util/fatal.ml"; x_name = "Invariant" };
        { x_rel = "wal/slb.ml"; x_name = "Slb_full" };
        { x_rel = "wal/slb.ml"; x_name = "Record_too_large" };
        { x_rel = "wal/partition_bin.ml"; x_name = "Pool_exhausted" };
        { x_rel = "wal/slt.ml"; x_name = "Bin_table_full" };
        { x_rel = "storage/partition.ml"; x_name = "No_space" };
        { x_rel = "storage/relation.ml"; x_name = "Tuple_too_large" };
        { x_rel = "txn/undo_space.ml"; x_name = "Out_of_undo_space" };
        { x_rel = "hw/duplex.ml"; x_name = "Both_mirrors_failed" };
        { x_rel = "hw/volatile.ml"; x_name = "Lost" };
        { x_rel = "core/db_state.ml"; x_name = "Aborted" };
        { x_rel = "core/db_state.ml"; x_name = "Crashed" };
        { x_rel = "core/db_state.ml"; x_name = "Unknown_relation" };
        { x_rel = "core/db_state.ml"; x_name = "Unknown_index" };
      ];
    r10_stdlib_exceptions = [ "Not_found"; "Exit" ];
    (* fatal.ml is the one module allowed to raise outside the registry,
       bare partial functions included: it implements the escape hatch
       itself (Invalid_argument for misuse). *)
    r10_raise_ok = [ "util/fatal.ml" ];
    r10_wildcard_allow =
      [
        {
          a_rel = "core/sim_exec.ml";
          a_binding = "run";
          a_ident = "_";
          (* Best-effort abort while propagating a programming error: the
             original exception is re-raised on the next line, so nothing
             is swallowed. *)
          a_why = "best-effort abort during exception propagation; original re-raised";
        };
        {
          a_rel = "recovery/wellknown.ml";
          a_binding = "load";
          a_ident = "_";
          (* Decoding a possibly-rotted well-known copy: any decode
             failure means fall through to the redundant second copy —
             exactly the point of keeping two CRC'd copies. *)
          a_why = "rotted-copy decode failure falls to the redundant copy";
        };
      ];
  }
