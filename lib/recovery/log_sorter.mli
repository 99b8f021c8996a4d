(** The sorting half of the recovery component (§2.3.1).

    The main CPU only appends to the SLB; this module is the recovery
    CPU's side of the bargain: drain committed records out of the SLB,
    sort them into the SLT's partition bins (sealing and writing full log
    pages), and charge the Table 2 instruction costs against the recovery
    CPU so the sort shows up in simulated throughput, never in commit
    latency. *)

type t

val create :
  env:Recovery_env.t ->
  cpu:Mrdb_sim.Cpu.t ->
  log_disk:Mrdb_wal.Log_disk.t ->
  slb:Mrdb_wal.Slb.t ->
  slt:Mrdb_wal.Slt.t ->
  t
(** [cpu] is the recovery CPU; all sorting work is charged to it. *)

val slt : t -> Mrdb_wal.Slt.t
val slb : t -> Mrdb_wal.Slb.t

val drain : t -> unit
(** Sort every committed-and-unsorted SLB record into its partition bin
    and charge the recovery CPU for records moved, bytes copied and pages
    written.  Record frames are streamed straight off the SLB chains
    into the bins ({!Mrdb_wal.Slb.drain_raw}, {!Mrdb_wal.Slt.accept_raw})
    — nothing is decoded and no per-transaction lists are built.  Bumps
    the [sorter_drain_calls] trace counter and adds the records and bytes
    moved to [sorter_records_streamed] / [sorter_bytes_streamed]. *)

val sort_backlog : slb:Mrdb_wal.Slb.t -> slt:Mrdb_wal.Slt.t -> unit
(** Restart-time variant: sort records that were committed but undrained
    at the crash.  No instruction cost is charged — at restart the
    recovery CPU has nothing else to do and the cost is part of the
    (separately measured) recovery latency. *)

val force_log : t -> unit
(** Conventional-WAL commit support: seal every partition's partial page
    and pump the clock until all page writes are durable. *)
