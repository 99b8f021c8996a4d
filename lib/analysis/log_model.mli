(** Logging-capacity model (§3.2, Graphs 1 and 2).

    "During normal processing the recovery CPU spends most of its time
    moving log records from the Stable Log Buffer into partition bins in
    the Stable Log Tail, a smaller portion initiating disk write requests
    for full pages, and an even smaller portion notifying the main CPU of
    partitions that must be checkpointed."

    The record-sorting cost charges the byte copy against {e stable} memory
    on both the read (SLB) and write (SLT) side at the configured slowdown,
    which reproduces the paper's ≈4,000 debit/credit transactions per
    second headline at the Table 2 point. *)

val i_record_sort : Params.t -> float
(** Instructions to move one record from the SLB to its bin. *)

val i_page_write : Params.t -> float
(** Instructions per bin-page flush, including the amortized checkpoint
    signalling (one signal per [n_update] records). *)

val bytes_logged_per_s : Params.t -> float
(** R_bytes_logged = P_recovery / instructions-per-byte. *)

val records_logged_per_s : Params.t -> float
(** Graph 1's y-axis. *)

val txn_rate : Params.t -> records_per_txn:int -> float
(** Graph 2's y-axis: maximum transactions/second the logging component
    sustains when each transaction writes [records_per_txn] records. *)

val graph1 :
  record_sizes:int list -> page_sizes:int list -> Params.t ->
  (float * float list) list
(** Rows (record size, capacity per page-size series) — Graph 1's data. *)

val graph2 :
  records_per_txn:int list -> record_sizes:int list -> Params.t ->
  (float * float list) list
(** Rows (records/txn, txn rate per record-size series) — Graph 2's data. *)
