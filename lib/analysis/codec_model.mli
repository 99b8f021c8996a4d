(** REDO codec tradeoff model.

    Extends the §3.2 logging-capacity analysis to the logical/command
    codec: command records shrink the average log record (raising the
    byte-limited logging capacity and cutting replay I/O) but replay a
    record by re-executing the operation instead of copying an image
    (costing more recovery-CPU instructions per record).  The codec is a
    per-database choice ([Config.redo_codec]); this model is what a user
    reads to make it: {!bytes_ratio} and {!crossover_hotness} price the
    log-volume win for a workload's update mix, {!replay_rate_ratio} the
    replay-time cost.  EXPERIMENTS.md compares these predictions against
    the measured bench/hotpath.ml codec sweep. *)

type codec_params = {
  s_physical : int;  (** average physical record size, header + image *)
  s_cmd_update : int;  (** single-cell delta command, on the wire *)
  s_cmd_insert : int;  (** whole-tuple insert command, on the wire *)
  i_cmd_apply : int;
      (** instructions to decode and apply one command (zigzag decode,
          offset computation, read-modify-write of a cell) *)
}

val default : codec_params
(** Values measured on the debit_credit codec sweep (BENCH.json). *)

val bytes_ratio : codec_params -> hotness:float -> float
(** Physical bytes over command bytes at the given mix — the model's
    prediction of the sweep's log_bytes_per_txn ratio. *)

val crossover_hotness : codec_params -> margin:float -> float option
(** Least update fraction where the byte ratio clears [margin]:
    [Some 0.] when any mix clears it, [None] when none does.
    @raise Invalid_argument when [margin <= 0]. *)

val replay_rate_ratio : Params.t -> codec_params -> cmd_share:float -> float
(** Predicted replay records/sec relative to an all-physical stream when
    [cmd_share] of the records are commands ([< 1.0] when command apply
    costs more than the image copy it replaces). *)

val logging_capacity_gain : Params.t -> codec_params -> hotness:float -> float
(** Sustainable record rate under the command codec relative to physical,
    from the §3.2 byte-throughput model at the mixed record size. *)

val crossover_table :
  tuple_bytes:int list ->
  hotness_steps:float list ->
  codec_params ->
  (int * float list * float option) list
(** Rows (physical record size, byte ratio per hotness step, 2x-margin
    crossover hotness) — the EXPERIMENTS.md codec crossover table. *)
