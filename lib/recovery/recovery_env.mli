(** Host capabilities shared by the recovery component's modules.

    The recovery component ({!Log_sorter}, {!Restorer}, {!Ckpt_mgr}) runs
    against hardware owned by the enclosing database instance: the
    simulated clock, the trace sink, the checkpoint disk (replaceable on
    media failure, hence a getter), and the optional archive tape.  This
    record is the narrow waist through which those are reached — the
    modules never see the database facade itself. *)

type t = {
  sim : Mrdb_sim.Sim.t;
  trace : Mrdb_sim.Trace.t;
  ckpt_disk : unit -> Mrdb_hw.Disk.t;
      (** Current checkpoint disk; re-read on every access because media
          failure swaps in a blank replacement drive. *)
  archiver : Mrdb_archive.Archive.t option;
  partition_bytes : int;
  obs : Mrdb_obs.Obs.t;
      (** Observability bundle (metrics registry, flight recorder, recovery
          timeline). *)
}

val create :
  sim:Mrdb_sim.Sim.t ->
  trace:Mrdb_sim.Trace.t ->
  ckpt_disk:(unit -> Mrdb_hw.Disk.t) ->
  archiver:Mrdb_archive.Archive.t option ->
  partition_bytes:int ->
  obs:Mrdb_obs.Obs.t ->
  t

val recorder : t -> Mrdb_obs.Flight_recorder.t
(** The flight recorder from [obs]. *)

val pump_until : t -> (unit -> bool) -> unit
(** Advance the simulated clock until [cond ()] holds.
    @raise Failure on simulation deadlock (event queue empty first). *)
