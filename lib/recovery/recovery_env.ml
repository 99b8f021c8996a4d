module Sim = Mrdb_sim.Sim
module Trace = Mrdb_sim.Trace

type t = {
  sim : Sim.t;
  trace : Trace.t;
  ckpt_disk : unit -> Mrdb_hw.Disk.t;
  archiver : Mrdb_archive.Archive.t option;
  partition_bytes : int;
  obs : Mrdb_obs.Obs.t;
}

let create ~sim ~trace ~ckpt_disk ~archiver ~partition_bytes ~obs =
  { sim; trace; ckpt_disk; archiver; partition_bytes; obs }

let recorder env = Mrdb_obs.Obs.recorder env.obs

let pump_until env cond =
  while (not (cond ())) && Sim.step env.sim do () done;
  if not (cond ()) then
    Mrdb_util.Fatal.invariant ~mod_:"Recovery_env"
      "simulation deadlock (condition never satisfied)"
