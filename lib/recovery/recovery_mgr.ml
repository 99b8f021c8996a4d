module Cpu = Mrdb_sim.Cpu
module Slb = Mrdb_wal.Slb
module Slt = Mrdb_wal.Slt

type components = {
  sorter : Log_sorter.t;
  restorer : Restorer.t;
  ckpt : Ckpt_mgr.t;
}

type t = {
  cpu : Cpu.t;
  mutable comps : components option;
}

let create ~sim ~mips = { cpu = Cpu.create ~name:"recovery" sim ~mips; comps = None }

let cpu t = t.cpu

let attach t ~env ~deps ~log_disk ~slb ~slt ~cat ~seq ~segments ~lock_mgr ~disk_map
    ~ckpt_q =
  let sorter = Log_sorter.create ~env ~cpu:t.cpu ~log_disk ~slb ~slt in
  let restorer = Restorer.create ~env ~slt ~cat ~seq ~segments in
  let ckpt =
    Ckpt_mgr.create ~env ~deps ~restorer ~cat ~slt ~lock_mgr ~seq ~disk_map ~ckpt_q
  in
  t.comps <- Some { sorter; restorer; ckpt }

let detach t = t.comps <- None

let comps t =
  match t.comps with
  | Some c -> c
  | None -> Mrdb_util.Fatal.invariant ~mod_:"Recovery_mgr" "recovery component offline (crashed)"

let sorter t = (comps t).sorter
let restorer t = (comps t).restorer
let ckpt_mgr t = (comps t).ckpt

let restart ~env ~layout ~log_disk ~n_update ~age_grace_pages ~ckpt_q =
  let trace = env.Recovery_env.trace in
  let recorder = Recovery_env.recorder env in
  let timeline = Mrdb_obs.Obs.timeline env.Recovery_env.obs in
  (* Phase accounting: each restart step's simulated duration lands in the
     recovery {!Mrdb_obs.Timeline} (the on-demand and sweep phases accrue
     later, restore by restore). *)
  let timed phase f =
    let t0 = Mrdb_sim.Sim.now env.Recovery_env.sim in
    Mrdb_obs.Flight_recorder.phase recorder (Mrdb_obs.Timeline.phase_name phase);
    let r = f () in
    Mrdb_obs.Timeline.add timeline phase
      ~dur_us:(Mrdb_sim.Sim.now env.Recovery_env.sim -. t0);
    r
  in
  Mrdb_obs.Timeline.reset timeline ~now_us:(Mrdb_sim.Sim.now env.Recovery_env.sim);
  let slb, slt =
    timed Mrdb_obs.Timeline.Slt_scan (fun () ->
        let slb = Slb.recover layout in
        let slt =
          Slt.recover ~layout ~log_disk ~n_update ?age_grace_pages
            ~on_checkpoint_request:
              (Ckpt_mgr.on_checkpoint_request ~trace ~ckpt_q:(fun () -> ckpt_q)
                 ~recorder)
            ()
        in
        Slb.set_recorder slb (Some recorder);
        Slt.set_recorder slt (Some recorder);
        (* Sort any committed-but-undrained records into bins. *)
        Log_sorter.sort_backlog ~slb ~slt;
        (slb, slt))
  in
  (* Bootstrap the catalogs from the well-known area. *)
  let entries =
    timed Mrdb_obs.Timeline.Wellknown_bootstrap (fun () ->
        match Wellknown.load layout with Some e -> e | None -> [])
  in
  let cat_segment, catalog_seq =
    timed Mrdb_obs.Timeline.Catalog_restore (fun () ->
        Restorer.restore_catalog env ~slt ~entries)
  in
  (slb, slt, cat_segment, catalog_seq)

let finish_restart ~slt ~cat ~disk_map =
  Ckpt_mgr.rebuild_disk_map ~disk_map ~cat;
  Restorer.drop_uncatalogued_bins ~slt ~cat
