type t = {
  sim : Mrdb_sim.Sim.t;
  name : string;
  base_delay_us : float;
  mutable extra_delay_us : float;
  mutable dropping : bool;
  mutable deliver : (bytes -> unit) option;
  mutable last_arrival_us : float;
}

let create ?(name = "ship") ?(delay_us = 500.0) sim =
  if delay_us < 0.0 then Mrdb_util.Fatal.misuse "Ship_channel.create: delay_us";
  {
    sim;
    name;
    base_delay_us = delay_us;
    extra_delay_us = 0.0;
    dropping = false;
    deliver = None;
    last_arrival_us = 0.0;
  }

let name t = t.name

let attach t f = t.deliver <- Some f
let detach t = t.deliver <- None

let send t frame =
  if not t.dropping then begin
    (* The receiver may not run until the propagation delay has elapsed,
       and frames never overtake each other: each arrival is clamped to
       the previous one (FIFO even when the delay shrinks mid-flight). *)
    let arrival =
      Float.max
        (Mrdb_sim.Sim.now t.sim +. t.base_delay_us +. t.extra_delay_us)
        t.last_arrival_us
    in
    t.last_arrival_us <- arrival;
    let data = Bytes.copy frame in
    Mrdb_sim.Sim.schedule_at t.sim arrival (fun () ->
        match t.deliver with None -> () | Some f -> f data)
  end

let set_extra_delay t us =
  if us < 0.0 then Mrdb_util.Fatal.misuse "Ship_channel.set_extra_delay";
  t.extra_delay_us <- us

let set_drop t b = t.dropping <- b

let dropping t = t.dropping
