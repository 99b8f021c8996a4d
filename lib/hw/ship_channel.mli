(** Simulated log-shipping link between a primary and its warm standby.

    A one-way, FIFO, lossy-under-fault message channel on the simulated
    clock: each frame sent is delivered to the attached receiver after the
    propagation delay, in order.  The channel carries opaque bytes — the
    frame format (CRC envelope, batch payloads, handshakes) belongs to
    {!Mrdb_replica.Ship_log}, keeping this device as dumb as the disks.

    Fault surface (lint rule R9 restricts the setters to lib/fault and
    tests): a partitioned link adds latency ({!set_extra_delay}) or
    discards frames outright ({!set_drop}).  Dropped frames are never
    delivered — the shipping protocol's cursor/ack resend is
    what recovers, exactly like a real replication stream over a flaky
    network. *)

type t

val create : ?name:string -> ?delay_us:float -> Mrdb_sim.Sim.t -> t
(** A healthy link with the given one-way propagation delay (default
    500 µs).  The channel schedules deliveries on [sim] — for a
    replicated pair that is the {e primary's} clock, the clock that also
    drives shipping. *)

val name : t -> string

val attach : t -> (bytes -> unit) -> unit
(** Install the receiver.  A frame arriving while no receiver is attached
    (standby down) is dropped — the wire does not buffer for a
    dead node. *)

val detach : t -> unit

val send : t -> bytes -> unit
(** Ship one frame (copied at send time): delivered to the receiver after
    the current delay, FIFO, or dropped when the link is dropping. *)

(** {2 Link faults (lib/fault and tests only — enforced by lint R9)} *)

val set_extra_delay : t -> float -> unit
(** Add latency on top of the base propagation delay (0 restores). *)

val set_drop : t -> bool -> unit
(** Discard every subsequently sent frame until cleared. *)

val dropping : t -> bool
