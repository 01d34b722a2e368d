(** A unidirectional store-and-forward link.

    A link serializes packets at its current rate, buffers them in a
    {!Queue_disc.t} while the transmitter is busy, and delivers each packet
    to the receiver callback one propagation delay after its last bit is
    transmitted. This is the standard fluid link model used by ns-style
    simulators and is what Figures 3–5 exercise.

    Two optional behaviours extend the basic model:

    - [jitter]: each packet's propagation delay is stretched by an
      independent uniform draw in \[0, jitter\]. Jitter larger than a
      packet's serialization time reorders packets, which exercises the
      receiver's out-of-order buffering and the sender's SACK scoreboard.
    - [rate_schedule]: a piecewise-constant capacity profile — (time,
      bits/s) steps, as on a cellular link. The rate in force when a
      packet starts transmitting determines its serialization time.

    A link allocates nothing per packet once its rings have grown. The
    packet being serialized sits in one field under one timer, re-armed
    with {!Ccp_eventsim.Sim.reschedule} for each packet. The packets in
    propagation sit in one {!Ccp_eventsim.Sim.line}, in arrival order,
    so the simulator's heap holds one entry for all of them. Each
    arrival keeps the key a scheduled event would have had, which keeps
    runs byte-identical to scheduling one closure per packet; under
    jitter a packet that overtakes others is inserted in arrival
    order. *)

open Ccp_util
open Ccp_eventsim

type t

val create :
  sim:Sim.t ->
  rate_bps:float ->
  delay:Time_ns.t ->
  qdisc:Queue_disc.config ->
  ?name:string ->
  ?jitter:Time_ns.t ->
  ?rate_schedule:(Time_ns.t * float) list ->
  unit ->
  t
(** [rate_bps] and every [rate_schedule] rate must be positive and
    finite, and schedule times non-negative; otherwise
    [Invalid_argument]. The initial rate is [rate_bps] until the first
    step. *)

val connect : t -> (Packet.t -> unit) -> unit
(** Set the receive callback. Must be called before the first [send]. *)

val send : t -> Packet.t -> unit
(** Offer a packet to the link; it is dropped or queued per the qdisc and
    transmitted in FIFO order. *)

val rate_bps : t -> float
(** The configured base rate (not the schedule-adjusted current rate). *)

val current_rate_bps : t -> float
(** The rate in force at the simulator's current time. *)

val delay : t -> Time_ns.t
val name : t -> string
val qdisc : t -> Queue_disc.t

val delivered_bytes : t -> int
(** Total wire bytes whose transmission completed. *)

val delivered_packets : t -> int

val utilization : t -> over:Time_ns.t -> float
(** [utilization t ~over] is delivered bits divided by base-rate capacity
    over a duration, in \[0, 1\] (can slightly exceed 1 transiently due to
    a packet in flight at the horizon). *)
