(** Topology builders.

    The paper's evaluation runs on a dumbbell: senders share one bottleneck
    link toward the receivers, and acknowledgments return on an uncongested
    reverse path. Propagation delay is split evenly between the two
    directions so the base (unloaded) RTT is [base_rtt]. *)

open Ccp_util
open Ccp_eventsim

module Dumbbell : sig
  type t

  val create :
    sim:Sim.t ->
    rate_bps:float ->
    base_rtt:Time_ns.t ->
    buffer_bytes:int ->
    ?ecn_threshold_bytes:int ->
    ?jitter:Ccp_util.Time_ns.t ->
    ?rate_schedule:(Ccp_util.Time_ns.t * float) list ->
    unit ->
    t
  (** Bottleneck with a drop-tail buffer of [buffer_bytes]. The reverse
      path runs at 10x the forward rate with a deep buffer so ACKs never
      queue. [jitter] and [rate_schedule] apply to the forward
      (bottleneck) link, see {!Link.create}. *)

  val forward : t -> Link.t
  val reverse : t -> Link.t

  val bdp_bytes : t -> int
  (** Bandwidth-delay product of the forward path, in bytes. *)

  val register :
    t -> flow:Packet.flow_id -> data_sink:(Packet.t -> unit) -> ack_sink:(Packet.t -> unit) -> unit
  (** Attach a flow: data packets arriving at the right-hand side go to
      [data_sink] (the flow's receiver); ACKs arriving back on the left go
      to [ack_sink] (the flow's sender). Flow ids index an array, so
      they must be non-negative and should be small; packets of an
      unattached flow are dropped on arrival. *)

  val send_data : t -> Packet.t -> unit
  (** Sender-side entry onto the forward link. *)

  val send_ack : t -> Packet.t -> unit
  (** Receiver-side entry onto the reverse link. *)
end
