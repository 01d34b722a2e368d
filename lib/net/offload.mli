(** Host CPU and NIC-offload model (Figure 5 substrate).

    The paper's Figure 5 measures throughput on a 10 Gbit/s link with NIC
    offloads (TSO/GSO on the sender, GRO on the receiver) enabled and
    disabled; with offloads off the CPU, not the NIC, bounds throughput.
    We reproduce the mechanism rather than the hardware: each direction of
    a host's stack is a serial CPU server with a fixed per-operation cost
    plus a small per-segment cost, and offloads change how many segments
    one operation covers. A send operation costs 2.1 us plus 0.15 us per
    MTU segment, a receive operation 2.6 us plus 0.2 us per segment.

    - Sender with TSO: segments submitted while the CPU is busy coalesce
      into super-segments of up to 64 KiB; one CPU operation per
      super-segment. Without TSO: one operation per MTU segment.
    - Receiver with GRO: segments of the same flow that queue up while the
      CPU is busy are processed (and acknowledged) as one batch of up to
      44 segments; larger arrival bursts therefore cost fewer
      operations per packet, which is exactly the effect the paper credits
      for CCP's higher throughput when sender TSO is off. Without GRO: one
      operation per segment.

    Both paths report accumulated busy time so experiments can report CPU
    utilization. *)

open Ccp_util
open Ccp_eventsim

(** {1 Sender path} *)

module Sender_path : sig
  type config = {
    tso : bool;
    ack_cost : Time_ns.t;
        (** CPU cost of processing one incoming ACK — reception plus the
            per-ACK congestion-control work. The paper's §2.3 point that
            batching "returns saved CPU cycles" shows up here: a native
            controller runs its full update on every ACK while the CCP
            datapath only executes a fold step. *)
  }

  val default_config : config
  (** TSO on, 450 ns per ACK. The costs are calibrated so a 10 Gbit/s
      stream is comfortably CPU-feasible with TSO and CPU-bound without
      it. *)

  type t

  val create :
    sim:Sim.t -> config:config -> out:(Packet.t -> unit) ->
    ?ack_out:(Packet.t -> unit) -> unit -> t

  val send : t -> Packet.t -> unit
  (** Submit a segment to the stack; it reaches [out] once the CPU has
      processed its (super-)segment. Order is preserved. *)

  val receive_ack : t -> Packet.t -> unit
  (** Charge the host CPU for an incoming ACK, then deliver it to
      [ack_out]. Segments and ACKs share the same serial CPU. *)

  val busy_time : t -> Time_ns.t
  val operations : t -> int
  val segments : t -> int
  val acks_processed : t -> int
end

(** {1 Receiver path} *)

module Receiver_path : sig
  type config = { gro : bool }

  type t

  val create : sim:Sim.t -> config:config -> deliver:(Packet.t list -> unit) -> t
  (** [deliver] receives each processed batch; with GRO a batch may hold
      several same-flow segments, without GRO it holds exactly one. *)

  val receive : t -> Packet.t -> unit

  val busy_time : t -> Time_ns.t
  val operations : t -> int
  val segments : t -> int

  val mean_batch : t -> float
  (** Average coalesced batch size (the GRO efficiency measure). *)
end
