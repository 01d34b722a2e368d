(** Send-side transport state machine.

    A [Tcp_flow.t] implements reliable bulk transfer with congestion
    control delegated to a {!Congestion_iface.t}: window- and rate-based
    sending (token-bucket pacing), RTT sampling via receiver timestamp
    echoes, BBR-style delivery-rate sampling, duplicate-ACK fast
    retransmit with NewReno-style recovery (window inflation during
    recovery, retransmission on partial ACKs), and RFC 6298 retransmission
    timeouts with exponential backoff and go-back-N recovery.

    The flow is datapath-neutral glue: native controllers make their
    decisions inside [on_ack]/[on_loss]; the CCP shim forwards summaries to
    the off-datapath agent and applies its asynchronous updates through the
    same {!Congestion_iface.ctl} handle. *)

open Ccp_util
open Ccp_eventsim
open Ccp_net

type t

type config = {
  mss : int;  (** payload bytes per segment *)
  initial_cwnd_segments : int;
  ecn_capable : bool;
  min_rto : Time_ns.t;
  app_limit_bytes : int option;  (** [None] = unlimited backlog *)
}

val default_config : config
(** mss 1448 (1500-byte wire MTU minus headers), initial window 10
    segments, ECN off, min RTO 200 ms, unlimited data. *)

val create :
  sim:Sim.t ->
  flow:Packet.flow_id ->
  config:config ->
  cc:Congestion_iface.t ->
  transmit:(Packet.t -> unit) ->
  ?obs:Ccp_obs.Obs.t ->
  ?perturb:Ccp_perturb.Sampler.t ->
  unit ->
  t
(** With [obs] the flow publishes RTT/segment/retransmit/timeout/recovery
    metrics and records a [Flow_sample] trace event (cwnd, pacing rate,
    srtt, inflight, delivery rate) on ACKs, throttled to at most one per
    10 ms.

    With [perturb] the congestion controller's measurement inputs are
    perturbed per the sampler's plan: RTT samples are jittered before
    reaching the RTT estimator and the ack event, and delivery-rate
    samples pass through the sampler's error model. The observability
    metrics and the RTT listener keep the true samples. Omitted (or a
    sampler over the empty plan), measurements are untouched. *)

val start : t -> unit
(** Call the controller's [on_init] and begin transmitting. *)

val on_ack : t -> Packet.t -> unit
(** Feed an arriving ACK (the dumbbell's [ack_sink]). *)

val ctl : t -> Congestion_iface.ctl
(** The control handle (shared with the congestion controller). *)

(** {1 Observers} *)

val cwnd : t -> int
val inflight : t -> int
val snd_una : t -> int
val in_recovery : t -> bool
val srtt : t -> Time_ns.t option
val min_rtt : t -> Time_ns.t option

(** {1 Counters} *)

val segments_sent : t -> int
val retransmits : t -> int
val timeouts : t -> int
val recoveries : t -> int

val audit : t -> (unit, string) result
(** Check the SACK scoreboard's invariants: [inflight] equals the bytes
    of every outstanding segment times its copies in the network; the
    outstanding segments are contiguous up to [snd_nxt] and indexed
    exactly by sequence number; and the list of unSACKed segments that
    loss recovery walks is exactly the outstanding segments not yet
    SACKed, in sequence order. [Error] names the first violation. For
    tests; it walks the whole window. *)

(** {1 Listeners} *)

val set_cwnd_listener : t -> (Time_ns.t -> int -> unit) -> unit
(** Invoked on every congestion-window change (Figure 3's trace). *)

val set_rtt_listener : t -> (Time_ns.t -> Time_ns.t -> unit) -> unit
(** Invoked with (now, rtt sample) on every RTT measurement. *)
