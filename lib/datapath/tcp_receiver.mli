(** Receive-side transport state machine.

    Reassembles the byte stream, generates cumulative ACKs (one per
    delivered segment, or one per GRO batch when segments arrive
    coalesced), echoes the triggering segment's transmit timestamp for
    exact RTT sampling, and echoes ECN marks. Out-of-order segments are
    buffered as merged intervals so the cumulative ACK advances as soon as
    a hole fills — duplicate ACKs fall out naturally. *)

open Ccp_net

type t

val create :
  flow:Packet.flow_id ->
  send_ack:(Packet.t -> unit) ->
  ?delayed_ack_every:int ->
  unit ->
  t
(** [delayed_ack_every] n acknowledges every n-th in-order segment (1 =
    ACK every segment, the default; 2 approximates Linux's delayed ACKs —
    out-of-order arrivals and ECN marks force an immediate ACK). *)

val on_data : t -> Packet.t -> unit
(** Process one data segment, possibly emitting an ACK. Non-data packets
    are rejected with [Invalid_argument]. *)

val on_batch : t -> Packet.t list -> unit
(** Process a GRO batch: stream state is updated for every segment but at
    most one ACK is emitted, with [acked_segments] set to the batch size —
    the receive-offload behaviour Figure 5 leans on. *)

val expected_seq : t -> int
(** Next in-order byte the receiver is waiting for. *)

val delivered_bytes : t -> int
(** In-order bytes received so far (the throughput numerator). *)

val out_of_order_bytes : t -> int
