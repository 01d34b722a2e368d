(** Packets exchanged by simulated hosts.

    A packet is either a data segment or a (cumulative) acknowledgment.
    Sequence numbers count bytes, as in TCP. The ACK carries an echo of the
    triggering segment's send timestamp — the TCP timestamp-option trick —
    so the sender can take exact per-packet RTT samples even under
    cumulative acknowledgment, and an ECN echo for DCTCP-style marking
    feedback. *)

open Ccp_util

type flow_id = int

type data = {
  seq : int;  (** first byte carried *)
  len : int;  (** payload bytes *)
  sent_at : Time_ns.t;
  is_retransmit : bool;
}

type ack = {
  cum_ack : int;  (** next byte expected by the receiver *)
  echo_sent_at : Time_ns.t;  (** timestamp echo of the segment that triggered this ACK *)
  ecn_echo : bool;  (** the triggering segment carried an ECN mark *)
  acked_segments : int;  (** segments coalesced into this ACK (GRO aggregation) *)
  recv_bytes : int;  (** receiver's cumulative in-order byte count *)
  newly_sacked : (int * int) list;
      (** SACK information as incremental \[start, stop) byte ranges newly
          buffered out-of-order by this ACK's trigger segment(s). Carrying
          only the delta (rather than RFC 2018's rotating three blocks)
          keeps sender-side scoreboard updates O(1) per ACK; it is safe
          here because the simulated reverse path never drops ACKs. *)
}

type payload = Data of data | Ack of ack

type t = {
  flow : flow_id;
  wire_size : int;  (** bytes on the wire, headers included *)
  ecn_capable : bool;
  mutable ecn_marked : bool;  (** set by queues when marking instead of dropping *)
  payload : payload;
}

val header_bytes : int
(** Fixed per-packet header overhead we charge (IP + TCP, 40 bytes). *)

val ack_wire_size : int

val data :
  flow:flow_id -> seq:int -> len:int -> sent_at:Time_ns.t -> is_retransmit:bool ->
  ecn_capable:bool -> t
(** Every argument is required, so a sender building one segment per
    transmission allocates no option for it. *)

val ack : flow:flow_id -> cum_ack:int -> echo_sent_at:Time_ns.t -> ecn_echo:bool ->
  ?acked_segments:int -> ?newly_sacked:(int * int) list -> recv_bytes:int -> unit -> t

val placeholder : t
(** A packet that is never sent. It fills the vacant slots of queue
    rings and delay lines, so they keep no departed packet reachable. *)

val is_data : t -> bool
val is_ack : t -> bool

val seq_end : data -> int
(** [seq_end d] is [d.seq + d.len], the byte after the segment. *)

val pp : Format.formatter -> t -> unit
