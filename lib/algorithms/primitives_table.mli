(** Table 1 of the paper, as data: the measurement and control primitives
    used by classic and modern congestion control algorithms. The bench
    harness renders this table; tests cross-check that every algorithm
    implemented in this repository only uses primitives its row declares. *)

type measurement =
  | Acks
  | Rtt
  | Packet_headers
  | Loss
  | Ecn
  | Sending_rate
  | Receiving_rate

type control =
  | Cwnd_knob
  | Rate_knob
  | Rate_pulses
  | Cwnd_cap
  | Header_writes

type row = {
  protocol : string;
  citation : string;
  measurements : measurement list;
  controls : control list;
  implemented : [ `Native | `Ccp | `Both | `Not_implemented ];
      (** what this repository provides for the protocol *)
}

val rows : row list
(** The eleven rows of Table 1, in the paper's order. *)

val render : unit -> string
(** The table as aligned text, one protocol per line. *)

val implemented_count : unit -> int
