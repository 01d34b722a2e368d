(** Queue disciplines for link egress buffers.

    Two disciplines cover the paper's experiments and the datacenter
    extension: byte-bounded drop-tail (with an optional ECN marking
    threshold, as DCTCP assumes), and RED for the ablation studies. *)

type t

type config =
  | Droptail of { capacity_bytes : int; ecn_threshold_bytes : int option }
      (** Drop arrivals once [capacity_bytes] are queued; if a threshold is
          given, mark ECN-capable packets when the instantaneous queue
          exceeds it. *)
  | Red of {
      capacity_bytes : int;
      min_threshold_bytes : int;
      max_threshold_bytes : int;
      max_mark_probability : float;
      ecn : bool;  (** mark instead of dropping when the packet allows it *)
    }

type verdict = Enqueued | Dropped

val create : config -> rng:Ccp_util.Rng.t -> t

val enqueue : t -> Packet.t -> verdict
(** May set the packet's [ecn_marked] flag as a side effect. *)

val dequeue : t -> Packet.t
(** The oldest queued packet. Raises [Invalid_argument] on an empty
    queue; check {!backlog_packets} first. *)

val backlog_bytes : t -> int
val backlog_packets : t -> int

(** {1 Counters} *)

val enqueued_packets : t -> int
val dropped_packets : t -> int
val marked_packets : t -> int
