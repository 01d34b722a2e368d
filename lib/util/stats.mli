(** Statistics containers used throughout the reproduction.

    Running summaries, exact percentiles over collected samples, CDF
    extraction (Figure 2), exponentially weighted moving averages (the
    prototype datapath's EWMA-filtered rates, §3), and windowed min/max
    trackers (BBR's min-RTT / max-bandwidth filters). *)

(** {1 Running summary} *)

module Summary : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val variance : t -> float
  val min : t -> float
  val max : t -> float
  val sum : t -> float
end

(** {1 Sample sets with exact percentiles} *)

module Samples : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit

  val append : t -> from:t -> unit
  (** Add every sample of [from], in the order [from] holds them. *)

  val count : t -> int

  val percentile : t -> float -> float
  (** [percentile t p] for [p] in \[0,100\]; linear interpolation between
      order statistics. Raises [Invalid_argument] on an empty set. The
      first call after an [add] sorts the samples in place, with the
      permutation [Array.sort Float.compare] would give and without
      allocating; later calls only read. *)

  val median : t -> float
  val mean : t -> float

  val cdf : t -> points:int -> (float * float) list
  (** [cdf t ~points] returns [(value, cumulative_fraction)] pairs at
      [points] evenly spaced fractions, suitable for plotting a CDF. *)

  val to_array : t -> float array
  (** Sorted copy of the samples: bitwise what [Array.sort Float.compare]
      makes of them, NaNs first. *)
end

(** {1 EWMA} *)

module Ewma : sig
  type t

  val create : alpha:float -> t
  (** [alpha] is the weight of each new observation, in (0, 1]. *)

  val add : t -> float -> unit
  val value : t -> float
  (** Current estimate; 0.0 before the first observation. *)

  val value_opt : t -> float option
end

(** {1 Windowed extrema} *)

module Windowed_min : sig
  type t

  val create : window:Time_ns.t -> t
  val add : t -> now:Time_ns.t -> float -> unit
  val get : t -> now:Time_ns.t -> float option
  (** Minimum over samples younger than [window]; [None] if all expired. *)
end

module Windowed_max : sig
  type t

  val create : window:Time_ns.t -> t
  val add : t -> now:Time_ns.t -> float -> unit
  val get : t -> now:Time_ns.t -> float option
end

(** {1 Misc} *)

val jain_fairness : float array -> float
(** Jain's fairness index: [(Σx)² / (n·Σx²)]; 1.0 is perfectly fair.
    Returns 1.0 for an empty array. *)
