(** Low-level binary encoding primitives for the CCP wire format.

    Integers use LEB128 varints (small values — flow ids, field counts —
    dominate the traffic); floats are IEEE-754 bits, little-endian; strings
    are length-prefixed UTF-8. *)

module Writer : sig
  type t

  val create : unit -> t

  val reset : t -> unit
  (** Empty the writer, keeping its internal buffer for reuse — the
      encode path recycles one scratch writer instead of allocating a
      fresh buffer per message. *)

  val byte : t -> int -> unit
  val varint : t -> int -> unit
  (** Non-negative integers only; raises [Invalid_argument] on negatives. *)

  val zigzag : t -> int -> unit
  (** Signed integers via zigzag + varint. *)

  val float : t -> float -> unit

  val float_at : t -> float array -> int -> unit
  (** [float_at w a i] is [float w a.(i)] without boxing the element. *)

  val string : t -> string -> unit

  val raw : t -> string -> unit
  (** The bytes themselves, without a length prefix: for splicing in an
      encoding made earlier. *)

  val contents : t -> string
  val length : t -> int
end

module Reader : sig
  type t

  exception Truncated
  exception Malformed of string

  val of_string : string -> t
  val byte : t -> int
  val varint : t -> int
  val zigzag : t -> int
  val float : t -> float

  val float_into : t -> float array -> int -> unit
  (** [float_into r a i] is [a.(i) <- float r] without boxing the value. *)

  val string : t -> string

  val skip_bytes : t -> string -> bool
  (** If the next bytes are exactly [s], consume them and return [true];
      otherwise consume nothing. Allocation-free. *)

  val skip_string : t -> string -> bool
  (** If the next bytes are exactly [s] as {!Writer.string} encodes it
      (canonical length prefix, then the bytes), consume them and return
      [true]; otherwise consume nothing. Allocation-free, so a decoder
      can match a string it already holds instead of copying it out. *)

  val at_end : t -> bool
  val remaining : t -> int
end
