(** Low-level binary encoding primitives for the CCP wire format.

    Integers use LEB128 varints (small values — flow ids, field counts —
    dominate the traffic), except hash-like {!Writer.word}s, which are 8
    bytes little-endian; floats are IEEE-754 bits, little-endian; strings
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

  val word : t -> int -> unit
  (** A non-negative integer as 8 little-endian bytes: fixed width, for
      values such as hashes that use all their bits, where a varint
      would take 9 bytes. Raises [Invalid_argument] on negatives. *)

  val float_at : t -> float array -> int -> unit
  (** [float_at w a i] is [float w a.(i)] without boxing the element. *)

  val string : t -> string -> unit

  val raw : t -> string -> unit
  (** The bytes themselves, without a length prefix: for splicing in an
      encoding made earlier. *)

  val append : t -> t -> unit
  (** [append t u] adds [u]'s bytes to [t], without a length prefix and
      without making a string of them. *)

  val contents : t -> string
  val length : t -> int

  val concat : t -> t -> string
  (** [concat a b] is [contents a ^ contents b], copying each writer's
      bytes once: a header written after the body it frames. *)
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

  val word : t -> int
  (** Inverse of {!Writer.word}. Raises {!Malformed} when the bytes hold
      no non-negative [int]. Allocation-free. *)

  val float_into : t -> float array -> int -> unit
  (** [float_into r a i] is [a.(i) <- float r] without boxing the value. *)

  val string : t -> string

  val skip_bytes : t -> string -> bool
  (** If the next bytes are exactly [s], consume them and return [true];
      otherwise consume nothing. Allocation-free. *)

  val push_limit : t -> int -> int
  (** [push_limit r n] bounds [r] to its next [n] bytes: reads past them
      raise {!Truncated}, and {!at_end} and {!remaining} count to them.
      Returns the bound it replaced, for {!pop_limit}. Raises
      {!Truncated} if fewer than [n] bytes remain. This is how a decoder
      reads a length-prefixed entry in place, without copying it out. *)

  val pop_limit : t -> int -> unit
  (** Restore the bound {!push_limit} returned. *)

  val at_end : t -> bool
  val remaining : t -> int
end
