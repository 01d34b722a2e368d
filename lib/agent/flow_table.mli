(** Generation-checked slot pool for per-flow agent state.

    The {!Ccp_obs.Tracer} pool idiom, generalized: values live in a slot
    array, and every registration mints a token that folds the slot's
    generation counter in with its index. Lookups through a token
    re-check the generation, so a reference that outlives its flow (a
    closure captured by an algorithm, a timer firing after teardown) is
    detected and counted — never resolved to whichever flow reused the
    slot. Register/release touches only the slot arrays plus one
    flow-id index entry.

    Capacity is either fixed or growing. A table created with
    [~capacity] keeps that many slots (rounded up to a power of two), and
    exhaustion is a structured [Error `Pool_exhausted] the caller turns
    into an explicit rejection, not an exception mid-dispatch. A table
    created without it starts at 16 slots and doubles whenever a
    registration finds it full, so it never refuses. A token's slot
    field has a fixed width, so tokens minted before a growth stay valid
    after it. *)

type 'a t

type token = int
(** Slot index | (generation << 30). Only meaningful to the pool that
    minted it. *)

val no_token : token
(** Sentinel (-1): never live, and {!get} on it counts nothing. *)

(** A view of the table's ledger. [stale_refs] and [rejected] read the
    [agent.pool.stale_derefs] and [agent.registrations_rejected]
    counters, bumped where the generation check fails and where a
    registration is refused ({!Ccp_obs.Obs.counter}). *)
type stats = {
  capacity : int;  (** current slot count (power of two) *)
  live : int;  (** currently registered flows *)
  registered : int;  (** lifetime successful registrations *)
  released : int;  (** lifetime releases (incl. replacements) *)
  stale_refs : int;  (** token lookups that failed the generation check *)
  rejected : int;
      (** registrations refused with [`Pool_exhausted]; always 0 when
          uncapped *)
}

val create : ?capacity:int -> ?obs:Ccp_obs.Obs.t -> unit -> 'a t
(** [capacity] caps the table at that many slots; without it the table
    grows. With [obs] the two counters of {!stats} are rows of its
    registry. Raises [Invalid_argument] when [capacity] is not in
    \[1, 2{^30}\]. *)

val register : 'a t -> flow:int -> 'a -> (token, [ `Pool_exhausted ]) result
(** Bind [flow] to a fresh slot and return its token, doubling an
    uncapped table that is full. An existing binding for [flow] is
    released first (its tokens go stale), matching [Hashtbl.replace]
    semantics. *)

val release : 'a t -> flow:int -> bool
(** Free [flow]'s slot, bumping its generation so every outstanding
    token for it goes stale. [false] if the flow was not registered. *)

val get : 'a t -> token -> 'a option
(** Token-checked dereference. [None] — with [stale_refs] incremented —
    when the token's generation no longer matches; {!no_token} returns
    [None] silently. *)

val is_live : 'a t -> token -> bool
(** Generation check without counting a stale reference. *)

val find : 'a t -> flow:int -> 'a option
(** Lookup by flow id via the index (the common dispatch path). *)

val token_of : 'a t -> flow:int -> token option
(** The currently-live token for [flow], if registered. *)

val live : 'a t -> int
val capacity : 'a t -> int

val iter : 'a t -> (int -> 'a -> unit) -> unit
(** Visit live entries as [(flow, value)], in slot order (deterministic,
    unlike hashtable order). *)

val fold : 'a t -> init:'b -> f:(int -> 'a -> 'b -> 'b) -> 'b

val clear : 'a t -> unit
(** Release every live slot; all outstanding tokens go stale. *)

val stats : 'a t -> stats
