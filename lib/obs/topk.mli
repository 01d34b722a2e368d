(** Space-saving (Misra–Gries) heavy-hitter sketches keyed by flow id.

    A sketch tracks at most [k] keys in preallocated arrays. Updates for
    a tracked key are O(1); a miss with the sketch full evicts the
    minimum-count entry (ties to the lowest slot, deterministically) and
    the newcomer inherits its count as recorded overestimation error.

    Guarantees (property-tested in [test/test_telemetry.ml]): for every
    tracked key, [count - err <= true <= count], and
    [err <= total / k] — so any key whose true count exceeds [total / k]
    of the stream is always tracked. That is what makes per-flow
    contributions (reports, sheds, orphans, queue wait, guard incidents)
    observable at N=2048 flows without O(N) metric names.

    A {!t} is a get-or-create registry of named sketches, mirroring the
    {!Metrics} idiom so call sites pre-resolve handles once. *)

type t
(** Registry of named sketches. *)

type sketch

type entry = { key : int; count : int; err : int }
(** [count] over-estimates the true count by at most [err]. *)

val create : ?k:int -> unit -> t
(** [k] is the default capacity for sketches created through this
    registry (64 when omitted). *)

val sketch : t -> ?k:int -> string -> sketch
(** Get or create by name. [k] applies only on creation. *)

val name : sketch -> string
val k : sketch -> int

val total : sketch -> int
(** Total weight ever added (the stream length N). *)

val tracked : sketch -> int
(** Keys currently tracked ([<= k]). *)

val touch : sketch -> int -> unit
(** [touch s key] adds weight 1. *)

val add : sketch -> int -> int -> unit
(** [add s key w] adds weight [w >= 0]; raises on negative weight. *)

val entries : sketch -> entry list
(** Tracked entries, heaviest first (ties by ascending key) —
    deterministic regardless of hashtable layout. *)

val find : sketch -> int -> entry option

val error_bound : sketch -> int
(** [total / k] when the sketch has ever been full, else 0: an upper
    bound on every entry's [err]. *)

val sketches : t -> sketch list
(** All sketches, sorted by name. *)

val spec : sketch Schema.t
(** One [{"name";"k";"total";"entries":[{"key";"count";"err"}]}] object
    of the timeline's ["topk"] array, whose check also enforces the
    space-saving bound. *)
