(** Discrete-event simulation engine.

    A simulator owns a virtual clock and an ordered event queue. Events
    scheduled for the same instant fire in FIFO order, which makes runs
    deterministic. Every network element, datapath, IPC channel and agent
    in this reproduction advances exclusively through this engine.

    The queue holds only live events: cancelling one removes it at once,
    and a fired or cancelled event's callback is no longer reachable
    from the queue. A handle can be re-armed with {!reschedule}, so a
    timer whose deadline keeps moving costs no allocation per move. *)

open Ccp_util

type t

type timer
(** Handle to a scheduled event. It may be cancelled before it fires,
    and re-armed with {!reschedule} at any time. *)

val create : ?seed:int -> unit -> t
(** Fresh simulator with clock at zero. [seed] (default 42) initialises the
    simulation-wide RNG from which components derive their own streams. *)

val now : t -> Time_ns.t

val rng : t -> Rng.t
(** The root RNG. Components that need independent streams should
    [Rng.split] it at construction time. *)

val schedule : t -> at:Time_ns.t -> (unit -> unit) -> timer
(** Schedule a callback at absolute time [at]. Raises [Invalid_argument] if
    [at] is in the past. *)

val schedule_after : t -> delay:Time_ns.t -> (unit -> unit) -> timer
(** Schedule a callback [delay] after the current time (negative delays are
    clamped to "now"). *)

val reschedule : t -> timer -> at:Time_ns.t -> unit
(** Move [timer] to absolute time [at], keeping its callback: a pending
    timer's deadline moves in place, and a fired or cancelled one is
    queued again. The timer sorts exactly where a [cancel] followed by a
    [schedule] at [at] would have put it, i.e. after every event already
    scheduled for [at]. Raises [Invalid_argument] if [at] is in the past
    or [timer] belongs to another simulator. *)

val cancel : timer -> unit
(** Remove a pending event from the queue, releasing the queue's
    reference to its callback. Cancelling a fired or already-cancelled
    event is a no-op. *)

val is_pending : timer -> bool
(** Whether [timer] is queued: scheduled or re-armed, and neither fired
    nor cancelled since. It is [false] while the timer's own callback
    runs. *)

val pending_events : t -> int
(** Number of live events in the queue. Cancelled events are not
    counted; they have already left it. *)

val run : ?until:Time_ns.t -> ?max_events:int -> t -> unit
(** Drain the event queue. Stops when the queue is empty, when the clock
    would pass [until] (events at exactly [until] do fire), or after
    [max_events] events as a runaway guard. *)

val step : t -> bool
(** Fire the single next event. Returns [false] if the queue was empty. *)

val audit : t -> (unit, string) result
(** Check the queue's invariants: every live entry's timer records its
    own slot, sorts no earlier than its parent by (time, scheduling
    order) and is not due before [now]; and every slot past the live
    entries holds no timer, so no fired or cancelled callback stays
    reachable. [Error] names the first violation. For tests; it walks
    the whole queue. *)
