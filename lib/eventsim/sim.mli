(** Discrete-event simulation engine.

    A simulator owns a virtual clock and an ordered event queue. Events
    scheduled for the same instant fire in FIFO order, which makes runs
    deterministic. Every network element, datapath, IPC channel and agent
    in this reproduction advances exclusively through this engine.

    The queue holds only live events: cancelling one removes it at once,
    and a fired or cancelled event's callback is no longer reachable
    from the queue. A handle can be re-armed with {!reschedule}, so a
    timer whose deadline keeps moving costs no allocation per move.

    A {!line} carries a stream of events that all go to one callback,
    such as the packets in flight on a link, without a heap entry,
    timer or closure per event. *)

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

val timer : t -> (unit -> unit) -> timer
(** A timer that is not pending: arm it with {!reschedule}. *)

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
(** Number of live events in the queue, each {!line}'s included.
    Cancelled events are not counted; they have already left it. *)

(** {1 Delay lines} *)

type 'a line
(** A delay line: a FIFO of events [(at, seq, item)] that all deliver
    their item to one callback. Only the line's earliest event sits in
    the queue's heap, under a timer the line owns, so a line holding
    thousands of events costs the heap one entry and allocates nothing
    per event once its ring has grown. Each event is keyed exactly as
    {!schedule} would have keyed it, so runs fire in the same order as
    with one scheduled closure per item. *)

val line : t -> filler:'a -> ('a -> unit) -> 'a line
(** [line t ~filler deliver] is an empty line whose events call
    [deliver]. [filler] occupies the ring's vacant slots, so the line
    keeps no delivered item reachable. *)

val push : 'a line -> at:Time_ns.t -> 'a -> unit
(** Queue an event delivering the item at absolute time [at]. It draws
    its sequence number from the simulator's counter, as {!schedule}
    does, so it fires after every event already due at [at]. A push
    due before some of the line's events (as under link jitter) is
    inserted in key order, and if it becomes the head, the line's heap
    entry is re-keyed. Raises [Invalid_argument] if [at] is in the
    past. *)

val line_length : 'a line -> int
(** Events queued on the line. *)

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
    reachable. For every line: its events are in key order, its head is
    the event keyed in the heap (and an empty line has no heap entry),
    and its vacant ring slots hold the filler. [pending_events] must
    equal the heap's entries other than line heads plus every line's
    events. [Error] names the first violation. For tests; it walks the
    whole queue. *)
