(** Causal span tracing across the control loop.

    One span covers one control-loop iteration: minted in the datapath
    when a report or urgent event departs, carried across the IPC channel
    as an integer token, re-armed while the agent handler runs, attached
    to the resulting [Install]/[Set_cwnd]/[Set_rate], and finalized when
    the datapath applies (or refuses) the control. Stage timings feed the
    [trace.*] metrics; finalized spans land in the flight recorder as
    {!Recorder.Span} events and export to Chrome [trace_event] JSON.

    Tokens come from a preallocated pool ([slot lor (gen lsl bits)]);
    freeing a slot bumps its generation, so stale tokens — duplicate or
    reordered deliveries arriving after the span finalized — are counted
    ([trace.stale_refs]) and otherwise ignored. Spans whose message is
    lost to a fault are finalized with the [Orphaned] disposition, so the
    pool cannot leak under any fault plan. *)

type t

type disposition = Actuated | No_action | Rejected | Orphaned | Shed

type span_kind = Report_span | Urgent_span

val create :
  ?capacity:int ->
  metrics:Metrics.t ->
  ?recorder:Recorder.t ->
  ?tk_orphans:Topk.sketch ->
  clock:(unit -> float) ->
  unit ->
  t
(** [capacity] (default 1024) is rounded up to a power of two. [clock]
    returns wall nanoseconds and times the summarize/handler/apply
    stages; simulation timestamps are passed per call. [tk_orphans], when
    given, is touched with the span's flow id on every [Orphaned]
    finalization — the tracer is the only place that still knows the
    flow of a message lost in flight. *)

val no_span : int
(** [-1]: the token meaning "no span". Safe to pass to every operation. *)

(** {1 Lifecycle} *)

val start : t -> now:int -> flow:int -> kind:span_kind -> int
(** Mint a span at simulation time [now]; returns its token, or
    {!no_span} when the pool is exhausted (counted in
    [trace.spans_dropped]). Allocation-free. *)

val sent : t -> int -> now:int -> unit
(** The traced message entered the channel: stamps the sim send time and
    observes the wall-clock summarize cost ([trace.summarize_ns]). *)

val arrived : t -> int -> now:int -> unit
(** First arrival at the agent end (later arrivals keep the first stamp). *)

val handler_begin : t -> int -> unit
(** The agent handler for this span starts: begins wall handler timing
    and arms the span as {!active} so outgoing control messages can
    attach to it. *)

val handler_end : t -> int -> now:int -> unit
(** Handler done: observes [trace.handler_ns] and disarms. A span that no
    control message claimed is finalized here with [No_action]. A span
    that was finalized while its handler ran, because a fault destroyed
    the reply carrying it ({!orphan}), ends here quietly: it is no stale
    reference. *)

val active : t -> int
(** The armed span awaiting its first control message, or {!no_span}. *)

val note_send : t -> int -> now:int -> unit
(** An outgoing control message claimed the span: stamps the action time
    and marks it consumed (later sends in the same handler get no span). *)

val finish : t -> int -> now:int -> disposition:disposition -> apply_ns:float -> unit
(** Finalize: observe stage histograms ([trace.reaction_us] only for
    [Actuated]), record a {!Recorder.Span} event, return the slot to the
    pool. Stale tokens are counted and ignored. *)

val orphan : t -> int -> now:int -> unit
(** [finish] with [Orphaned] — the traced message was dropped by a fault
    (random loss, partition, crashed agent). *)

val shed : t -> int -> now:int -> unit
(** [finish] with [Shed] — the agent's overload control dropped the
    traced report before its handler ran. Counted in
    [trace.spans_shed]. *)

(** {1 Accounting} *)

type stats = {
  started : int;
  actuated : int;
  no_action : int;
  rejected : int;
  orphaned : int;
  shed : int;  (** dropped by agent overload control before the handler *)
  dropped : int;  (** mints refused because the pool was empty *)
  stale_refs : int;
  live : int;  (** started and not yet finalized *)
}

val stats : t -> stats
(** Invariant:
    [started = actuated + no_action + rejected + orphaned + shed + live]. *)

val pool_capacity : t -> int
val free_slots : t -> int
(** Invariant: [free_slots = pool_capacity - live]. *)

val live_spans : t -> int

val wall_clock : t -> unit -> float
(** The wall clock the tracer was created with, for callers that time
    work they report via [~apply_ns]. *)

(** {1 Chrome trace_event export} *)

val chrome_of_recorder : Recorder.t -> Json.t
(** All {!Recorder.Span} events as a [{"traceEvents": [...]}] object for
    chrome://tracing / Perfetto: one complete ("X") event per reaction
    and per IPC leg ([ts]/[dur] in microseconds of simulation time,
    [pid] 1, [tid] = flow), plus handler/apply instants carrying the
    wall-clock stage costs in [args]. *)

val validate_chrome : Json.t -> (int, string) result
(** Check a parsed value against the Chrome trace shape; [Ok n] gives the
    event count. Shared by the golden test and the CI trace-smoke. *)
