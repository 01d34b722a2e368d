(** The observability bundle threaded through the stack.

    An [Obs.t] is what a subsystem receives when the experiment enables
    observability: a metrics registry, optionally a flight recorder,
    optionally a control-loop span tracer, optionally the telemetry
    trio — a {!Timeseries} windowed sampler, a {!Topk} heavy-hitter
    registry, and a {!Health} SLO engine — and a monotonic clock for
    self-timing. Every instrumented call site takes [Obs.t option] and
    does nothing on [None] — the disabled path is a single pattern match,
    which is how the per-ACK path stays allocation-free with
    observability off. The exception is a counter the component also
    reads back ({!counter}): it counts either way, and only a bundle
    exports it. *)

type t = {
  metrics : Metrics.t;
  recorder : Recorder.t option;
  tracer : Tracer.t option;
  timeseries : Timeseries.t option;
  topk : Topk.t option;
  health : Health.t option;
  clock : unit -> float; (** monotonic wall-clock nanoseconds, for self-timing *)
  on_window_extra : (Timeseries.t -> Timeseries.window -> unit) option ref;
      (** internal — use {!set_window_hook} *)
}

val create :
  ?recorder:bool ->
  ?tracer:bool ->
  ?tracer_capacity:int ->
  ?telemetry:bool ->
  ?slo:Health.config ->
  ?clock:(unit -> float) ->
  unit ->
  t
(** [recorder] defaults to [true], a recorder of the {!Recorder.create}
    default capacity. [tracer] defaults to [false] — when
    enabled the tracer publishes [trace.*] metrics, draws span tokens
    from a pool of [tracer_capacity] (default 1024) slots, and finalizes
    spans into the recorder (when there is one).

    [telemetry] (default [false]) arms the trio together, each at its
    module's defaults: a {!Topk} registry whose ["flow.orphans"] sketch
    is pre-wired into the tracer, a {!Timeseries} sampler, and a
    {!Health} engine on the SLO [slo] config (default
    {!Health.default_config}) that is driven from every window close and
    records alert transitions into the recorder. With [telemetry] off
    all three fields are [None] and nothing new runs anywhere.

    [clock] defaults to the monotonic wall clock
    ([bechamel.monotonic_clock], [CLOCK_MONOTONIC]) in nanoseconds, so
    [trace.*_ns] stage costs are elapsed time, not process CPU time.
    Tests that freeze output pass a constant clock. *)

val set_window_hook : t -> (Timeseries.t -> Timeseries.window -> unit) -> unit
(** Register a live-view hook called after each window close, after the
    health engine has evaluated the window (so alert state is current).
    No-op bundle-wise when telemetry is off. One hook; a second call
    replaces the first. *)

val record : t -> at:int -> Recorder.event -> unit
(** No-op when the bundle has no recorder. *)

val recorder_exn : t -> Recorder.t
(** Raises [Invalid_argument] when the bundle has no recorder. *)

val tracer_exn : t -> Tracer.t
(** Raises [Invalid_argument] when the bundle has no tracer. *)

val counter : t option -> ?unit_:string -> string -> Metrics.counter
(** The named counter in the bundle's registry, or without a bundle a
    {!Metrics.private_counter}. A component keeps each counted fact in
    one such counter, reads it back through its accessors, and exports
    it as a row only when it has a bundle. *)

val flow_sketch : t -> string -> Topk.sketch option
(** Get-or-create a named heavy-hitter sketch, [None] when telemetry is
    off. Call once at wiring time and keep the handle — the per-event
    path should only ever see the pre-resolved [sketch option]. *)
