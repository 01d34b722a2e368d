(** Sim-clock-driven windowed sampler over the {!Metrics} registry.

    The experiment driver calls {!tick} on a fixed interval of simulated
    time ({!tick_interval_ns}); every [subticks]-th tick closes a
    window. Counters report per-window deltas and per-second rates,
    gauges report last/min/max of the values seen at the ticks inside
    the window, histograms report per-window quantiles computed from
    bucket-count deltas — all derived from cumulative reads of the
    registry, so the per-ACK path gains nothing.

    Memory is bounded: a ring of at most [windows] closed windows plus
    one baseline per metric; {!dropped_windows} counts ring evictions
    exactly, like the flight recorder. The sampler draws nothing from
    any RNG and iterates metrics sorted by name, so a seeded run yields
    a byte-stable timeline.

    Windows are delta-suppressed: a counter with zero delta or a
    histogram with zero per-window observations is omitted from that
    window's points (gauges always appear once registered). The sum of
    a counter's per-window deltas over all closed windows therefore
    still equals its cumulative value at the last close — the qcheck
    property in [test/test_telemetry.ml]. *)

type counter = { delta : int; rate : float  (** per second *) }
type gauge = { last : float; min : float; max : float }
type hist = { count : int; mean : float; p50 : float; p90 : float; p99 : float }
type point = Counter_point of counter | Gauge_point of gauge | Hist_point of hist

type window = {
  index : int;  (** 0-based, counting every window ever closed *)
  t_start : int;  (** ns *)
  t_end : int;  (** ns *)
  points : (string * string * point) list;  (** (name, unit, point), sorted by name *)
}

type t

val create :
  metrics:Metrics.t -> ?window:int -> ?windows:int -> ?subticks:int -> unit -> t
(** [window] is the window length in ns (default 250 ms); [windows] the
    ring capacity in closed windows (default 64); [subticks] the number
    of gauge-sampling ticks per window (default 4). *)

val window_ns : t -> int
val subticks : t -> int
val capacity : t -> int

val tick_interval_ns : t -> int
(** [window / subticks] — the interval the driver should schedule
    {!tick} on. *)

val tick : t -> now:int -> bool
(** Sample the registry at simulation time [now]. The first call anchors
    the window grid and baselines all cumulative state (activity before
    it is never counted); thereafter every [subticks]-th call closes a
    window. Returns [true] when this call closed one. *)

val flush : t -> now:int -> unit
(** Close the in-progress partial window, if any — call at end of run so
    tail activity is not lost. *)

val set_on_close : t -> (t -> window -> unit) -> unit
(** Hook invoked after each window close (the live-view and {!Health}
    driver point). One hook; a second call replaces the first. *)

val closed_windows : t -> int
(** Windows ever closed, including ring-evicted ones. *)

val dropped_windows : t -> int
(** Windows evicted because the ring was full. *)

val windows : t -> window list
(** Held windows, oldest first. *)

val point : window -> string -> point option

val window_spec : window Schema.t
(** One object of the ["windows"] array of the [ccp-timeline/v1]
    document (see {!Timeline}); its points carry a ["kind"] tag. *)

val to_csv : t -> string
(** One row per (window, metric) point; kind-specific columns are left
    empty for the other kinds. *)
