(** Metrics registry: counters, gauges, fixed-bucket histograms.

    Handles are get-or-create by name, so per-flow code paths can ask for
    ["datapath.reports_sent"] repeatedly and always share one counter.
    Registration allocates; the hot operations ([incr], [set], [observe])
    do not — the datapath calls them from the per-ACK path when
    observability is enabled, and the disabled path never touches them.

    Snapshots flatten everything into (name, value, unit) rows — the same
    schema [bench/main.exe] writes to BENCH.json — and histograms expand
    into [_count]/[_mean]/[_p50]/[_p90]/[_p99] rows. *)

type t

type counter
type gauge
type histogram

val create : unit -> t

val counter : t -> ?unit_:string -> string -> counter
(** Get or create. Raises [Invalid_argument] if the name is already
    registered as a different metric kind. *)

val gauge : t -> ?unit_:string -> string -> gauge

val histogram : t -> ?unit_:string -> ?bounds:float array -> string -> histogram
(** [bounds] are inclusive upper edges of the finite buckets, strictly
    increasing; one overflow bucket is added above the last edge.
    Defaults to [default_bounds]. [bounds] is ignored when the histogram
    already exists. *)

val default_bounds : float array
(** Log-spaced 1–2–5 edges from 1 to 5e8 — wide enough for nanosecond
    latencies through byte counts. *)

(* Hot-path operations: allocation-free. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val set : gauge -> float -> unit
val gauge_value : gauge -> float

val observe : histogram -> float -> unit
val observations : histogram -> int
val hist_mean : histogram -> float

val quantile : histogram -> float -> float
(** [quantile h q] for [q] in [0,1]: linear interpolation inside the
    bucket holding the q-th observation. Values in the overflow bucket
    report the last finite edge. 0. when empty. *)

val quantile_of_counts :
  bounds:float array -> counts:int array -> observations:int -> float -> float
(** {!quantile} over an explicit bucket-count array — the same
    interpolation applied to a per-window count {e delta}, which is how
    {!Timeseries} reports per-window histogram quantiles. *)

val fraction_above :
  bounds:float array -> counts:int array -> observations:int -> float -> float
(** Estimated fraction of observations strictly above a threshold,
    interpolating linearly inside the bucket the threshold falls in.
    Observations in the overflow bucket count as above any threshold up
    to the last finite edge and as below thresholds beyond it
    (conservative). 0. when empty. *)

(* Snapshots. *)

type row = { name : string; value : float; unit_ : string }

val snapshot : ?prefix:string -> t -> row list
(** All metrics as rows, sorted by name. [prefix] keeps only metrics
    whose {e registered} name starts with it — a histogram's derived
    [_count]/[_p99] rows follow the base name, so [~prefix:"trace."]
    selects whole histograms, never slices of one. *)

(* Raw views, for samplers that need deltas rather than rows. *)

type hist_state = {
  hs_bounds : float array;  (** shared with the live histogram — do not mutate *)
  hs_counts : int array;  (** copied at view time *)
  hs_sum : float;
  hs_observations : int;
}

type view =
  | V_counter of int
  | V_gauge of float
  | V_histogram of hist_state

val sorted_views : t -> (string * string * view) list
(** [(name, unit, view)] for every registered metric, sorted by name —
    a deterministic iteration order independent of hashtable layout.
    Allocates (histogram counts are copied); meant for periodic
    samplers like {!Timeseries}, not hot paths. *)

val rows_to_json : row list -> Json.t
(** [List] of [{"name";"value";"unit"}] objects — the BENCH.json schema. *)

val validate_rows_json : Json.t -> (int, string) result
(** Check a parsed value against the rows schema; [Ok n] gives the row
    count. Shared by the bench-schema test and CI smoke. *)

val pp_rows : Format.formatter -> row list -> unit

val rows_of_json : Json.t -> (row list, string) result
(** Inverse of {!rows_to_json}, after schema validation. *)

val merge_rows_file : path:string -> row list -> (int, string) result
(** Merge [rows] into the BENCH.json-schema file at [path]: existing rows
    with the same name are replaced, everything is re-sorted by name and
    schema-checked before writing. Creates the file when absent. [Ok n]
    gives the merged row count; an unreadable or unwritable [path] is an
    [Error], never an exception. Used by [ipc_rtt --bench-json] and
    [ccp_sim latency --bench-json] so real-machine IPC RTTs and simulated
    reaction latencies land in one artifact. *)
