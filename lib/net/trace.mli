(** Time-series collection for experiments.

    A trace holds named series of (simulation time, value) points. Series
    are either pushed explicitly (e.g., cwnd on every update) or sampled
    periodically by a registered probe (e.g., queue depth every 10 ms).

    Each series is stored as two growable columns, unboxed times and
    unboxed values, which start empty and double from 4 slots up to
    16,384 points; a longer series adds columns of that size instead of
    copying its points into a bigger one. A hot writer resolves its
    series once with {!handle} and appends with {!push}, which allocates
    nothing unless a column fills. *)

open Ccp_util
open Ccp_eventsim

type t

val create : Sim.t -> t

type handle
(** A resolved series. *)

val handle : t -> string -> handle
(** The series named so, created empty if unknown. A series appears in
    {!series_names} only once it holds a point. *)

val push : handle -> float -> unit
(** Record a point on the series at the current simulation time. *)

val add : t -> series:string -> float -> unit
(** [add t ~series v] is [push (handle t series) v]: a name lookup per
    point. *)

val sample_every :
  t -> series:string -> every:Time_ns.t -> ?until:Time_ns.t -> (unit -> float) -> unit
(** Register a periodic probe. Sampling starts one period in and stops at
    [until] if given (otherwise it runs as long as the simulation does). *)

val series : t -> string -> (Time_ns.t * float) list
(** Points of a series in chronological order; empty if unknown. *)

val series_names : t -> string list

val to_csv : t -> name:string -> string
(** One series as "time_s,value" CSV lines with a header. *)

val downsample : (Time_ns.t * float) list -> max_points:int -> (Time_ns.t * float) list
(** Thin a series for display, keeping first and last points. *)
