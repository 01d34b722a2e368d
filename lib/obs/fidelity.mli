(** Fidelity: quantitative distance between a CCP run and a native run.

    The paper's Figure 3/4 argument is visual — "the window dynamics are
    microscopically identical". This module makes it a number: align the
    two cwnd traces on a common time grid (step interpolation, matching
    how cwnd actually evolves) and compute a normalized RMSE, plus the
    utilization and median-RTT deltas the figures report. The regression
    tests assert thresholds on the result. *)

type run = {
  series : (float * float) array; (* (time_sec, value), time-ascending *)
  utilization : float; (* fraction of bottleneck, 0..1 *)
  median_rtt_ms : float;
}

type report = {
  cwnd_rmse : float;
      (** RMSE of the two resampled traces, normalized by the mean of the
          reference (native) trace; 0 = identical, 0.1 = 10% of mean. *)
  utilization_delta : float; (** ccp - native, in fraction points *)
  median_rtt_delta_ms : float; (** ccp - native *)
  samples : int; (** grid points actually compared *)
}

val rmse : float array -> float array -> float
(** Plain RMSE of two equal-length vectors. *)

val compare_runs : ccp:run -> native:run -> report
(** Compare over the overlapping time range of the two series, on a grid
    of 512 points. Raises [Invalid_argument] if either series is empty or
    the ranges do not overlap. *)
