(** Helpers for constructing the control programs the CCP algorithms
    install. Centralizes the common shapes so each algorithm reads close
    to its paper pseudocode. *)

open Ccp_lang.Ast

val c : float -> expr
(** Float constant. *)

val ci : int -> expr
(** Integer constant. *)

val std_fold : fold_def
(** The workhorse fold: per-report sums/extrema most window algorithms
    need —
    [acked] (bytes), [marked] (ECN-marked bytes), [pkts],
    [maxrate] (max delivery-rate sample, bytes/s),
    [minrtt] (min RTT sample, µs), [lastrtt] (latest RTT sample, µs),
    [sumrtt] (sum of RTT samples, µs — divide by [pkts] for the mean). *)

val window_program : ?interval_rtts:float -> cwnd:int -> unit -> program
(** [Measure(std_fold).Cwnd(cwnd).WaitRtts(i).Report()], repeating.
    [interval_rtts] defaults to 1.0 — the paper's once-per-RTT cadence. *)

val measurement_program : ?interval_rtts:float -> unit -> program
(** [Measure(std_fold).WaitRtts(i).Report()], repeating, with no [Cwnd]:
    a program that measures and reports but never touches the window,
    for an algorithm that installs it once and steers the window with
    [set_cwnd]. That leaves the program's pc, fold and wait alone, so
    no ACK goes unreported between reports. [interval_rtts] defaults to
    1.0. *)

val dynamic_cwnd_cap : prim
(** [Cwnd(max(2e-6 * rate * srtt_us, 10 * mss))]: window cap at twice the
    BDP implied by the current pacing rate, evaluated in the datapath.
    Rate-based programs need it so the window never throttles the pacer. *)

val rate_program : ?interval_rtts:float -> ?cwnd_cap:int -> rate:float -> unit -> program
(** [Measure(std_fold).Rate(r).Cwnd(cap).WaitRtts(i).Report()],
    repeating; the cap defaults to {!dynamic_cwnd_cap}. *)

val vector_program : ?interval_rtts:float -> fields:string list -> cwnd:int -> unit -> program
(** Vector-mode variant: [Measure(f1, f2, ...).Cwnd(c).WaitRtts(i).Report()]. *)
