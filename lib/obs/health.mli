(** SLO engine with multi-window burn-rate alerting over the
    {!Timeseries} windows.

    Each SLO computes a service-level indicator from one closed window:
    either a bad/total event ratio over cumulative-counter deltas
    (orphans per span started, sheds per report, decode failures per
    message) or a quantile-derived lower bound on the fraction of a
    latency histogram's window observations above a budget (actuation
    latency vs the Figure-2 budget). Burn rate = bad fraction /
    objective.

    An alert fires when both the short-window burn (the window that
    just closed) and the long-window burn (deltas aggregated over the
    last [long_windows] closes) reach [burn_threshold]; it clears after
    [clear_windows] consecutive short windows back under the threshold.
    Transitions are recorded as {!Recorder.Alert} events; end-of-run
    {!verdicts} (whole-run bad fraction vs objective, plus alert
    history) are embedded in the scenario scorecards. *)

type sli =
  | Event_ratio of { bad : string list; total : string list }
      (** counter names; a window's SLI is [sum bad / sum total] of the
          per-window deltas (0 when the denominator is 0) *)
  | Latency_above of { hist : string; budget : float }
      (** histogram name and budget in the histogram's unit; the SLI is
          a lower bound on the fraction over budget: 0.5 / 0.1 / 0.01
          when the window's p50 / p90 / p99 exceeds it *)

type slo = { slo_name : string; sli : sli; objective : float }
(** [objective] is the maximum acceptable bad fraction, in (0, 1]. *)

type config = {
  slos : slo list;
  burn_threshold : float;
  long_windows : int;
  clear_windows : int;
}

val default_config : ?budget_us:float -> unit -> config
(** The stack's six standing SLOs — actuation latency vs [budget_us]
    (default 100 ms), orphan rate, shed rate, decode-failure rate,
    staleness, quarantine rate — with burn threshold 10 over an
    8-window long window and 1-window clear. *)

type alert_state = Ok_state | Firing

val state_to_string : alert_state -> string

type transition = {
  tr_slo : string;
  tr_window : int;
  tr_at : int;  (** ns *)
  tr_to : alert_state;
  tr_burn_short : float;
  tr_burn_long : float;
}

type t

val create : ?config:config -> ?recorder:Recorder.t -> unit -> t

val config : t -> config

val on_window : t -> Timeseries.window -> unit
(** Evaluate every SLO against a freshly closed window. Drive this from
    {!Timeseries.set_on_close} (what {!Obs.create} wires up) or call it
    directly in tests. *)

val transitions : t -> transition list
(** Alert state transitions, oldest first. *)

val windows_evaluated : t -> int

val alert_state : t -> slo:string -> alert_state option

type verdict = {
  v_slo : string;
  v_objective : float;
  v_bad : float;
  v_total : float;
  v_bad_fraction : float;  (** whole-run bad / total *)
  v_breaches : int;  (** windows with short burn >= threshold *)
  v_fired : int;  (** alert episodes *)
  v_worst_burn : float;
  v_final_state : alert_state;
  v_pass : bool;  (** bad fraction within objective and not left firing *)
}

val verdicts : t -> verdict list
(** One per configured SLO, in configuration order. *)

val spec : t Schema.t
(** The ["health"] section of the [ccp-timeline/v1] document and of the
    scenario scorecards' cells: burn config, per-SLO verdicts, and the
    transition log. *)
