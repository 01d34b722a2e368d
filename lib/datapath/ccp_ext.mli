(** The CCP modification to the datapath (§2).

    This module is what a datapath implementor adds to become
    CCP-compliant. It plugs into {!Tcp_flow} through the same
    {!Congestion_iface.t} as any native controller, but instead of deciding
    locally it:

    - executes the installed control program (Table 2): applies [Rate] and
      [Cwnd], honours [Wait]/[WaitRtts] via simulator timers, and loops
      repeating programs;
    - aggregates per-ACK measurements per the program's [Measure] spec —
      a {!Ccp_lang.Fold} or a bounded per-packet vector (§2.4);
    - sends [Report] messages to the agent at the program's [Report()]
      points, and [Urgent] messages immediately on loss/timeout (and
      optionally ECN), bypassing batching (§2.1);
    - applies [Install] / [Set_cwnd] / [Set_rate] messages arriving
      asynchronously from the agent, validating programs before running
      them (a misbehaving agent must not break the datapath, §5).

    Reports always carry the reserved fields
    ({!Ccp_ipc.Message.reserved_names}: [_cwnd], [_rate], [_mss],
    [_srtt_us], [_rtt_us], [_minrtt_us], [_inflight_bytes], [_send_rate],
    [_recv_rate], [_now_us] and [_packets]) after the program's own fold
    fields — mirroring the prototype datapath of §3, which reports the
    most recent ACK and EWMA-filtered rates. A report's [names] array is
    built once per fold plan and shared by all its reports; its [values]
    are written in place. *)

open Ccp_util
open Ccp_eventsim
open Ccp_ipc

(** Safe-fallback watchdog (§5, "Is CCP safe to deploy?"): if the agent
    goes silent — no Install/Set_cwnd/Set_rate for [after] — the datapath
    takes the flow back. [Clamp] pins a conservative window and disables
    pacing, keeping traffic flowing (slowly). [Native] hands the flow to a
    freshly created in-datapath controller (e.g. [Native_reno.create]),
    which then receives every ACK and loss event as if it had owned the
    flow all along — full-speed operation with zero agent involvement.

    While in fallback the watchdog also re-sends [Ready] once per period:
    a restarted agent that lost its state re-learns the flow from the
    probe, re-installs a program, and the datapath hands control back on
    that first message. Any agent message for the flow lifts fallback. *)
type fallback_mode =
  | Clamp of { cwnd_segments : int }  (** conservative window while in fallback *)
  | Native of (unit -> Congestion_iface.t)
      (** fresh in-datapath controller per fallback episode *)

type fallback = {
  after : Time_ns.t;  (** silence threshold, and probe period while down *)
  mode : fallback_mode;
}

val clamp_fallback : after:Time_ns.t -> cwnd_segments:int -> fallback
val native_fallback : after:Time_ns.t -> (unit -> Congestion_iface.t) -> fallback

(** Runtime guardrails (§2.4 self-protection): hard bounds the datapath
    enforces on every value an installed program produces, no matter what
    admission control let through — a statically valid program can still
    compute a zero window, an absurd rate, or a sub-microsecond wait. The
    agent's direct [Set_cwnd] and [Set_rate] commands pass the same cwnd
    and rate bounds (a non-finite rate becomes 0). Each violation is
    clamped {e and counted}; when a flow's incident score
    reaches [quarantine_after] and a [quarantine_mode] is armed, the
    program is cancelled, the mode takes the flow (exactly like a watchdog
    fallback episode), and the agent is told via [Quarantined]. Only a
    subsequently {e accepted} [Install] wins the flow back. *)
type guard_envelope = {
  min_cwnd_segments : int;  (** cwnd floor, in segments (× mss) *)
  max_cwnd_bytes : int;  (** cwnd ceiling *)
  max_rate_bytes_per_sec : float;  (** pacing-rate ceiling *)
  min_wait : Time_ns.t;
      (** floor on {e computed} waits; a shorter wait would spin the
          datapath at one timestamp *)
  max_eval_steps : int;  (** per-tick program-step budget *)
  min_report_interval : Time_ns.t;  (** report rate limiter *)
  div_storm_unit : int;
      (** divisions-by-zero per incident point: isolated div-by-zero is
          tolerated, a sustained storm scores *)
  divergence_limit : float;  (** fold state magnitude bound *)
  quarantine_after : int;  (** incident score that triggers quarantine *)
  quarantine_mode : fallback_mode option;  (** [None] = count but never quarantine *)
  quarantine_backoff : Time_ns.t option;
      (** when set, a quarantined flow re-sends [Ready] on a doubling
          timer starting at this delay, inviting the agent to win the
          flow back with a corrected install; [None] (the default) leaves
          re-admission to the watchdog's silence-driven probes *)
  quarantine_backoff_max : Time_ns.t;  (** cap on the probe back-off *)
}

val default_guard : guard_envelope
(** 1-segment cwnd floor, 1 GiB ceiling, 1 Tbit/s rate ceiling, 1 us wait
    floor, 10k steps per tick, 10 us report interval, 50 div-by-zero per
    point, 1e18 fold bound, quarantine at 50 with no mode armed, no
    back-off probes (5 s cap when armed). *)

(** Per-flow incident counters, one per {!Ccp_ipc.Message.incident_kind}.
    Mutable for the datapath's own accounting; treat as read-only. *)
type guard_incidents = {
  mutable cwnd_clamped : int;
  mutable rate_clamped : int;
  mutable wait_clamped : int;
  mutable non_finite : int;
  mutable div_storms : int;
  mutable report_throttled : int;
  mutable fold_divergence : int;
  mutable eval_budget : int;
}

type config = {
  urgent_on_loss : bool;
  urgent_on_ecn : bool;
  validate_installs : bool;
      (** run admission ({!Ccp_lang.Limits.admit}) before a program
          runs. Every program a flow runs has passed admission and
          compilation. A re-install whose program bytes equal those of
          the program the flow is running (so a bit-identical program,
          {!Ccp_lang.Ast.identical_program}) is matched on the wire
          ({!Ccp_ipc.Channel.match_installs}): no AST is decoded, and the
          flow keeps its admitted AST, compiled code and fold state. It
          still restarts the program. *)
  default_wait : Time_ns.t;  (** WaitRtts fallback before the first RTT sample *)
  max_vector_rows : int;  (** vector-mode memory bound; overflow rows are dropped *)
  flow_capacity : int;
      (** expected concurrent flows — sizes the flow table up front so an
          incast of thousands of registrations does not rehash its way up
          from a tiny table (default 8) *)
  fallback : fallback option;
  limits : Ccp_lang.Limits.t;  (** static admission limits *)
  guard : guard_envelope;
}

val default_config : config
(** Loss urgent on, ECN urgent off, validation on, 10 ms default wait,
    4096-row vectors, 8-flow table hint, watchdog disabled,
    {!Ccp_lang.Limits.default} admission limits, {!default_guard}
    envelope. *)

type t

val create :
  sim:Sim.t -> channel:Channel.t -> ?config:config -> ?obs:Ccp_obs.Obs.t -> unit -> t
(** Registers itself as the channel's datapath-side endpoint, and its
    flows' running programs as the channel's install lookup
    ({!Ccp_ipc.Channel.match_installs}). With [obs]
    the extension publishes install/guard/quarantine/fallback/report
    counters, times the per-ACK measurement step into the
    [datapath.fold_step_ns] histogram, and records Install, Quarantine,
    Fallback, and Report trace events. Without it, the per-ACK path stays
    allocation-free. *)

val congestion_control : t -> Congestion_iface.t
(** The controller to hand to {!Tcp_flow.create}. Each flow that calls
    [on_init] is registered with the agent via a [Ready] message. *)

(** {1 Introspection (tests, experiments)} *)

val installed_program : t -> flow:int -> Ccp_lang.Ast.program option
val reports_sent : t -> int
val urgents_sent : t -> int
val installs_accepted : t -> int
val installs_rejected : t -> int

val fallbacks_triggered : t -> int

val fallback_probes_sent : t -> int
(** [Ready] re-handshakes emitted while flows sat in fallback. *)

val in_fallback : t -> flow:int -> bool

val quarantines_triggered : t -> int
(** Guard-envelope quarantines entered across all flows. *)

val quarantine_probes_sent : t -> int
(** [Ready] re-admission probes emitted by [quarantine_backoff] timers. *)

val in_quarantine : t -> flow:int -> bool

val has_compiled_program : t -> flow:int -> bool
(** Whether the flow holds a compiled, runnable program. Always agrees
    with [installed_program]: admission is atomic, so a crash between
    [Install] and [Install_result] can never leave a half-admitted
    program (source recorded but nothing runnable, or vice versa). *)

val guard_incidents : t -> flow:int -> guard_incidents option
(** The flow's counters for the {e current} guard window (reset on every
    accepted install). *)

val guard_incident_total : t -> int
(** Incidents across all flows and all closed guard windows — the
    datapath-wide "how badly were we abused" number for experiment
    stats. *)

(** Who is driving a flow right now. The datapath maintains the invariant
    that exactly one party controls each flow: an installed agent program,
    an active native fallback, and a quarantine are mutually exclusive by
    construction ([Awaiting_agent] covers the startup window before the
    first install, when the flow still runs at its initial window). *)
type controller = Agent_program | Native_fallback | Quarantined | Awaiting_agent

val controller : t -> flow:int -> controller option
