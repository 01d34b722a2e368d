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
    most recent ACK and EWMA-filtered rates. A report's layout
    ({!Ccp_ipc.Message.layout}) is interned once per fold plan and shared
    by all its reports; its [values] are written in place. *)

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

    While the agent stays silent the watchdog also re-sends [Ready] once
    per period, in fallback and in quarantine alike: a restarted agent
    that lost its state re-learns the flow from the probe, re-installs a
    program, and the datapath hands control back when it accepts that
    install. A flow the fallback holds is probed once per period even
    while the agent is heard from: an agent that only answers the flow's
    urgents with [Set_cwnd] holds off the takeover, but would never send
    the install that ends the fallback.

    The stand-in rule: only an accepted [Install] hands a flow back from
    either stand-in, fallback or quarantine. A stand-in stops the flow's
    program, so the flow sends no more reports until a program runs
    again, and an agent that only steers the window would never hear
    from it. Any agent message for the flow still counts as contact and
    holds off the watchdog, but a [Set_cwnd] or [Set_rate] that arrives
    while a stand-in owns the flow is not applied. *)
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
    subsequently {e accepted} [Install] wins the flow back.

    Beside the settable bounds below, the envelope has fixed ones: a
    1 GiB cwnd ceiling; a 1 us floor on {e computed} waits (a shorter
    wait would spin the datapath at one timestamp); a budget of 10,000
    program steps per tick; one incident per 50 divisions by zero
    (isolated div-by-zero is tolerated, a sustained storm scores); and a
    1e18 bound on fold state magnitude. *)
type guard_envelope = {
  min_cwnd_segments : int;  (** cwnd floor, in segments (× mss) *)
  max_rate_bytes_per_sec : float;  (** pacing-rate ceiling *)
  min_report_interval : Time_ns.t;  (** report rate limiter *)
  quarantine_after : int;  (** incident score that triggers quarantine *)
  quarantine_mode : fallback_mode option;  (** [None] = count but never quarantine *)
}

val default_guard : guard_envelope
(** 1-segment cwnd floor, 1 Tbit/s rate ceiling, 10 us report interval,
    quarantine at 50 with no mode armed. *)

(** Every program a flow runs has passed admission
    ({!Ccp_lang.Limits.admit}) and compilation. The datapath keeps the
    program it admitted last, for whichever flow, with its compiled code
    and report layout. An install's program bytes are matched on the
    wire ({!Ccp_ipc.Channel.match_installs}), first against the program
    the flow is running, then against the kept one; equal bytes mean a
    bit-identical program ({!Ccp_lang.Ast.identical_program}), so no AST
    is decoded and nothing is admitted again:
    - a re-install of the flow's own program keeps its admitted AST,
      compiled code, machine and fold state. It still restarts the
      program.
    - an install of the kept program, on any other flow, shares its AST,
      compiled code and report layout, with a fresh machine and fold
      for that flow.
    A program that fails admission is never kept: installed again, on
    any flow, it is admitted and rejected again.

    A [WaitRtts] before the flow's first RTT sample waits 10 ms. A vector
    measurement keeps at most 4,096 rows per report; later rows are
    dropped. *)
type config = {
  urgent_on_loss : bool;
  urgent_on_ecn : bool;
  flow_capacity : int;
      (** expected concurrent flows — sizes the flow table up front so an
          incast of thousands of registrations does not rehash its way up
          from a tiny table (default 8) *)
  fallback : fallback option;
  guard : guard_envelope;
}

val default_config : config
(** Loss urgent on, ECN urgent off, 8-flow table hint, watchdog disabled,
    {!default_guard} envelope. *)

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

val admissions : t -> int
(** Installs that ran admission and compilation: every install that
    matched neither the flow's running program nor the kept one,
    accepted or rejected. *)

val fallbacks_triggered : t -> int

val fallback_probes_sent : t -> int
(** [Ready] re-handshakes the watchdog sent: to a silent agent, from
    fallback or quarantine, and on every tick while a fallback holds the
    flow. *)

val in_fallback : t -> flow:int -> bool

val quarantines_triggered : t -> int
(** Guard-envelope quarantines entered across all flows. *)

val in_quarantine : t -> flow:int -> bool

val has_compiled_program : t -> flow:int -> bool
(** Whether the flow holds a compiled, runnable program. Always agrees
    with [installed_program]: admission is atomic, so a crash between
    [Install] and [Install_result] can never leave a half-admitted
    program (source recorded but nothing runnable, or vice versa). *)

val guard_incidents : t -> flow:int -> Message.incident_kind -> int
(** The flow's incidents of one kind in its {e current} guard window
    (reset on every accepted install); 0 for a flow the datapath does
    not know. *)

val guard_incident_total : t -> int
(** Incidents of every kind across all flows and all guard windows: the
    datapath-wide "how badly were we abused" number for experiment
    stats. It reads [datapath.guard_incidents], which every incident
    feeds where it is counted ({!Ccp_obs.Obs.counter}). *)

(** Who is driving a flow right now. Each flow has exactly one owner, held
    in one field: the agent, the watchdog's fallback, or the guard
    envelope's quarantine, so the three are mutually exclusive by
    construction. [Native_fallback] covers both fallback modes, and
    [Awaiting_agent] the startup window before the first install, when
    the flow still runs at its initial window. *)
type controller = Agent_program | Native_fallback | Quarantined | Awaiting_agent

val controller : t -> flow:int -> controller option
