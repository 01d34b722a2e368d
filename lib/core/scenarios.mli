(** Canned experiment configurations for every figure and table in the
    paper's evaluation, plus the ablations DESIGN.md calls out. Each
    scenario returns structured data; {!Report} renders it. *)

open Ccp_util

(** Figure 2: CDF of IPC round-trip times for Netlink and Unix-domain
    sockets, with the CPU idle and loaded (Turbo Boost). *)
module Fig2 : sig
  type series = {
    label : string;
    model : Ccp_ipc.Latency_model.t;
    samples : Stats.Samples.t;
    paper_p99_us : float;
  }

  val run : ?samples:int -> ?seed:int -> unit -> series list
  (** Four series; 60 000 samples each by default, as in the paper. *)
end

(** Figures 3 and 4 compare a CCP implementation against the in-datapath
    one under identical conditions. *)
type comparison = {
  ccp : Experiment.result;
  native : Experiment.result;
}

(** Figure 3: TCP Cubic window evolution, CCP vs Linux. 1 Gbit/s link,
    10 ms RTT, 1 BDP of buffer; the paper reports 95.4 % / 94.4 %
    utilization and 16.1 / 15.8 ms median RTT. *)
module Fig3 : sig
  val rate_bps : float
  val base_rtt : Time_ns.t

  val run :
    ?rate_bps:float ->
    ?duration:Time_ns.t ->
    ?seed:int ->
    unit ->
    comparison
  (** Default duration 30 s at the paper's 1 Gbit/s; [rate_bps] scales the
      link down for quick regression runs. Traces ["cwnd.0"] carry the
      window series the paper plots. *)
end

(** Figure 4: NewReno reactivity — a second flow joins at t=20 s of 60;
    CCP and native should show the same convergence dynamics. *)
module Fig4 : sig
  val second_flow_start : Time_ns.t

  val run :
    ?rate_bps:float ->
    ?second_flow_start:Time_ns.t ->
    ?duration:Time_ns.t ->
    ?seed:int ->
    unit ->
    comparison

  val convergence_time : ?after:Time_ns.t -> Experiment.result -> Time_ns.t option
  (** First time after the second flow starts (default
      {!second_flow_start}; pass [after] when the run used a different
      join time) at which both flows' throughputs stay within 25 % of the
      fair share for one second. *)
end

val fidelity : comparison -> Ccp_obs.Fidelity.report
(** Paper-fidelity report for a CCP-vs-native comparison: aligns the two
    runs' per-change ["cwnd.0"] trace series (the first flow's) and
    returns the normalized cwnd RMSE, utilization delta, and median-RTT
    delta. *)

(** Figure 5: throughput with NIC offloads enabled/disabled on a
    10 Gbit/s link, averaged over 4 runs. *)
module Fig5 : sig
  type offload_setting = All_on | Tso_off | All_off

  type cell = {
    setting : offload_setting;
    system : string;  (** "linux" (native cubic) or "ccp" (CCP cubic) *)
    runs_gbps : float list;
    mean_gbps : float;
    sender_cpu_busy : float;  (** mean busy fraction *)
    receiver_cpu_busy : float;
    gro_mean_batch : float;
  }

  val setting_to_string : offload_setting -> string

  val run : ?runs:int -> ?duration:Time_ns.t -> ?seed:int -> unit -> cell list
  (** Six cells: 3 offload settings x 2 systems. *)
end

(** Beyond the paper: Fig. 3-style runs under a degraded control plane
    (the §5 "what if the agent fails?" question, made concrete by
    {!Ccp_ipc.Fault_plan} and the datapath's native-fallback watchdog). *)
module Degraded : sig
  val watchdog_after : Time_ns.t
  (** The canned silence threshold: 4 base RTTs. *)

  val reno_fallback : unit -> Ccp_datapath.Ccp_ext.fallback
  (** Native NewReno stand-in with the canned threshold. *)

  val run_one :
    ?duration:Time_ns.t ->
    ?seed:int ->
    ?faults:Ccp_ipc.Fault_plan.t ->
    ?fallback:Ccp_datapath.Ccp_ext.fallback ->
    unit ->
    Experiment.result
  (** One CCP-Reno flow on a 48 Mbit/s, 20 ms dumbbell under the given
      fault plan and fallback policy. *)

  type crash_comparison = {
    clean : Experiment.result;  (** no faults: the baseline *)
    without_fallback : Experiment.result;  (** crash, watchdog disabled *)
    with_fallback : Experiment.result;  (** crash, native-Reno watchdog *)
  }

  val crash_restart :
    ?crash_at:Time_ns.t ->
    ?restart_at:Time_ns.t ->
    ?duration:Time_ns.t ->
    ?seed:int ->
    unit ->
    crash_comparison
  (** The headline degraded scenario: the agent crashes at 5 s and
      restarts at 10 s of a 20 s run. Without fallback the flow coasts on
      its last window; with it the datapath reverts to native Reno within
      [watchdog_after] and hands back control after the restart. *)

  type lossy_point = {
    drop_probability : float;
    utilization : float;
    median_rtt : Time_ns.t;
    messages_dropped : int;
    fallbacks : int;
  }

  val lossy_ipc : ?duration:Time_ns.t -> ?seed:int -> unit -> lossy_point list
  (** Sweep i.i.d. IPC message loss from 0 to 50 %, native fallback armed. *)
end

(** The in-text §2.3 arithmetic: ACKs/s versus batches/s. *)
module Batching_load : sig
  type row = {
    link_bps : float;
    rtt : Time_ns.t;
    acks_per_sec : float;  (** MTU-sized segments per second *)
    batches_per_sec : float;  (** one report per RTT *)
  }

  val table : unit -> row list
end

(** Ablations over the design choices (DESIGN.md §5). *)
module Ablation : sig
  type interval_point = {
    interval_rtts : float;
    utilization : float;
    median_rtt : Time_ns.t;
    reports : int;
  }

  val report_interval : ?seed:int -> unit -> interval_point list
  (** CCP Reno with reports every 0.25-4 RTTs. *)

  type latency_point = {
    ipc_rtt : Time_ns.t;
    utilization : float;
    median_rtt : Time_ns.t;
  }

  val ipc_latency : ?seed:int -> unit -> latency_point list
  (** Constant IPC RTTs from 1 µs to 10 ms (the §5 low-RTT question). *)

  type urgent_point = {
    urgent_enabled : bool;
    utilization : float;
    median_rtt : Time_ns.t;
    drops : int;
  }

  val urgent : ?seed:int -> unit -> urgent_point list

  type batching_point = {
    mode : string;  (** "fold" or "vector" *)
    utilization : float;
    ipc_bytes_to_agent : int;
    reports : int;
  }

  val batching_mode : ?seed:int -> unit -> batching_point list
  (** Vegas fold vs vector (§2.4): same behaviour, different IPC cost. *)
end

(** Adversarial programs against the datapath's self-protection layers
    (admission control, runtime guard envelope, quarantine-to-native-CC) —
    the robustness counterpart of {!Degraded}. Every program here passes
    the agent-side static checks; the datapath must defend itself. *)
module Hostile : sig
  val zero_cwnd : Ccp_lang.Ast.program
  (** [Cwnd(0)] loop: stalls the flow without the guard cwnd floor. *)

  val huge_rate : Ccp_lang.Ast.program
  (** [Rate(1e300)] + [Cwnd(1e15)]: absurd knob values, clamped. *)

  val report_spam : Ccp_lang.Ast.program
  (** A report every microsecond, against the report rate limiter. *)

  val div_storm : Ccp_lang.Ast.program
  (** Divides by zero on every tick. *)

  val spin : Ccp_lang.Ast.program
  (** Computed zero-length wait; runs into the runtime wait floor. *)

  val wait_too_short : Ccp_lang.Ast.program
  (** [WaitRtts(0.05)], below the static floor — the one admission
      rejects outright. *)

  val all : (string * Ccp_lang.Ast.program) list

  val attacker : ?recover:bool -> string -> Ccp_lang.Ast.program -> Ccp_agent.Algorithm.t
  (** Installs the hostile program on ready; on rejection or quarantine,
      installs a corrected window program iff [recover] (default true). *)

  val armed_guard : ?threshold:int -> unit -> Ccp_datapath.Ccp_ext.guard_envelope
  (** Default guard envelope with quarantine armed: native NewReno mode,
      incident threshold 25. *)

  type point = {
    name : string;
    utilization : float;
    installs_admitted : int;
    installs_refused : int;
    quarantines : int;
    guard_incidents : int;
    recovered : bool;  (** a CCP program controls the flow at run end *)
    min_cwnd_seen : int;  (** floor of the cwnd trace, bytes *)
  }

  val run_one :
    ?duration:Time_ns.t ->
    ?seed:int ->
    ?threshold:int ->
    ?recover:bool ->
    string * Ccp_lang.Ast.program ->
    point
  (** One attacker flow on a 48 Mbit/s, 20 ms dumbbell with the armed
      guard envelope. *)

  val sweep : ?duration:Time_ns.t -> ?seed:int -> ?threshold:int -> unit -> point list
  (** {!run_one} over {!all}. *)
end

(** Robustness matrix: measurement-noise perturbations × CCP algorithms —
    the {!Ccp_perturb} counterpart of {!Hostile}. Hostile attacks the
    datapath with adversarial programs; here the network's *measurements*
    misbehave (jittered RTT samples, noisy delivery-rate estimates,
    stretch ACKs, a token-bucket policer) while well-behaved algorithms
    run on top. Each cell runs two same-algorithm flows on a 48 Mbit/s,
    20 ms dumbbell with the guard envelope armed, so the matrix also
    checks that noise alone never trips quarantine. *)
module Robustness : sig
  val default_rate_bps : float
  val default_base_rtt : Time_ns.t

  val algorithms : (string * (unit -> Ccp_agent.Algorithm.t)) list
  (** The measurement-hungry four: ccp-vegas (fold), ccp-bbr, ccp-timely,
      ccp-pcc. *)

  val perturbations : rate_bps:float -> (string * Ccp_perturb.Perturb_plan.t) list
  (** baseline (empty plan), rtt-jitter, rate-noise, stretch-ack, policer
      (3/4 of [rate_bps]), combined (jitter + rate-noise + stretch via
      {!Ccp_perturb.Perturb_plan.compose}). *)

  val algorithm_names : string list
  val perturbation_names : string list

  type cell = {
    algo : string;
    perturb : string;
    seed : int;
    utilization : float;
    jain_index : float;  (** over the cell's two flows *)
    median_rtt_inflation : float;  (** true median RTT / base RTT *)
    p95_rtt_inflation : float;
    retransmit_rate : float;  (** retransmits / segments sent, all flows *)
    timeouts : int;
    quarantines : int;
    installs_refused : int;
    fallbacks : int;
    guard_incidents : int;
    cwnd_rmse_vs_baseline : float option;
        (** flow-0 cwnd RMSE against the same (algo, seed) clean cell;
            [None] on the baseline cell itself, when "baseline" was not
            selected, or when the traces don't overlap *)
    perturb_stats : Ccp_perturb.Sampler.stats option;
        (** summed sampler counters; [None] on baseline cells *)
    result : Experiment.result;  (** the full run, for deeper digging *)
    telemetry : Ccp_obs.Obs.t option;
        (** armed bundle when run with [~with_telemetry:true], else [None] *)
  }

  type scorecard = {
    rate_bps : float;
    base_rtt : Time_ns.t;
    duration : Time_ns.t;
    seeds : int list;
    cells : cell list;  (** in seeds × algorithms × perturbations order *)
  }

  val schema_tag : string
  (** ["ccp-robustness-scorecard/v1"], the [schema] field of the JSON. *)

  val run :
    ?rate_bps:float ->
    ?base_rtt:Time_ns.t ->
    ?duration:Time_ns.t ->
    ?seeds:int list ->
    ?algos:string list ->
    ?perturbs:string list ->
    ?with_telemetry:bool ->
    unit ->
    scorecard
  (** Run the matrix (defaults: 48 Mbit/s, 20 ms, 10 s, seed 42, all
      algorithms, all perturbations). [algos]/[perturbs] select subsets
      by name; unknown names raise [Invalid_argument]. Deterministic:
      same arguments, same scorecard (including its JSON bytes).
      [with_telemetry] (default [false]) arms a fresh tracer+telemetry
      bundle per cell, adding a [health] section to each cell's JSON. *)

  val to_json : scorecard -> Ccp_obs.Json.t

  val validate_scorecard : Ccp_obs.Json.t -> (int, string) result
  (** Schema check for emitted scorecards (CI re-parses what it writes).
      [to_json] and this check derive from one {!Ccp_obs.Schema} spec:
      the schema tag, [seeds] as non-negative integers, every cell's
      finite metrics in range (utilization, Jain, RTT inflation with
      p95 >= median, retransmit rate, integer counters), RMSE null or
      non-negative, [perturb_stats] null or an object of integer
      counters, and the optional [health] section. [Ok n] = [n] valid
      cells. *)
end

(** Chaos: every resilience layer at once. IPC faults (1 % drops, 2 %
    latency spikes, one agent crash/restart), RTT-jitter measurement
    perturbation, and sustained ~4× agent overload (four CCP-Reno flows
    reporting every quarter-RTT against a one-report-per-quarter-RTT
    dispatch budget) on a dumbbell with the datapath clamp watchdog
    armed. Each seed runs the composition twice — cold (no checkpoints)
    and warm ({!Experiment.config.checkpoint_interval} armed) — and the
    scorecard reports per-flow cwnd recovery time after the restart,
    shed/starvation statistics, and the utilization floor. *)
module Chaos : sig
  val default_rate_bps : float
  val default_base_rtt : Time_ns.t

  val flow_count : int
  (** Four same-algorithm CCP-Reno flows. *)

  val overload : base_rtt:Time_ns.t -> Ccp_agent.Agent.overload
  val degrade : Ccp_agent.Agent.degrade
  val fallback : base_rtt:Time_ns.t -> Ccp_datapath.Ccp_ext.fallback
  (** Clamp to 4 segments after 2 RTTs of agent silence. *)

  val checkpoint_interval : Time_ns.t
  (** Warm cells checkpoint every 100 ms. *)

  val crash_from : duration:Time_ns.t -> Time_ns.t
  (** Outage start: 45 % into the run. *)

  type recovery = {
    flow_id : int;
    pre_crash_cwnd : float;
        (** last cwnd sample before the outage; 0 when the flow never
            reported a window *)
    recovery_rtts : float option;
        (** RTTs from restart until cwnd is back within 20 % of
            [pre_crash_cwnd]; [None] = never within the run *)
  }

  type cell = {
    mode : string;  (** ["cold"] or ["warm"] *)
    seed : int;
    utilization : float;
    jain_index : float;
    reports_shed : int;
    max_queue_wait_rtts : float;
        (** longest any dispatched report sat queued, in RTTs — the
            starvation bound under the 4× overload *)
    degradations : int;
    decode_failures : int;
    checkpoints_taken : int;  (** 0 on cold cells *)
    warm_restores : int;  (** 0 on cold cells *)
    fallbacks : int;
    recoveries : recovery list;  (** one per flow, ascending id *)
    mean_recovery_rtts : float option;  (** over flows that recovered *)
    result : Experiment.result;
    telemetry : Ccp_obs.Obs.t option;
        (** the cell's armed bundle when the scorecard ran
            [~with_telemetry:true] — source of its timeline document and
            the [health] section of its JSON — else [None] *)
  }

  type scorecard = {
    rate_bps : float;
    base_rtt : Time_ns.t;
    duration : Time_ns.t;
    seeds : int list;
    crash_from : Time_ns.t;
    crash_until : Time_ns.t;
    cells : cell list;  (** per seed: cold then warm *)
  }

  val schema_tag : string
  (** ["ccp-chaos-scorecard/v1"], the [schema] field of the JSON. *)

  val run :
    ?rate_bps:float ->
    ?base_rtt:Time_ns.t ->
    ?duration:Time_ns.t ->
    ?seeds:int list ->
    ?with_telemetry:bool ->
    ?window_hook:
      (mode:string ->
      seed:int ->
      Ccp_obs.Obs.t ->
      Ccp_obs.Timeseries.window ->
      unit) ->
    unit ->
    scorecard
  (** Run the composition (defaults: 96 Mbit/s, 20 ms, 12 s, seed 42).
      Deterministic: same arguments, same scorecard (including its JSON
      bytes). [with_telemetry] (default [false]) arms a fresh
      tracer+telemetry bundle per cell — with a zero wall clock, so the
      exported timelines stay byte-stable — adding a [health] section to
      each cell's JSON and making [ccp_sim chaos --timeline] possible.
      [window_hook] (needs [with_telemetry]) fires after every closed
      telemetry window with the cell's bundle — the [ccp_sim top] live
      view; {!Health} has already consumed the window when it fires. *)

  val to_json : scorecard -> Ccp_obs.Json.t

  val validate_scorecard : Ccp_obs.Json.t -> (int, string) result
  (** Schema check for emitted scorecards, derived with [to_json] from
      one {!Ccp_obs.Schema} spec: the schema tag, the crash window,
      [seeds] as non-negative integers, every cell's mode and metric
      ranges, that cold cells report no checkpoints or warm restores,
      recovery entries null or non-negative, and the optional [health]
      section shared with the timeline. [Ok n] = [n] valid cells. *)
end

(** Figure 2 measured end to end: full control-loop runs with the span
    tracer armed, reaction latency (report departure to control
    application) read back from the flight recorder's [Span] events.
    Four clean series on the paper's calibrated models, plus degraded
    series (latency spikes, message loss, agent crash with the native
    fallback watchdog). *)
module Reaction : sig
  type series = {
    label : string;
    model : Ccp_ipc.Latency_model.t;
    model_p99_us : float;  (** calibrated RTT p99 (the paper's number) *)
    reaction_us : Stats.Samples.t;
        (** per-actuated-span reaction latency in µs of simulated time *)
    spans : Ccp_obs.Tracer.stats;  (** span accounting for the whole run *)
    recorder_dropped : int;  (** recorder ring overwrites during the run *)
    fallback_after : Time_ns.t option;
        (** crash series only: crash instant to native-fallback takeover *)
    result : Experiment.result;
  }

  val run_one :
    ?duration:Time_ns.t ->
    ?seed:int ->
    label:string ->
    model:Ccp_ipc.Latency_model.t ->
    model_p99_us:float ->
    ?faults:Ccp_ipc.Fault_plan.t ->
    ?fallback:Ccp_datapath.Ccp_ext.fallback ->
    ?crash_at:Time_ns.t ->
    unit ->
    series
  (** One CCP-Reno flow on a 48 Mbit/s, 20 ms dumbbell with tracer and
      recorder armed. *)

  val run : ?duration:Time_ns.t -> ?seed:int -> unit -> series list
  (** The four clean calibrated series plus three degraded ones
      (spikes, 20 % loss, agent crash + fallback). Default 12 s runs. *)
end

(** Incast: the flow-count scale-out family. N CCP-controlled senders
    share one shallow-buffered bottleneck (BDP/4), starting either all
    at once ([Synchronized] — the partition/aggregate burst) or spread
    over the first quarter of the run ([Staggered]). Cells arm the
    agent's preallocated slot pool sized to the fleet and, by default,
    cross-flow report batching on the IPC channel, so one run exercises
    the whole flow-multiplexed control plane: per-flow registration
    churn, N reports per RTT on one channel, and the datapath flow
    table at capacity. The ["ccp-aggregate"] algorithm runs the same
    topology with all N flows as members of a single congestion-
    controlled aggregate (§3's flow aggregation). *)
module Incast : sig
  val default_rate_bps : float
  (** 96 Mbit/s. *)

  val default_base_rtt : Time_ns.t
  (** 10 ms. *)

  val default_batching : Ccp_ipc.Channel.batching
  (** 32 reports / 4096 bytes / 200 µs — the deadline bounds the extra
      control-loop delay batching can add. *)

  type arrival = Synchronized | Staggered

  val arrival_to_string : arrival -> string
  val arrival_of_string : string -> arrival
  (** Inverse of {!arrival_to_string}; raises [Invalid_argument] on
      unknown names. *)

  val algorithm_names : string list
  (** [["ccp-reno"; "ccp-aggregate"]]. *)

  type cell = {
    n : int;  (** concurrent senders *)
    arrival : arrival;
    algo : string;
    seed : int;
    utilization : float;
    jain_index : float;
    p99_queue_delay_ms : float;
        (** p99 RTT minus base RTT, clamped at zero — the incast tail *)
    retransmit_rate : float;
    timeouts : int;
    reports : int;  (** reports the agent dispatched *)
    reports_shed : int;
    decode_failures : int;
    wire_messages : int;  (** datapath->agent wire frames *)
    batches : int;  (** of which {!Ccp_ipc.Codec.seal_batch} frames *)
    pool_rejections : int;
        (** [Ready] registrations the slot pool refused — 0 unless a
            cell is run with fewer slots than flows *)
    result : Experiment.result;
    telemetry : Ccp_obs.Obs.t option;
        (** armed bundle when run with [~with_telemetry:true] — its
            [flow.*] Top-K sketches make per-flow contributions
            observable at N=2048 without O(N) metric names — else
            [None] *)
  }

  type scorecard = {
    rate_bps : float;
    base_rtt : Time_ns.t;
    duration : Time_ns.t;
    batching : bool;
    seeds : int list;
    cells : cell list;
  }

  val schema_tag : string
  (** ["ccp-incast-scorecard/v1"], the [schema] field of the JSON. *)

  val run_cell :
    ?with_telemetry:bool ->
    rate_bps:float ->
    base_rtt:Time_ns.t ->
    duration:Time_ns.t ->
    batching:bool ->
    seed:int ->
    n:int ->
    arrival:arrival ->
    algo:string ->
    unit ->
    cell
  (** One N-flow incast run: buffer BDP/4 (floored at 9000 bytes), 10 %
      warmup, agent slot pool and datapath flow table sized
      [max 16 n]. Raises [Invalid_argument] on an unknown [algo]. *)

  val run :
    ?rate_bps:float ->
    ?base_rtt:Time_ns.t ->
    ?duration:Time_ns.t ->
    ?ns:int list ->
    ?arrivals:arrival list ->
    ?algos:string list ->
    ?seeds:int list ->
    ?batching:bool ->
    ?with_telemetry:bool ->
    unit ->
    scorecard
  (** Run the matrix (defaults: 96 Mbit/s, 10 ms, 1 s, N in
      {16, 64, 256}, both arrivals, both algorithms, seed 42, batching
      on). Deterministic: same arguments, same scorecard (including its
      JSON bytes) — batching changes wire traffic but draws nothing
      from any RNG stream. *)

  val to_json : scorecard -> Ccp_obs.Json.t

  val validate_scorecard : Ccp_obs.Json.t -> (int, string) result
  (** Schema check for emitted scorecards (CI re-parses what it
      writes), derived with [to_json] from one {!Ccp_obs.Schema} spec:
      schema tag, [seeds] as non-negative integers, [n >= 1],
      arrival/algo names, metric ranges (utilization, Jain — zero
      admissible under starvation —, tail delay, retransmit rate),
      counter integrality, [batches <= wire_messages], no batches in an
      unbatched scorecard, and reports implying wire frames. [Ok n] =
      [n] valid cells. *)
end
