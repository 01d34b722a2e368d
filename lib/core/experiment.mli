(** Experiment driver: build a dumbbell, attach native and/or CCP flows,
    run, and collect the metrics the paper reports.

    A single experiment hosts any mix of flows. All CCP flows on the host
    share one IPC channel, one CCP datapath extension, and one agent — the
    paper's architecture, where a single user-space agent serves every
    flow (and different flows may run different algorithms). *)

open Ccp_util
open Ccp_net
open Ccp_datapath

type cc_spec =
  | Native_cc of (unit -> Congestion_iface.t)
      (** in-datapath controller; fresh instance per flow *)
  | Ccp_cc of Ccp_agent.Algorithm.t  (** off-datapath algorithm via the agent *)

(** Every flow sends an unlimited backlog. *)
type flow_spec = {
  cc : cc_spec;
  start_at : Time_ns.t;
  delayed_ack_every : int;
}

val flow : ?start_at:Time_ns.t -> ?delayed_ack_every:int -> cc_spec -> flow_spec

type offload_spec = {
  sender : Offload.Sender_path.config;
  receiver : Offload.Receiver_path.config;
}

(** Live handles to the shared CCP plumbing, passed to [config.inspect]
    just after wiring and before the simulation runs. Intended for tests
    and scenarios that schedule mid-run observations (e.g. "is the flow in
    fallback at t=7s?") on [h_sim]. *)
type handles = {
  h_sim : Ccp_eventsim.Sim.t;
  h_channel : Ccp_ipc.Channel.t;
  h_datapath : Ccp_ext.t;
  h_agent : Ccp_agent.Agent.t;
}

type config = {
  seed : int;
  rate_bps : float;
  base_rtt : Time_ns.t;
  buffer_bytes : int;
  ecn_threshold_bytes : int option;
  duration : Time_ns.t;
  warmup : Time_ns.t;  (** excluded from utilization/goodput accounting *)
  flows : flow_spec list;
  ipc : Ccp_ipc.Latency_model.t;  (** round-trip model for CCP flows *)
  ipc_batching : Ccp_ipc.Channel.batching option;
      (** cross-flow report batching watermarks on the IPC channel;
          [None] (the default) sends one wire frame per message — the
          original framing, byte-identical to a build without batching *)
  datapath : Ccp_ext.config;
  sample_interval : Time_ns.t;  (** throughput/queue series resolution *)
  offloads : offload_spec option;  (** Figure 5's host CPU model, off by default *)
  policy : (Ccp_agent.Algorithm.flow_info -> Ccp_agent.Policy.t) option;
  jitter : Time_ns.t;  (** per-packet forward-path jitter (reordering); 0 = off *)
  rate_schedule : (Time_ns.t * float) list;
      (** piecewise-constant bottleneck capacity (cellular-style); empty =
          the fixed [rate_bps] *)
  faults : Ccp_ipc.Fault_plan.t;
      (** IPC fault injection; agent outages additionally reset the agent's
          flow table at each restart instant. [Fault_plan.none] = clean. *)
  perturb : Ccp_perturb.Perturb_plan.t;
      (** measurement-noise perturbation applied to every flow's datapath
          sampling (RTT jitter, delivery-rate error, stretch ACKs, token-
          bucket policer); orthogonal to [faults].
          [Perturb_plan.none] (the default) = clean measurements, with
          runs byte-identical to an unperturbed build. *)
  agent_overload : Ccp_agent.Agent.overload option;
      (** agent-side report-queue bounds and budgeted dispatch; [None]
          (the default) dispatches every message synchronously *)
  agent_degrade : Ccp_agent.Agent.degrade option;
      (** per-flow agent-side quarantine of repeatedly failing handlers
          with back-off re-admission; [None] = never degrade *)
  agent_flow_pool : int option;
      (** hard cap on the agent's per-flow registry
          ({!Ccp_agent.Flow_table}): registrations past it are refused
          and counted; [None] (the default) lets the registry grow *)
  checkpoint_interval : Time_ns.t option;
      (** snapshot the agent's per-flow state ({!Ccp_ipc.Checkpoint})
          this often, and replay the latest snapshot after each
          [faults] agent-outage restart (warm restart); [None] (the
          default) restarts cold. No effect without agent outages. *)
  inspect : (handles -> unit) option;
      (** called once after CCP wiring when any flow is CCP; ignored
          otherwise *)
  obs : Ccp_obs.Obs.t option;
      (** observability bundle threaded through the channel, datapath
          extension, agent, and every TCP flow; [None] (the default)
          keeps all of them on their zero-cost paths. Per-flow
          [Flow_sample] trace events are spaced at least 10 ms apart. *)
}

val default_config : rate_bps:float -> base_rtt:Time_ns.t -> duration:Time_ns.t -> config
(** Buffer defaults to 1 BDP; seed 42; no ECN; no warmup; no offloads;
    Netlink-idle IPC; 100 ms sampling; observability off. *)

type flow_result = {
  flow_id : int;
  cc_name : string;
  delivered_bytes : int;  (** in-order bytes at the receiver, whole run *)
  goodput_bps : float;  (** over [warmup, duration] *)
  mean_rtt : Time_ns.t;
  segments_sent : int;  (** transmissions, retransmissions included *)
  retransmits : int;
  timeouts : int;
  recoveries : int;
  final_cwnd : int;
}

type result = {
  config : config;
  utilization : float;  (** total goodput / capacity over the measured window *)
  median_rtt : Time_ns.t;  (** across all per-ACK samples of all flows *)
  p95_rtt : Time_ns.t;
  p99_rtt : Time_ns.t;  (** incast's tail metric: p99 over the same samples *)
  flows : flow_result list;
  drops : int;
  ecn_marks : int;
  trace : Trace.t;
      (** series: ["cwnd.<i>"] (bytes, per change), ["rtt_ms.<i>"] (per
          sample), ["throughput_mbps.<i>"] and ["queue_bytes"] (sampled) *)
  jain_index : float;  (** over per-flow goodputs of flows active at the end *)
  agent_stats : agent_stats option;  (** present when any flow is CCP *)
  sender_cpu : cpu_stats option;  (** present when offloads are modelled *)
  receiver_cpu : cpu_stats option;
  perturb_stats : Ccp_perturb.Sampler.stats option;
      (** summed over all flows; present when [config.perturb] is
          non-empty *)
}

and agent_stats = {
  reports : int;
  urgents : int;
  installs : int;
  handler_errors : int;
  ipc_bytes_to_agent : int;
  ipc_bytes_to_datapath : int;
  fallbacks : int;  (** watchdog fallback activations across all flows *)
  fallback_probes : int;
      (** [Ready] re-handshakes the watchdog sent to a silent agent, from
          fallback or quarantine *)
  ipc_faults : Ccp_ipc.Channel.fault_stats;  (** all-zero under a clean channel *)
  installs_admitted : int;  (** installs the datapath's admission control accepted *)
  installs_refused : int;  (** installs rejected with an [Install_result] reason *)
  quarantines : int;  (** guard-envelope quarantines entered *)
  guard_incidents : int;  (** total runtime-guardrail incidents, all flows *)
  decode_failures : int;  (** IPC deliveries whose bytes failed to decode *)
  reports_shed : int;  (** reports dropped by agent overload control *)
  degradations : int;  (** agent-side per-flow quarantine entries *)
  checkpoints_taken : int;
      (** agent state snapshots written: the [agent.checkpoints_taken]
          counter *)
  warm_restores : int;  (** flows re-registered with snapshot state applied *)
  max_queue_wait : Time_ns.t;
      (** longest any dispatched report sat in the overload queue —
          the starvation bound; zero with [agent_overload] off *)
}

and cpu_stats = {
  busy_fraction : float;  (** busy time / run duration *)
  operations : int;
  segments_total : int;
  mean_batch : float;
}

val run : config -> result
