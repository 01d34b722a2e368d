(** The CCP agent: the user-space process between algorithms and datapaths.

    The agent owns the agent end of the IPC {!Ccp_ipc.Channel}, keeps one
    per-flow registry (a generation-checked {!Flow_table}), picks an algorithm for each new flow (different
    flows on one host may run different algorithms — the paper's file
    download vs. video call example), builds each algorithm instance's
    {!Algorithm.handle} with policy enforcement baked in, and dispatches
    incoming reports and urgent events to the right instance.

    Three optional resilience layers harden it against the failure modes
    a real deployment hits first: {!type-overload} bounds the report
    backlog with deterministic shedding and budgeted round-robin
    dispatch; {!type-degrade} quarantines a flow whose handlers keep
    failing (the datapath watchdog then takes that flow to native CC)
    with exponential-backoff re-admission; and {!checkpoint}/{!restore}
    snapshot per-flow algorithm state so a crashed-and-restarted agent
    resumes warm instead of cold. All three are off by default, and off
    means byte-identical to the pre-resilience agent. *)

open Ccp_util
open Ccp_eventsim
open Ccp_ipc

type t

(** Overload control. Reports (only — urgents bypass batching, §2.4) are
    parked in per-flow FIFO queues and drained [dispatch_budget] at a
    time, round-robin across flows, every [dispatch_interval]. Above
    [high_watermark] the agent sheds the oldest report of the
    deepest-backlog flow (ties to the lowest flow id), never a flow's
    only queued report; [queue_capacity] is the hard cap. Shed reports
    finalize their span with the [Shed] disposition and count in
    [agent.reports_shed]. *)
type overload = {
  queue_capacity : int;
  high_watermark : int;
  dispatch_budget : int;
  dispatch_interval : Time_ns.t;
}

(** Per-flow degradation: [error_threshold] {e consecutive} handler
    failures quarantine that flow agent-side — its messages are dropped
    (so the datapath watchdog reverts it to native CC) while every other
    flow keeps full service. After a backoff (starting at
    [backoff_initial], doubling per re-trip up to [backoff_max]) the
    agent rebuilds a fresh algorithm instance and re-admits the flow. *)
type degrade = {
  error_threshold : int;
  backoff_initial : Time_ns.t;
  backoff_max : Time_ns.t;
}

val create :
  sim:Sim.t ->
  channel:Channel.t ->
  choose:(Algorithm.flow_info -> Algorithm.t) ->
  ?policy:(Algorithm.flow_info -> Policy.t) ->
  ?overload:overload ->
  ?degrade:degrade ->
  ?flow_pool:int ->
  ?obs:Ccp_obs.Obs.t ->
  unit ->
  t
(** [choose] selects the algorithm for each new flow; [policy] (default
    unrestricted) selects its policy. Registers the agent as the channel's
    agent-side endpoint. The agent's counters (reports, urgents,
    installs, handler errors, and the resilience counters such as
    [agent.reports_shed] and [agent.warm_restores]) live in [obs]'s
    metrics registry when it is given, and in private counters otherwise
    ({!Ccp_obs.Obs.counter}); the accessors below read them either way.
    With [obs] the agent also publishes the [agent.queue_depth] and
    [agent.pool.*] gauges. Raises [Invalid_argument] on a nonsensical
    [overload]/[degrade] (non-positive sizes or times, watermark above
    capacity, [backoff_max < backoff_initial]) or non-positive
    [flow_pool].

    Every handle action is generation-checked against the registry, so a
    closure or timer holding a handle to a torn-down flow is counted
    stale and dropped instead of acting on whichever flow reused the
    slot. Without [flow_pool] the registry grows as flows register.
    [flow_pool] caps it at that many slots (rounded up to a power of
    two): a [Ready] arriving with every slot occupied is refused —
    counted in {!registrations_rejected}, the flow left to its datapath
    watchdog. *)

val reset : t -> unit
(** Drop every per-flow algorithm instance, as a crashed-and-restarted
    agent process would: counters survive (they are observability, not
    state) but flows must re-register via [Ready] before the agent serves
    them again. The datapath watchdog's fallback probes provide exactly
    that re-handshake. Queued reports are shed (their spans finalized) and
    any staged {!restore} snapshot is discarded. Used by fault-injection
    experiments ({!Ccp_ipc.Fault_plan} agent outages). *)

(** {1 Checkpoint / warm restore} *)

val checkpoint : t -> Checkpoint.t
(** Snapshot every registered flow: algorithm name, last commanded
    cwnd/rate, and the algorithm's own registers
    ([Algorithm.handlers.on_checkpoint]; a raising checkpoint handler
    yields an empty register set rather than aborting the snapshot).
    Flows are listed in ascending id order, so the encoding is
    deterministic. *)

val restore : t -> Checkpoint.t -> unit
(** Stage a snapshot for replay. Nothing happens immediately: when a
    [Ready] re-registers a flow present in the snapshot {e with the same
    algorithm name}, the fresh instance gets [on_restore registers]
    before its [on_ready], or — for register-less algorithms — a
    [set_cwnd]/[set_rate] nudge to the last commanded values after it.
    Each flow's staged entry is consumed on first use; mismatched
    algorithm names discard the stale entry. Call after {!reset} when
    simulating a warm restart. *)

(** {1 Introspection} *)

val flow_count : t -> int
val algorithm_name : t -> flow:int -> string option

val flow_degraded : t -> flow:int -> bool
(** The flow is currently quarantined agent-side awaiting re-admission. *)

val reports_received : t -> int
val urgents_received : t -> int
val installs_sent : t -> int
val handler_errors : t -> int
(** Exceptions raised by algorithm handlers; the agent isolates them so a
    buggy algorithm cannot take down other flows (§5 safety). *)

val reports_shed : t -> int
(** Reports dropped by overload control (watermark/capacity sheds, purges
    on degrade/close, and queue loss at [reset]). *)

val reports_queued : t -> int
(** Current queue depth across all flows (0 unless [overload] is armed). *)

val max_queue_wait : t -> Time_ns.t
(** Longest any {e dispatched} report sat queued. Since the shedder never
    takes a flow's only queued report, this bounds how long a backlogged
    flow went unserved — the starvation metric. Zero when [overload] is
    off. *)

val dispatch_rounds : t -> int
val degradations : t -> int
(** Times any flow was quarantined agent-side. *)

val degraded_drops : t -> int
(** Messages dropped because their flow was degraded. *)

val warm_restores : t -> int
(** Flows re-registered with a checkpoint snapshot applied. *)

val registrations_rejected : t -> int
(** [Ready] registrations refused because the [flow_pool] was exhausted:
    the pool's [rejected] count ({!pool_stats}). Always 0 without
    [flow_pool]. *)

val typechecks : t -> int
(** Programs the agent typechecked before sending them. A handle
    re-installing its own last program, and any flow installing a
    program bit-identical to the last one that passed, skip the check. *)

val pool_stats : t -> Flow_table.stats
(** Registry accounting: capacity, live flows, lifetime churn, stale
    handle references and rejections. With [obs] the last two are the
    [agent.pool.stale_derefs] and [agent.registrations_rejected] rows. *)
