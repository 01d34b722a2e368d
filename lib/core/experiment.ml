open Ccp_util
open Ccp_eventsim
open Ccp_net
open Ccp_datapath

type cc_spec =
  | Native_cc of (unit -> Congestion_iface.t)
  | Ccp_cc of Ccp_agent.Algorithm.t

type flow_spec = {
  cc : cc_spec;
  start_at : Time_ns.t;
  delayed_ack_every : int;
}

let flow ?(start_at = Time_ns.zero) ?(delayed_ack_every = 1) cc =
  { cc; start_at; delayed_ack_every }

type offload_spec = {
  sender : Offload.Sender_path.config;
  receiver : Offload.Receiver_path.config;
}

(* Live handles to the CCP plumbing of a running experiment, for tests
   that need to observe or poke mid-run (schedule assertions on h_sim). *)
type handles = {
  h_sim : Sim.t;
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
  warmup : Time_ns.t;
  flows : flow_spec list;
  ipc : Ccp_ipc.Latency_model.t;
  ipc_batching : Ccp_ipc.Channel.batching option;
      (* cross-flow report batching watermarks on the IPC channel;
         None = one wire frame per message, the original framing *)
  datapath : Ccp_ext.config;
  sample_interval : Time_ns.t;
  offloads : offload_spec option;
  policy : (Ccp_agent.Algorithm.flow_info -> Ccp_agent.Policy.t) option;
  jitter : Time_ns.t;
  rate_schedule : (Time_ns.t * float) list;
  faults : Ccp_ipc.Fault_plan.t;
  perturb : Ccp_perturb.Perturb_plan.t;
      (* measurement-noise perturbation on every flow's datapath
         sampling; Perturb_plan.none = clean measurements *)
  agent_overload : Ccp_agent.Agent.overload option;
  agent_degrade : Ccp_agent.Agent.degrade option;
  agent_flow_pool : int option;
      (* hard cap on the agent's per-flow registry; None = it grows *)
  checkpoint_interval : Time_ns.t option;
      (* snapshot agent state this often and replay the latest snapshot
         after each agent-outage restart; None = cold restarts *)
  inspect : (handles -> unit) option;
  obs : Ccp_obs.Obs.t option;
}

let default_config ~rate_bps ~base_rtt ~duration =
  let bdp = int_of_float (rate_bps *. Time_ns.to_float_sec base_rtt /. 8.0) in
  {
    seed = 42;
    rate_bps;
    base_rtt;
    buffer_bytes = max 3000 bdp;
    ecn_threshold_bytes = None;
    duration;
    warmup = Time_ns.zero;
    flows = [];
    ipc = Ccp_ipc.Latency_model.netlink_idle;
    ipc_batching = None;
    datapath = Ccp_ext.default_config;
    sample_interval = Time_ns.ms 100;
    offloads = None;
    policy = None;
    jitter = Time_ns.zero;
    rate_schedule = [];
    faults = Ccp_ipc.Fault_plan.none;
    perturb = Ccp_perturb.Perturb_plan.none;
    agent_overload = None;
    agent_degrade = None;
    agent_flow_pool = None;
    checkpoint_interval = None;
    inspect = None;
    obs = None;
  }

type flow_result = {
  flow_id : int;
  cc_name : string;
  delivered_bytes : int;
  goodput_bps : float;
  mean_rtt : Time_ns.t;
  segments_sent : int;
  retransmits : int;
  timeouts : int;
  recoveries : int;
  final_cwnd : int;
}

type result = {
  config : config;
  utilization : float;
  median_rtt : Time_ns.t;
  p95_rtt : Time_ns.t;
  p99_rtt : Time_ns.t;
  flows : flow_result list;
  drops : int;
  ecn_marks : int;
  trace : Trace.t;
  jain_index : float;
  agent_stats : agent_stats option;
  sender_cpu : cpu_stats option;
  receiver_cpu : cpu_stats option;
  perturb_stats : Ccp_perturb.Sampler.stats option;
}

and agent_stats = {
  reports : int;
  urgents : int;
  installs : int;
  handler_errors : int;
  ipc_bytes_to_agent : int;
  ipc_bytes_to_datapath : int;
  fallbacks : int;
  fallback_probes : int;
  ipc_faults : Ccp_ipc.Channel.fault_stats;
  installs_admitted : int;
  installs_refused : int;
  quarantines : int;
  guard_incidents : int;
  decode_failures : int;
  reports_shed : int;
  degradations : int;
  checkpoints_taken : int;
  warm_restores : int;
  max_queue_wait : Time_ns.t;
}

and cpu_stats = {
  busy_fraction : float;
  operations : int;
  segments_total : int;
  mean_batch : float;
}

(* Wiring for one flow: sender, receiver, and their attachment to the
   dumbbell (possibly through the offload CPU model). *)
type flow_instance = {
  spec : flow_spec;
  id : int;
  sender : Tcp_flow.t;
  receiver : Tcp_receiver.t;
  rtt_samples : Stats.Samples.t;
  sampler : Ccp_perturb.Sampler.t option;
  mutable delivered_at_warmup : int;
}

let has_ccp_flows (config : config) =
  List.exists (fun f -> match f.cc with Ccp_cc _ -> true | Native_cc _ -> false) config.flows

let run (config : config) =
  if config.flows = [] then invalid_arg "Experiment.run: no flows";
  let sim = Sim.create ~seed:config.seed () in
  let trace = Trace.create sim in
  let dumbbell =
    Topology.Dumbbell.create ~sim ~rate_bps:config.rate_bps ~base_rtt:config.base_rtt
      ~buffer_bytes:config.buffer_bytes ?ecn_threshold_bytes:config.ecn_threshold_bytes
      ~jitter:config.jitter ~rate_schedule:config.rate_schedule ()
  in
  (* Shared CCP plumbing, created only if some flow needs it. *)
  let ccp_parts =
    if not (has_ccp_flows config) then None
    else begin
      let channel =
        Ccp_ipc.Channel.create ~sim ~latency:config.ipc ~faults:config.faults
          ?batching:config.ipc_batching ?obs:config.obs ()
      in
      let ccp_ext = Ccp_ext.create ~sim ~channel ~config:config.datapath ?obs:config.obs () in
      let algorithms = Hashtbl.create 4 in
      let choose (info : Ccp_agent.Algorithm.flow_info) =
        match Hashtbl.find_opt algorithms info.Ccp_agent.Algorithm.flow with
        | Some algo -> algo
        | None -> failwith "Experiment: unknown CCP flow"
      in
      let agent =
        Ccp_agent.Agent.create ~sim ~channel ~choose
          ?policy:config.policy ?overload:config.agent_overload
          ?degrade:config.agent_degrade ?flow_pool:config.agent_flow_pool
          ?obs:config.obs ()
      in
      (* Warm-restart support: snapshot the agent's per-flow state on a
         timer, keeping only the latest encoded blob — exactly what a
         real agent persisting to a state file would have available
         after a crash. *)
      let latest_checkpoint = ref None in
      let checkpoints_taken =
        Ccp_obs.Obs.counter config.obs ~unit_:"snapshots" "agent.checkpoints_taken"
      in
      (match config.checkpoint_interval with
      | Some interval when Time_ns.is_positive interval ->
        let rec tick () =
          latest_checkpoint :=
            Some (Ccp_ipc.Checkpoint.encode (Ccp_agent.Agent.checkpoint agent));
          Ccp_obs.Metrics.incr checkpoints_taken;
          ignore (Sim.schedule_after sim ~delay:interval (fun () -> tick ()))
        in
        ignore (Sim.schedule_after sim ~delay:interval (fun () -> tick ()))
      | Some _ | None -> ());
      (* A crashed agent loses its per-flow state; model the restart as a
         reset at the end of each outage. The channel already blackholes
         its traffic for the interval, so the pair gives the full crash:
         silence, then a process waiting for Ready probes — amnesiac on a
         cold restart, or staged with the latest checkpoint on a warm
         one. A blob that fails to decode restores nothing: a corrupt
         state file must never be worse than no state file. *)
      List.iter
        (fun (o : Ccp_ipc.Fault_plan.interval) ->
          ignore
            (Sim.schedule sim ~at:o.Ccp_ipc.Fault_plan.until (fun () ->
                 Ccp_agent.Agent.reset agent;
                 match !latest_checkpoint with
                 | Some blob -> (
                   match Ccp_ipc.Checkpoint.decode blob with
                   | Ok snapshot -> Ccp_agent.Agent.restore agent snapshot
                   | Error _ -> ())
                 | None -> ())))
        config.faults.Ccp_ipc.Fault_plan.agent_outages;
      Option.iter
        (fun inspect ->
          inspect { h_sim = sim; h_channel = channel; h_datapath = ccp_ext; h_agent = agent })
        config.inspect;
      Some (channel, ccp_ext, agent, algorithms, checkpoints_taken)
    end
  in
  (* Offload paths (Figure 5). One sender path and one receiver path per
     flow: each host's stack is modelled independently. *)
  let make_flow id spec =
    let cc =
      match spec.cc with
      | Native_cc make_cc -> make_cc ()
      | Ccp_cc algo ->
        let _, ccp_ext, _, algorithms, _ = Option.get ccp_parts in
        Hashtbl.replace algorithms id algo;
        Ccp_ext.congestion_control ccp_ext
    in
    let tcp_config =
      { Tcp_flow.default_config with ecn_capable = config.ecn_threshold_bytes <> None }
    in
    (* Per-flow measurement-noise sampler. Seeded from the experiment
       seed and the flow id — never from the simulator's RNG — so arming
       a perturbation shifts no draw the rest of the simulation makes,
       and the empty plan leaves runs byte-identical. *)
    let sampler =
      if Ccp_perturb.Perturb_plan.is_none config.perturb then None
      else
        Some
          (Ccp_perturb.Sampler.create
             ~seed:(config.seed lxor ((id + 1) * 0x9E3779B9))
             config.perturb)
    in
    (* Receiver side: ACKs go straight onto the reverse path. Stretch
       ACKs are the receiver's own delayed-ACK machinery turned up, so
       dup-ACK/ECN immediacy (and with it loss recovery) is preserved. *)
    let receiver =
      Tcp_receiver.create ~flow:id
        ~send_ack:(fun ack -> Topology.Dumbbell.send_ack dumbbell ack)
        ~delayed_ack_every:
          (max spec.delayed_ack_every
             (Ccp_perturb.Perturb_plan.ack_stretch_every config.perturb))
        ()
    in
    let receiver_path =
      Option.map
        (fun (off : offload_spec) ->
          Offload.Receiver_path.create ~sim ~config:off.receiver ~deliver:(fun batch ->
              Tcp_receiver.on_batch receiver batch))
        config.offloads
    in
    let data_sink =
      match receiver_path with
      | Some path -> fun pkt -> Offload.Receiver_path.receive path pkt
      | None -> fun pkt -> Tcp_receiver.on_data receiver pkt
    in
    (* Sender side: segments and incoming ACKs pass through the host CPU
       model if present. The flow's real ACK handler is attached to the
       path's ack_out after creation, breaking the definition cycle. *)
    let sender_ref = ref None in
    (* The token-bucket policer sits at the link injection point (after
       any offload path), dropping data packets that find the bucket
       empty — loss without queueing delay. *)
    let inject_data =
      match sampler with
      | Some s when (Ccp_perturb.Sampler.plan s).Ccp_perturb.Perturb_plan.policer <> None ->
        fun (pkt : Packet.t) ->
          if Ccp_perturb.Sampler.admit_data s ~now:(Sim.now sim) ~bytes:pkt.Packet.wire_size
          then Topology.Dumbbell.send_data dumbbell pkt
      | Some _ | None -> fun pkt -> Topology.Dumbbell.send_data dumbbell pkt
    in
    let sender_path =
      Option.map
        (fun (off : offload_spec) ->
          Offload.Sender_path.create ~sim ~config:off.sender ~out:inject_data
            ~ack_out:(fun ack ->
              match !sender_ref with
              | Some sender -> Tcp_flow.on_ack sender ack
              | None -> ())
            ())
        config.offloads
    in
    let transmit =
      match sender_path with
      | Some path -> fun pkt -> Offload.Sender_path.send path pkt
      | None -> inject_data
    in
    let sender =
      Tcp_flow.create ~sim ~flow:id ~config:tcp_config ~cc ~transmit ?obs:config.obs
        ?perturb:sampler ()
    in
    sender_ref := Some sender;
    let ack_sink =
      match sender_path with
      | Some path -> fun ack -> Offload.Sender_path.receive_ack path ack
      | None -> fun ack -> Tcp_flow.on_ack sender ack
    in
    Topology.Dumbbell.register dumbbell ~flow:id ~data_sink ~ack_sink;
    let rtt_samples = Stats.Samples.create () in
    let cwnd_series = Trace.handle trace (Printf.sprintf "cwnd.%d" id) in
    Tcp_flow.set_cwnd_listener sender (fun _at cwnd ->
        Trace.push cwnd_series (float_of_int cwnd));
    let rtt_series = Trace.handle trace (Printf.sprintf "rtt_ms.%d" id) in
    Tcp_flow.set_rtt_listener sender (fun at rtt ->
        if Time_ns.compare at config.warmup >= 0 then
          Stats.Samples.add rtt_samples (Time_ns.to_float_us rtt);
        Trace.push rtt_series (Time_ns.to_float_ms rtt));
    ignore (Sim.schedule sim ~at:spec.start_at (fun () -> Tcp_flow.start sender));
    ({ spec; id; sender; receiver; rtt_samples; sampler; delivered_at_warmup = 0 },
     sender_path, receiver_path)
  in
  let instances = List.mapi (fun id spec -> make_flow id spec) config.flows in
  let flows_only = List.map (fun (f, _, _) -> f) instances in
  (* Periodic series: per-flow throughput and bottleneck queue depth. *)
  List.iter
    (fun inst ->
      let series = Printf.sprintf "throughput_mbps.%d" inst.id in
      let last = ref 0 in
      Trace.sample_every trace ~series ~every:config.sample_interval (fun () ->
          let delivered = Tcp_receiver.delivered_bytes inst.receiver in
          let delta = delivered - !last in
          last := delivered;
          float_of_int (delta * 8) /. Time_ns.to_float_sec config.sample_interval /. 1e6))
    flows_only;
  Trace.sample_every trace ~series:"queue_bytes" ~every:config.sample_interval (fun () ->
      float_of_int (Queue_disc.backlog_bytes (Link.qdisc (Topology.Dumbbell.forward dumbbell))));
  (* Mirror the queue series into the flight recorder. *)
  (match config.obs with
  | Some obs when obs.Ccp_obs.Obs.recorder <> None ->
    let qdisc = Link.qdisc (Topology.Dumbbell.forward dumbbell) in
    let rec sample_queue () =
      Ccp_obs.Obs.record obs ~at:(Sim.now sim)
        (Ccp_obs.Recorder.Queue_sample { bytes = Queue_disc.backlog_bytes qdisc });
      ignore (Sim.schedule_after sim ~delay:config.sample_interval (fun () -> sample_queue ()))
    in
    ignore (Sim.schedule sim ~at:Time_ns.zero (fun () -> sample_queue ()))
  | Some _ | None -> ());
  (* Telemetry: drive the windowed sampler on its own sim-time tick. The
     loop exists only when the bundle was created with [~telemetry:true],
     so a plain run schedules nothing new. *)
  (match config.obs with
  | Some { Ccp_obs.Obs.timeseries = Some ts; _ } ->
    let interval = Ccp_obs.Timeseries.tick_interval_ns ts in
    let rec telemetry_tick () =
      ignore (Ccp_obs.Timeseries.tick ts ~now:(Sim.now sim) : bool);
      ignore (Sim.schedule_after sim ~delay:interval (fun () -> telemetry_tick ()))
    in
    ignore (Sim.schedule sim ~at:Time_ns.zero (fun () -> telemetry_tick ()))
  | Some _ | None -> ());
  (* Snapshot delivered bytes at the end of warmup for goodput accounting. *)
  if Time_ns.is_positive config.warmup then
    ignore
      (Sim.schedule sim ~at:config.warmup (fun () ->
           List.iter
             (fun inst ->
               inst.delivered_at_warmup <- Tcp_receiver.delivered_bytes inst.receiver)
             flows_only));
  Sim.run ~until:config.duration sim;
  (* Close the partial telemetry window so tail activity (and its health
     evaluation) is not lost. *)
  (match config.obs with
  | Some { Ccp_obs.Obs.timeseries = Some ts; _ } ->
    Ccp_obs.Timeseries.flush ts ~now:(Sim.now sim)
  | Some _ | None -> ());
  (* --- collect results --- *)
  let measured_window = Time_ns.sub config.duration config.warmup in
  let measured_seconds = Time_ns.to_float_sec measured_window in
  let flow_results =
    List.map
      (fun inst ->
        let delivered = Tcp_receiver.delivered_bytes inst.receiver in
        let measured = delivered - inst.delivered_at_warmup in
        let goodput =
          if measured_seconds > 0.0 then float_of_int (measured * 8) /. measured_seconds
          else 0.0
        in
        let mean_rtt =
          if Stats.Samples.count inst.rtt_samples = 0 then Time_ns.zero
          else Time_ns.of_float_sec (Stats.Samples.mean inst.rtt_samples *. 1e-6)
        in
        {
          flow_id = inst.id;
          cc_name =
            (match inst.spec.cc with
            | Native_cc make_cc -> (make_cc ()).Congestion_iface.name
            | Ccp_cc algo -> algo.Ccp_agent.Algorithm.name);
          delivered_bytes = delivered;
          goodput_bps = goodput;
          mean_rtt;
          segments_sent = Tcp_flow.segments_sent inst.sender;
          retransmits = Tcp_flow.retransmits inst.sender;
          timeouts = Tcp_flow.timeouts inst.sender;
          recoveries = Tcp_flow.recoveries inst.sender;
          final_cwnd = Tcp_flow.cwnd inst.sender;
        })
      flows_only
  in
  let all_rtts = Stats.Samples.create () in
  List.iter (fun inst -> Stats.Samples.append all_rtts ~from:inst.rtt_samples) flows_only;
  let median_rtt, p95_rtt, p99_rtt =
    if Stats.Samples.count all_rtts = 0 then (Time_ns.zero, Time_ns.zero, Time_ns.zero)
    else
      ( Time_ns.of_float_sec (Stats.Samples.percentile all_rtts 50.0 *. 1e-6),
        Time_ns.of_float_sec (Stats.Samples.percentile all_rtts 95.0 *. 1e-6),
        Time_ns.of_float_sec (Stats.Samples.percentile all_rtts 99.0 *. 1e-6) )
  in
  let total_goodput = List.fold_left (fun acc r -> acc +. r.goodput_bps) 0.0 flow_results in
  let utilization = total_goodput /. config.rate_bps in
  let qdisc = Link.qdisc (Topology.Dumbbell.forward dumbbell) in
  let agent_stats =
    Option.map
      (fun (channel, ccp_ext, agent, _, checkpoints_taken) ->
        {
          reports = Ccp_agent.Agent.reports_received agent;
          urgents = Ccp_agent.Agent.urgents_received agent;
          installs = Ccp_agent.Agent.installs_sent agent;
          handler_errors = Ccp_agent.Agent.handler_errors agent;
          ipc_bytes_to_agent = Ccp_ipc.Channel.bytes_sent channel Ccp_ipc.Channel.Datapath_end;
          ipc_bytes_to_datapath = Ccp_ipc.Channel.bytes_sent channel Ccp_ipc.Channel.Agent_end;
          fallbacks = Ccp_ext.fallbacks_triggered ccp_ext;
          fallback_probes = Ccp_ext.fallback_probes_sent ccp_ext;
          ipc_faults = Ccp_ipc.Channel.fault_stats channel;
          installs_admitted = Ccp_ext.installs_accepted ccp_ext;
          installs_refused = Ccp_ext.installs_rejected ccp_ext;
          quarantines = Ccp_ext.quarantines_triggered ccp_ext;
          guard_incidents = Ccp_ext.guard_incident_total ccp_ext;
          decode_failures = Ccp_ipc.Channel.decode_failures channel;
          reports_shed = Ccp_agent.Agent.reports_shed agent;
          degradations = Ccp_agent.Agent.degradations agent;
          checkpoints_taken = Ccp_obs.Metrics.counter_value checkpoints_taken;
          warm_restores = Ccp_agent.Agent.warm_restores agent;
          max_queue_wait = Ccp_agent.Agent.max_queue_wait agent;
        })
      ccp_parts
  in
  let duration_s = Time_ns.to_float_sec config.duration in
  (* One host side's offload paths, summed; [None] without offloads. *)
  let cpu_stats ~busy_time ~operations ~segments = function
    | [] -> None
    | paths ->
      let busy =
        List.fold_left (fun acc p -> acc +. Time_ns.to_float_sec (busy_time p)) 0.0 paths
      in
      let sum f = List.fold_left (fun acc p -> acc + f p) 0 paths in
      let ops = sum operations and segs = sum segments in
      Some
        {
          busy_fraction = busy /. duration_s;
          operations = ops;
          segments_total = segs;
          mean_batch = (if ops = 0 then 0.0 else float_of_int segs /. float_of_int ops);
        }
  in
  let sender_paths = List.filter_map (fun (_, s, _) -> s) instances in
  let receiver_paths = List.filter_map (fun (_, _, r) -> r) instances in
  {
    config;
    utilization;
    median_rtt;
    p95_rtt;
    p99_rtt;
    flows = flow_results;
    drops = Queue_disc.dropped_packets qdisc;
    ecn_marks = Queue_disc.marked_packets qdisc;
    trace;
    jain_index =
      Stats.jain_fairness (Array.of_list (List.map (fun r -> r.goodput_bps) flow_results));
    agent_stats;
    sender_cpu = Offload.Sender_path.(cpu_stats ~busy_time ~operations ~segments) sender_paths;
    receiver_cpu =
      Offload.Receiver_path.(cpu_stats ~busy_time ~operations ~segments) receiver_paths;
    perturb_stats =
      (match List.filter_map (fun inst -> inst.sampler) flows_only with
      | [] -> None
      | samplers ->
        Some
          (List.fold_left
             (fun acc s -> Ccp_perturb.Sampler.merge_stats acc (Ccp_perturb.Sampler.stats s))
             Ccp_perturb.Sampler.zero_stats samplers));
  }
