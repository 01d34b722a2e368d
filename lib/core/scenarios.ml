open Ccp_util
open Ccp_net
open Ccp_algorithms

module Fig2 = struct
  type series = {
    label : string;
    model : Ccp_ipc.Latency_model.t;
    samples : Stats.Samples.t;
    paper_p99_us : float;
  }

  let configurations =
    [
      ("netlink, idle CPU", Ccp_ipc.Latency_model.netlink_idle, 48.0);
      ("unix sockets, idle CPU", Ccp_ipc.Latency_model.unix_idle, 80.0);
      ("netlink, busy CPU + TurboBoost", Ccp_ipc.Latency_model.netlink_busy, 18.0);
      ("unix sockets, busy CPU + TurboBoost", Ccp_ipc.Latency_model.unix_busy, 35.0);
    ]

  let run ?(samples = 60_000) ?(seed = 42) () =
    List.map
      (fun (label, model, paper_p99_us) ->
        let rng = Rng.create ~seed in
        let collected = Stats.Samples.create () in
        for _ = 1 to samples do
          let rtt = Ccp_ipc.Latency_model.sample model rng in
          Stats.Samples.add collected (Time_ns.to_float_us rtt)
        done;
        { label; model; samples = collected; paper_p99_us })
      configurations
end

type comparison = { ccp : Experiment.result; native : Experiment.result }

let one_flow_config ~rate_bps ~base_rtt ~duration ~seed cc =
  let base = Experiment.default_config ~rate_bps ~base_rtt ~duration in
  {
    base with
    Experiment.seed;
    warmup = Time_ns.scale duration 0.1;
    flows = [ Experiment.flow cc ];
  }

(* Kinds and fields the scenario scorecards share. *)
module Schema = Ccp_obs.Schema

let utilization = Schema.number ~ge:0.0 ~le:1.5 ()
let jain = Schema.number ~gt:0.0 ~le:(1.0 +. 1e-9) ()
let fraction = Schema.number ~ge:0.0 ~le:1.0 ()
let non_negative = Schema.number ~ge:0.0 ()

(* Present only when the cell ran with telemetry armed, so plain
   scorecards stay byte-identical to the goldens. *)
let health_field telemetry =
  Schema.optional "health" (Schema.obj Ccp_obs.Health.spec) (fun c ->
      Option.bind (telemetry c) (fun (obs : Ccp_obs.Obs.t) -> obs.Ccp_obs.Obs.health))

module Fig3 = struct
  let default_rate_bps = 1e9
  let rate_bps = default_rate_bps
  let base_rtt = Time_ns.ms 10

  let run ?(rate_bps = default_rate_bps) ?(duration = Time_ns.sec 30) ?(seed = 42) () =
    let run_one cc = Experiment.run (one_flow_config ~rate_bps ~base_rtt ~duration ~seed cc) in
    {
      ccp = run_one (Experiment.Ccp_cc (Ccp_cubic.create ()));
      native = run_one (Experiment.Native_cc Native_cubic.create);
    }
end

module Fig4 = struct
  let second_flow_start = Time_ns.sec 20

  let run ?(rate_bps = 1e9) ?(second_flow_start = second_flow_start)
      ?(duration = Time_ns.sec 60) ?(seed = 42) () =
    let base_rtt = Time_ns.ms 10 in
    let run_one mk =
      let base = Experiment.default_config ~rate_bps ~base_rtt ~duration in
      Experiment.run
        {
          base with
          Experiment.seed;
          flows = [ Experiment.flow (mk ()); Experiment.flow ~start_at:second_flow_start (mk ()) ];
        }
    in
    {
      ccp = run_one (fun () -> Experiment.Ccp_cc (Ccp_reno.create ()));
      native = run_one (fun () -> Experiment.Native_cc Native_reno.create);
    }

  (* Both flows within 25% of fair share, sustained for a full second.
     [after] is when the second flow started (measurement begins there);
     it defaults to the module-level [second_flow_start] used by [run]. *)
  let convergence_time ?(after = second_flow_start) (result : Experiment.result) =
    let series i =
      Trace.series result.Experiment.trace (Printf.sprintf "throughput_mbps.%d" i)
    in
    let fair_mbps = result.Experiment.config.Experiment.rate_bps /. 2.0 /. 1e6 in
    let ok v = Float.abs (v -. fair_mbps) <= 0.25 *. fair_mbps in
    let s0 = Array.of_list (series 0) and s1 = Array.of_list (series 1) in
    let n = min (Array.length s0) (Array.length s1) in
    let need = Time_ns.sec 1 in
    let rec scan i run_start =
      if i >= n then None
      else begin
        let at, v0 = s0.(i) in
        let _, v1 = s1.(i) in
        if Time_ns.compare at after < 0 then scan (i + 1) None
        else if ok v0 && ok v1 then begin
          match run_start with
          | None -> scan (i + 1) (Some at)
          | Some start ->
            if Time_ns.compare (Time_ns.sub at start) need >= 0 then Some start
            else scan (i + 1) run_start
        end
        else scan (i + 1) None
      end
    in
    scan 0 None
end

(* One run's side of a fidelity comparison: the per-change ["cwnd.0"]
   trace series of the run's first flow, with the run's utilization and
   median RTT. *)
let fidelity_run (r : Experiment.result) =
  {
    Ccp_obs.Fidelity.series =
      Array.of_list
        (List.map
           (fun (at, v) -> (Time_ns.to_float_sec at, v))
           (Trace.series r.Experiment.trace "cwnd.0"));
    utilization = r.Experiment.utilization;
    median_rtt_ms = Time_ns.to_float_ms r.Experiment.median_rtt;
  }

(* Quantitative Figure-3/4 fidelity: both runs' first-flow cwnd series,
   handed to {!Ccp_obs.Fidelity}. *)
let fidelity (cmp : comparison) =
  Ccp_obs.Fidelity.compare_runs ~ccp:(fidelity_run cmp.ccp) ~native:(fidelity_run cmp.native)

module Fig5 = struct
  type offload_setting = All_on | Tso_off | All_off

  type cell = {
    setting : offload_setting;
    system : string;
    runs_gbps : float list;
    mean_gbps : float;
    sender_cpu_busy : float;
    receiver_cpu_busy : float;
    gro_mean_batch : float;
  }

  let setting_to_string = function
    | All_on -> "offloads on"
    | Tso_off -> "TSO off"
    | All_off -> "all off"

  (* Per-ACK CPU cost differs between the systems: the native datapath runs
     the full pluggable-TCP callback chain (cubic update, rate sampling) on
     every ACK, while the CCP datapath executes only a fold step — the
     cycles §2.3 argues batching gives back. *)
  let ack_cost_native = Time_ns.ns 600
  let ack_cost_ccp = Time_ns.ns 350

  let offload_spec ~setting ~ack_cost : Experiment.offload_spec =
    let sender = { Offload.Sender_path.tso = (setting = All_on); ack_cost } in
    let receiver = { Offload.Receiver_path.gro = setting <> All_off } in
    { Experiment.sender; receiver }

  let run ?(runs = 4) ?(duration = Time_ns.of_float_sec 0.8) ?(seed = 42) () =
    let rate_bps = 10e9 and base_rtt = Time_ns.us 200 in
    let warmup = Time_ns.scale duration 0.25 in
    let cell setting (system, cc, ack_cost) =
      let run_once i =
        let base = Experiment.default_config ~rate_bps ~base_rtt ~duration in
        let config =
          {
            base with
            Experiment.seed = seed + i;
            warmup;
            buffer_bytes = 500_000;
            flows = [ Experiment.flow (cc ()) ];
            offloads = Some (offload_spec ~setting ~ack_cost);
            sample_interval = Time_ns.ms 50;
          }
        in
        Experiment.run config
      in
      let results = List.init runs run_once in
      let gbps r =
        List.fold_left (fun acc (f : Experiment.flow_result) -> acc +. f.goodput_bps) 0.0
          r.Experiment.flows
        /. 1e9
      in
      let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
      let cpu f = mean (List.filter_map f results) in
      {
        setting;
        system;
        runs_gbps = List.map gbps results;
        mean_gbps = mean (List.map gbps results);
        sender_cpu_busy =
          cpu (fun r ->
              Option.map (fun (c : Experiment.cpu_stats) -> c.busy_fraction) r.Experiment.sender_cpu);
        receiver_cpu_busy =
          cpu (fun r ->
              Option.map
                (fun (c : Experiment.cpu_stats) -> c.busy_fraction)
                r.Experiment.receiver_cpu);
        gro_mean_batch =
          cpu (fun r ->
              Option.map (fun (c : Experiment.cpu_stats) -> c.mean_batch) r.Experiment.receiver_cpu);
      }
    in
    let systems =
      [
        ("linux", (fun () -> Experiment.Native_cc Native_cubic.create), ack_cost_native);
        ("ccp", (fun () -> Experiment.Ccp_cc (Ccp_cubic.create ())), ack_cost_ccp);
      ]
    in
    List.concat_map
      (fun setting ->
        List.map (fun (name, cc, ack) -> cell setting (name, cc, ack)) systems)
      [ All_on; Tso_off; All_off ]
end

module Degraded = struct
  let default_rate_bps = 48e6
  let default_base_rtt = Time_ns.ms 20

  (* k=4 RTTs of silence before the datapath takes the flow back. *)
  let watchdog_after = Time_ns.scale default_base_rtt 4.0

  let reno_fallback () =
    Ccp_datapath.Ccp_ext.native_fallback ~after:watchdog_after Native_reno.create

  let run_one ?(duration = Time_ns.sec 15) ?(seed = 42)
      ?(faults = Ccp_ipc.Fault_plan.none) ?fallback () =
    let base =
      Experiment.default_config ~rate_bps:default_rate_bps ~base_rtt:default_base_rtt
        ~duration
    in
    Experiment.run
      {
        base with
        Experiment.seed;
        warmup = Time_ns.scale duration 0.05;
        datapath = { Ccp_datapath.Ccp_ext.default_config with fallback };
        faults;
        flows = [ Experiment.flow (Experiment.Ccp_cc (Ccp_reno.create ())) ];
      }

  type crash_comparison = {
    clean : Experiment.result;
    without_fallback : Experiment.result;
    with_fallback : Experiment.result;
  }

  let crash_restart ?(crash_at = Time_ns.sec 5) ?(restart_at = Time_ns.sec 10)
      ?(duration = Time_ns.sec 20) ?(seed = 42) () =
    let faults = Ccp_ipc.Fault_plan.crash ~at:crash_at ~restart:restart_at Ccp_ipc.Fault_plan.none in
    {
      clean = run_one ~duration ~seed ();
      without_fallback = run_one ~duration ~seed ~faults ();
      with_fallback = run_one ~duration ~seed ~faults ~fallback:(reno_fallback ()) ();
    }

  type lossy_point = {
    drop_probability : float;
    utilization : float;
    median_rtt : Time_ns.t;
    messages_dropped : int;
    fallbacks : int;
  }

  let lossy_ipc ?(duration = Time_ns.sec 12) ?(seed = 42) () =
    List.map
      (fun drop_probability ->
        let faults = Ccp_ipc.Fault_plan.make ~drop_probability () in
        let r = run_one ~duration ~seed ~faults ~fallback:(reno_fallback ()) () in
        let stats = Option.get r.Experiment.agent_stats in
        {
          drop_probability;
          utilization = r.Experiment.utilization;
          median_rtt = r.Experiment.median_rtt;
          messages_dropped = stats.Experiment.ipc_faults.Ccp_ipc.Channel.dropped;
          fallbacks = stats.Experiment.fallbacks;
        })
      [ 0.0; 0.01; 0.05; 0.2; 0.5 ]
end

module Batching_load = struct
  type row = {
    link_bps : float;
    rtt : Time_ns.t;
    acks_per_sec : float;
    batches_per_sec : float;
  }

  let mtu_bits = 1500.0 *. 8.0

  let table () =
    let rows =
      [
        (100e9, Time_ns.us 10);
        (100e9, Time_ns.ms 100);
        (10e9, Time_ns.us 10);
        (10e9, Time_ns.ms 10);
        (1e9, Time_ns.ms 10);
        (1e9, Time_ns.ms 100);
      ]
    in
    List.map
      (fun (link_bps, rtt) ->
        {
          link_bps;
          rtt;
          acks_per_sec = link_bps /. mtu_bits;
          batches_per_sec = 1.0 /. Time_ns.to_float_sec rtt;
        })
      rows
end

module Ablation = struct
  let rate_bps = 100e6
  let base_rtt = Time_ns.ms 20
  let duration = Time_ns.sec 12

  type interval_point = {
    interval_rtts : float;
    utilization : float;
    median_rtt : Time_ns.t;
    reports : int;
  }

  let report_interval ?(seed = 42) () =
    List.map
      (fun interval_rtts ->
        let cc = Experiment.Ccp_cc (Ccp_reno.create_with ~interval_rtts ()) in
        let r = Experiment.run (one_flow_config ~rate_bps ~base_rtt ~duration ~seed cc) in
        {
          interval_rtts;
          utilization = r.Experiment.utilization;
          median_rtt = r.Experiment.median_rtt;
          reports =
            (match r.Experiment.agent_stats with
            | Some s -> s.Experiment.reports
            | None -> 0);
        })
      [ 0.25; 0.5; 1.0; 2.0; 4.0 ]

  type latency_point = {
    ipc_rtt : Time_ns.t;
    utilization : float;
    median_rtt : Time_ns.t;
  }

  let ipc_latency ?(seed = 42) () =
    List.map
      (fun ipc_rtt ->
        let cc = Experiment.Ccp_cc (Ccp_reno.create ()) in
        let config =
          {
            (one_flow_config ~rate_bps ~base_rtt ~duration ~seed cc) with
            Experiment.ipc = Ccp_ipc.Latency_model.Constant ipc_rtt;
          }
        in
        let r = Experiment.run config in
        { ipc_rtt; utilization = r.Experiment.utilization; median_rtt = r.Experiment.median_rtt })
      [ Time_ns.us 1; Time_ns.us 10; Time_ns.us 100; Time_ns.ms 1; Time_ns.ms 10 ]

  type urgent_point = {
    urgent_enabled : bool;
    utilization : float;
    median_rtt : Time_ns.t;
    drops : int;
  }

  let urgent ?(seed = 42) () =
    List.map
      (fun urgent_enabled ->
        let cc = Experiment.Ccp_cc (Ccp_reno.create ()) in
        let config =
          {
            (one_flow_config ~rate_bps ~base_rtt ~duration ~seed cc) with
            Experiment.datapath =
              { Ccp_datapath.Ccp_ext.default_config with urgent_on_loss = urgent_enabled };
          }
        in
        let r = Experiment.run config in
        {
          urgent_enabled;
          utilization = r.Experiment.utilization;
          median_rtt = r.Experiment.median_rtt;
          drops = r.Experiment.drops;
        })
      [ true; false ]

  type batching_point = {
    mode : string;
    utilization : float;
    ipc_bytes_to_agent : int;
    reports : int;
  }

  let batching_mode ?(seed = 42) () =
    List.map
      (fun (mode, algo) ->
        let r =
          Experiment.run
            (one_flow_config ~rate_bps ~base_rtt ~duration ~seed (Experiment.Ccp_cc algo))
        in
        let stats = Option.get r.Experiment.agent_stats in
        {
          mode;
          utilization = r.Experiment.utilization;
          ipc_bytes_to_agent = stats.Experiment.ipc_bytes_to_agent;
          reports = stats.Experiment.reports;
        })
      [ ("fold", Ccp_vegas.create `Fold); ("vector", Ccp_vegas.create `Vector) ]
end

(* Adversarial programs against the datapath's self-protection (admission
   control, guard envelope, quarantine). Each one is statically valid — it
   passes the agent's own Typecheck — so without the guard layers it would
   run unchecked. *)
module Hostile = struct
  open Ccp_lang.Ast

  (* Hide a constant from admission's static wait floor: the value only
     materialises at runtime, which is exactly the layer the guard
     envelope covers. *)
  let nonconst f = Bin (Mul, Const f, Const 1.0)

  let zero_cwnd = program [ Cwnd (Const 0.0); Wait_rtts (Const 0.5); Report ]

  let huge_rate =
    program [ Rate (Const 1e300); Cwnd (Const 1e15); Wait_rtts (Const 0.5); Report ]

  let report_spam =
    program [ Cwnd (Bin (Mul, Const 10.0, Var "mss")); Wait (nonconst 1.0); Report ]

  let div_storm =
    program
      [ Cwnd (Bin (Div, Var "cwnd", Const 0.0)); Wait (nonconst 200.0); Report ]

  let diverging_fold =
    program
      [
        Measure (Fold { init = [ ("x", Const 1.0) ]; update = [ ("x", Bin (Mul, Var "x", Const 1e6)) ] });
        Cwnd (Bin (Mul, Const 10.0, Var "mss"));
        Wait_rtts (Const 0.5);
        Report;
      ]

  let spin = program [ Cwnd (Bin (Mul, Var "cwnd", Const 1.0)); Wait (nonconst 0.0); Report ]

  (* Statically detectable: the only one admission refuses outright
     (WaitRtts below the 0.1 floor) instead of quarantining at runtime. *)
  let wait_too_short =
    program [ Cwnd (Bin (Mul, Const 10.0, Var "mss")); Wait_rtts (Const 0.05); Report ]

  let all =
    [
      ("zero-cwnd", zero_cwnd);
      ("huge-rate", huge_rate);
      ("report-spam", report_spam);
      ("div-storm", div_storm);
      ("diverging-fold", diverging_fold);
      ("spin", spin);
      ("wait-too-short", wait_too_short);
    ]

  (* An agent algorithm that installs a hostile program, then — when the
     datapath pushes back with a rejection or a quarantine — swaps in a
     corrected window program, modelling an operator shipping a fix. *)
  let attacker ?(recover = true) name hostile : Ccp_agent.Algorithm.t =
    let make (handle : Ccp_agent.Algorithm.handle) =
      let corrected () =
        Prog.window_program ~cwnd:(10 * handle.Ccp_agent.Algorithm.info.Ccp_agent.Algorithm.mss) ()
      in
      {
        Ccp_agent.Algorithm.no_op_handlers with
        on_ready = (fun () -> handle.Ccp_agent.Algorithm.install hostile);
        on_quarantine =
          (fun _ -> if recover then handle.Ccp_agent.Algorithm.install (corrected ()));
        on_install_result =
          (fun r ->
            match r.Ccp_ipc.Message.verdict with
            | Ccp_ipc.Message.Rejected _ when recover ->
              handle.Ccp_agent.Algorithm.install (corrected ())
            | _ -> ());
      }
    in
    { Ccp_agent.Algorithm.name = "hostile-" ^ name; make }

  let default_rate_bps = 48e6
  let default_base_rtt = Time_ns.ms 20

  let armed_guard ?(threshold = 25) () =
    {
      Ccp_datapath.Ccp_ext.default_guard with
      Ccp_datapath.Ccp_ext.quarantine_after = threshold;
      quarantine_mode = Some (Ccp_datapath.Ccp_ext.Native Native_reno.create);
    }

  type point = {
    name : string;
    utilization : float;
    installs_admitted : int;
    installs_refused : int;
    quarantines : int;
    guard_incidents : int;
    recovered : bool;
    min_cwnd_seen : int;
  }

  let run_one ?(duration = Time_ns.sec 5) ?(seed = 42) ?(threshold = 25) ?(recover = true)
      (name, hostile) =
    let dp = ref None in
    let base =
      Experiment.default_config ~rate_bps:default_rate_bps ~base_rtt:default_base_rtt ~duration
    in
    let config =
      {
        base with
        Experiment.seed;
        datapath =
          {
            Ccp_datapath.Ccp_ext.default_config with
            Ccp_datapath.Ccp_ext.guard = armed_guard ~threshold ();
          };
        flows = [ Experiment.flow (Experiment.Ccp_cc (attacker ~recover name hostile)) ];
        inspect = Some (fun h -> dp := Some h.Experiment.h_datapath);
      }
    in
    let r = Experiment.run config in
    let stats = Option.get r.Experiment.agent_stats in
    let recovered =
      match !dp with
      | Some dp ->
        Ccp_datapath.Ccp_ext.controller dp ~flow:0 = Some Ccp_datapath.Ccp_ext.Agent_program
      | None -> false
    in
    let min_cwnd_seen =
      match Trace.series r.Experiment.trace "cwnd.0" with
      | [] -> 0
      | points -> List.fold_left (fun acc (_, v) -> min acc (int_of_float v)) max_int points
    in
    {
      name;
      utilization = r.Experiment.utilization;
      installs_admitted = stats.Experiment.installs_admitted;
      installs_refused = stats.Experiment.installs_refused;
      quarantines = stats.Experiment.quarantines;
      guard_incidents = stats.Experiment.guard_incidents;
      recovered;
      min_cwnd_seen;
    }

  let sweep ?(duration = Time_ns.sec 5) ?(seed = 42) ?(threshold = 25) () =
    List.map (fun entry -> run_one ~duration ~seed ~threshold entry) all
end

(* Robustness: the measurement-noise counterpart of {!Hostile}. Hostile
   attacks the datapath with adversarial programs; here the *network*
   misbehaves — jittered RTT samples, noisy delivery-rate estimates,
   stretch ACKs, a token-bucket policer — and well-behaved algorithms run
   on top. Each cell is two same-algorithm flows on a dumbbell with the
   guard envelope armed, so the matrix also answers "does noise alone
   ever trip quarantine?" (it must not). *)
module Robustness = struct
  module Plan = Ccp_perturb.Perturb_plan

  let default_rate_bps = 48e6
  let default_base_rtt = Time_ns.ms 20

  (* The measurement-hungry algorithms: Vegas and Timely live off RTT
     samples, BBR off delivery rate, PCC off its utility of both —
     exactly the primitives the perturbation layer corrupts. *)
  let algorithms : (string * (unit -> Ccp_agent.Algorithm.t)) list =
    [
      ("ccp-vegas", fun () -> Ccp_vegas.create `Fold);
      ("ccp-bbr", fun () -> Ccp_bbr.create ());
      ("ccp-timely", fun () -> Ccp_timely.create ());
      ("ccp-pcc", fun () -> Ccp_pcc.create ());
    ]

  let rtt_jitter_plan =
    Plan.make
      ~rtt_jitter:
        {
          Plan.additive_sigma = Time_ns.ms 2;
          multiplicative = 0.1;
          burst = Some { Plan.probability = 0.01; extra = Time_ns.ms 10; length = 8 };
        }
      ()

  let rate_noise_plan =
    Plan.make ~rate_error:{ Plan.multiplicative = 0.3; collapse_probability = 0.02 } ()

  let stretch_ack_plan = Plan.make ~ack_stretch:{ Plan.every = 4 } ()

  let policer_plan ~rate_bps =
    Plan.make ~policer:{ Plan.rate_bps = 0.75 *. rate_bps; burst_bytes = 32_768 } ()

  let combined_plan =
    List.fold_left Plan.compose Plan.none
      [ rtt_jitter_plan; rate_noise_plan; stretch_ack_plan ]

  let perturbations ~rate_bps =
    [
      ("baseline", Plan.none);
      ("rtt-jitter", rtt_jitter_plan);
      ("rate-noise", rate_noise_plan);
      ("stretch-ack", stretch_ack_plan);
      ("policer", policer_plan ~rate_bps);
      ("combined", combined_plan);
    ]

  let algorithm_names = List.map fst algorithms
  let perturbation_names = List.map fst (perturbations ~rate_bps:default_rate_bps)

  type cell = {
    algo : string;
    perturb : string;
    seed : int;
    utilization : float;
    jain_index : float;
    median_rtt_inflation : float;
    p95_rtt_inflation : float;
    retransmit_rate : float;
    timeouts : int;
    quarantines : int;
    installs_refused : int;
    fallbacks : int;
    guard_incidents : int;
    cwnd_rmse_vs_baseline : float option;
    perturb_stats : Ccp_perturb.Sampler.stats option;
    result : Experiment.result;
    telemetry : Ccp_obs.Obs.t option;
  }

  type scorecard = {
    rate_bps : float;
    base_rtt : Time_ns.t;
    duration : Time_ns.t;
    seeds : int list;
    cells : cell list;
  }

  let schema_tag = "ccp-robustness-scorecard/v1"
  let second_flow_at duration = Time_ns.scale duration 0.25

  let run_cell ?(with_telemetry = false) ~rate_bps ~base_rtt ~duration ~seed ~plan mk
      () =
    let base = Experiment.default_config ~rate_bps ~base_rtt ~duration in
    let telemetry =
      if with_telemetry then
        Some
          (Ccp_obs.Obs.create ~tracer:true ~telemetry:true ~clock:(fun () -> 0.0) ())
      else None
    in
    let r =
      Experiment.run
      {
        base with
        Experiment.seed;
        obs = telemetry;
        warmup = Time_ns.scale duration 0.1;
        datapath =
          {
            Ccp_datapath.Ccp_ext.default_config with
            Ccp_datapath.Ccp_ext.guard = Hostile.armed_guard ();
          };
        perturb = plan;
        flows =
          [
            Experiment.flow (Experiment.Ccp_cc (mk ()));
            Experiment.flow ~start_at:(second_flow_at duration) (Experiment.Ccp_cc (mk ()));
          ];
      }
    in
    (r, telemetry)

  let rmse_vs baseline r =
    match baseline with
    | None -> None
    | Some b -> (
      try
        let rep =
          Ccp_obs.Fidelity.compare_runs ~ccp:(fidelity_run r) ~native:(fidelity_run b)
        in
        Some rep.Ccp_obs.Fidelity.cwnd_rmse
      with Invalid_argument _ -> None)

  let cell_of ~algo ~perturb ~seed ~base_rtt ~baseline ~telemetry
      (r : Experiment.result) =
    let sum f = List.fold_left (fun acc fr -> acc + f fr) 0 r.Experiment.flows in
    let segments = sum (fun (f : Experiment.flow_result) -> f.segments_sent) in
    let retx = sum (fun (f : Experiment.flow_result) -> f.retransmits) in
    let agent f =
      match r.Experiment.agent_stats with Some s -> f s | None -> 0
    in
    let base_ms = Time_ns.to_float_ms base_rtt in
    {
      algo;
      perturb;
      seed;
      utilization = r.Experiment.utilization;
      jain_index = r.Experiment.jain_index;
      median_rtt_inflation = Time_ns.to_float_ms r.Experiment.median_rtt /. base_ms;
      p95_rtt_inflation = Time_ns.to_float_ms r.Experiment.p95_rtt /. base_ms;
      retransmit_rate =
        (if segments = 0 then 0.0 else float_of_int retx /. float_of_int segments);
      timeouts = sum (fun (f : Experiment.flow_result) -> f.timeouts);
      quarantines = agent (fun s -> s.Experiment.quarantines);
      installs_refused = agent (fun s -> s.Experiment.installs_refused);
      fallbacks = agent (fun s -> s.Experiment.fallbacks);
      guard_incidents = agent (fun s -> s.Experiment.guard_incidents);
      cwnd_rmse_vs_baseline = rmse_vs baseline r;
      perturb_stats = r.Experiment.perturb_stats;
      result = r;
      telemetry;
    }

  let lookup kind table names =
    List.map
      (fun n ->
        match List.assoc_opt n table with
        | Some v -> (n, v)
        | None ->
          invalid_arg
            (Printf.sprintf "Robustness: unknown %s %S (have: %s)" kind n
               (String.concat ", " (List.map fst table))))
      names

  let run ?(rate_bps = default_rate_bps) ?(base_rtt = default_base_rtt)
      ?(duration = Time_ns.sec 10) ?(seeds = [ 42 ]) ?algos ?perturbs
      ?(with_telemetry = false) () =
    let sel_algos = lookup "algorithm" algorithms (Option.value algos ~default:algorithm_names) in
    let sel_perturbs =
      lookup "perturbation" (perturbations ~rate_bps)
        (Option.value perturbs ~default:perturbation_names)
    in
    let cells =
      List.concat_map
        (fun seed ->
          List.concat_map
            (fun (algo, mk) ->
              (* The clean cell doubles as the reference trace for the
                 perturbed cells' cwnd RMSE; without "baseline" in the
                 selection no hidden extra runs happen and RMSE is
                 omitted. *)
              let baseline =
                if List.mem_assoc "baseline" sel_perturbs then
                  Some
                    (run_cell ~with_telemetry ~rate_bps ~base_rtt ~duration ~seed
                       ~plan:Plan.none mk ())
                else None
              in
              List.map
                (fun (pname, plan) ->
                  let r, telemetry =
                    match (pname, baseline) with
                    | "baseline", Some b -> b
                    | _ ->
                      run_cell ~with_telemetry ~rate_bps ~base_rtt ~duration ~seed
                        ~plan mk ()
                  in
                  let reference =
                    if pname = "baseline" then None else Option.map fst baseline
                  in
                  cell_of ~algo ~perturb:pname ~seed ~base_rtt ~baseline:reference
                    ~telemetry r)
                sel_perturbs)
            sel_algos)
        seeds
    in
    { rate_bps; base_rtt; duration; seeds; cells }

  let stats_spec =
    let open Ccp_perturb.Sampler in
    Schema.(
      doc
        [
          field "rtt_samples" count (fun s -> s.rtt_samples);
          field "burst_episodes" count (fun s -> s.burst_episodes);
          field "rate_samples" count (fun s -> s.rate_samples);
          field "rate_collapsed" count (fun s -> s.rate_collapsed);
          field "policer_passed" count (fun s -> s.policer_passed);
          field "policer_dropped" count (fun s -> s.policer_dropped);
        ])

  let cell_spec =
    Schema.(
      doc
        ~check:(fun c ->
          let m = get_num c "median_rtt_inflation" and p = get_num c "p95_rtt_inflation" in
          require (p >= m -. 1e-9) "p95_rtt_inflation %g below median %g" p m)
        [
          field "algo" string (fun c -> c.algo);
          field "perturb" string (fun c -> c.perturb);
          field "seed" count (fun c -> c.seed);
          field "utilization" utilization (fun c -> c.utilization);
          field "jain" jain (fun c -> c.jain_index);
          field "median_rtt_inflation" (number ~ge:0.9 ()) (fun c -> c.median_rtt_inflation);
          field "p95_rtt_inflation" (number ()) (fun c -> c.p95_rtt_inflation);
          field "retransmit_rate" fraction (fun c -> c.retransmit_rate);
          field "timeouts" count (fun c -> c.timeouts);
          field "quarantines" count (fun c -> c.quarantines);
          field "installs_refused" count (fun c -> c.installs_refused);
          field "fallbacks" count (fun c -> c.fallbacks);
          field "guard_incidents" count (fun c -> c.guard_incidents);
          field "cwnd_rmse_vs_baseline" (nullable non_negative) (fun c ->
              c.cwnd_rmse_vs_baseline);
          field "perturb_stats" (nullable (obj stats_spec)) (fun c -> c.perturb_stats);
          health_field (fun c -> c.telemetry);
        ])

  let spec =
    Schema.(
      doc
        [
          tag schema_tag;
          field "rate_bps" (number ()) (fun sc -> sc.rate_bps);
          field "base_rtt_ms" (number ()) (fun sc -> Time_ns.to_float_ms sc.base_rtt);
          field "duration_s" (number ()) (fun sc -> Time_ns.to_float_sec sc.duration);
          field "seeds" (list count) (fun sc -> sc.seeds);
          field "cells" (list (obj cell_spec)) (fun sc -> sc.cells);
        ])

  let to_json = Schema.encode spec
  let validate_scorecard = Schema.validate spec ~count:"cells"
end

(* Chaos: every resilience layer exercised at once. IPC faults (drops,
   latency spikes, an agent crash/restart) × measurement perturbation
   (RTT jitter) × sustained agent overload (reports arrive ~4× faster
   than the dispatch budget drains them) run against four CCP-Reno flows
   with the datapath watchdog armed. Each seed runs the same composition
   twice — cold (no checkpoints) and warm (periodic agent-state
   checkpoints replayed at restart) — so the scorecard directly measures
   what warm restart buys: per-flow cwnd recovery time back to the
   pre-crash operating point, read off the cwnd trace. *)
module Chaos = struct
  module Plan = Ccp_perturb.Perturb_plan

  let default_rate_bps = 96e6
  let default_base_rtt = Time_ns.ms 20
  let flow_count = 4

  (* Reports every quarter-RTT per flow; the agent drains one per
     quarter-RTT round. Four flows → arrival ≈ 4× drain capacity, yet
     round-robin still serves every flow about once per RTT, so the
     shedder (never taking a flow's only queued report) keeps the
     starvation bound tight while most of the backlog is shed. *)
  let report_interval_rtts = 0.25

  let overload ~base_rtt =
    {
      Ccp_agent.Agent.queue_capacity = 8;
      high_watermark = 4;
      dispatch_budget = 1;
      dispatch_interval = Time_ns.scale base_rtt report_interval_rtts;
    }

  let degrade =
    {
      Ccp_agent.Agent.error_threshold = 3;
      backoff_initial = Time_ns.ms 200;
      backoff_max = Time_ns.sec 2;
    }

  (* Conservative clamp during agent silence: the crash is visible as a
     collapsed window, so recovery back to the pre-crash point is a real
     climb for a cold restart and a single re-install for a warm one. *)
  let fallback ~base_rtt =
    Ccp_datapath.Ccp_ext.clamp_fallback
      ~after:(Time_ns.scale base_rtt 2.0)
      ~cwnd_segments:4

  let checkpoint_interval = Time_ns.ms 100
  let crash_from ~duration = Time_ns.scale duration 0.45
  let crash_length ~base_rtt = Time_ns.scale base_rtt 10.0

  let fault_plan ~crash_from ~crash_until =
    Ccp_ipc.Fault_plan.make ~drop_probability:0.01
      ~spike:{ Ccp_ipc.Fault_plan.probability = 0.02; extra = Time_ns.ms 2 }
      ~agent_outages:[ { Ccp_ipc.Fault_plan.from_ = crash_from; until = crash_until } ]
      ()

  let perturb_plan =
    Plan.make
      ~rtt_jitter:
        { Plan.additive_sigma = Time_ns.us 500; multiplicative = 0.05; burst = None }
      ()

  type recovery = {
    flow_id : int;
    pre_crash_cwnd : float;
    recovery_rtts : float option;
  }

  type cell = {
    mode : string;
    seed : int;
    utilization : float;
    jain_index : float;
    reports_shed : int;
    max_queue_wait_rtts : float;
    degradations : int;
    decode_failures : int;
    checkpoints_taken : int;
    warm_restores : int;
    fallbacks : int;
    recoveries : recovery list;
    mean_recovery_rtts : float option;
    result : Experiment.result;
    telemetry : Ccp_obs.Obs.t option;
        (* the armed bundle, for timeline export and health verdicts *)
  }

  type scorecard = {
    rate_bps : float;
    base_rtt : Time_ns.t;
    duration : Time_ns.t;
    seeds : int list;
    crash_from : Time_ns.t;
    crash_until : Time_ns.t;
    cells : cell list;
  }

  let schema_tag = "ccp-chaos-scorecard/v1"

  (* Recovery, per flow, from the cwnd trace: the pre-crash operating
     point is the last cwnd sample before the outage begins; the flow has
     recovered at the first post-restart sample back within 20 % of it. *)
  let recovery_of ~base_rtt ~crash_from ~crash_until (r : Experiment.result) flow_id =
    let series = Trace.series r.Experiment.trace (Printf.sprintf "cwnd.%d" flow_id) in
    let pre =
      List.fold_left
        (fun acc (at, v) -> if Time_ns.compare at crash_from < 0 then v else acc)
        0.0 series
    in
    let recovered_at =
      if pre <= 0.0 then None
      else
        List.find_map
          (fun (at, v) ->
            if Time_ns.compare at crash_until >= 0 && v >= 0.8 *. pre then Some at
            else None)
          series
    in
    {
      flow_id;
      pre_crash_cwnd = pre;
      recovery_rtts =
        Option.map
          (fun at ->
            Time_ns.to_float_sec (Time_ns.sub at crash_until)
            /. Time_ns.to_float_sec base_rtt)
          recovered_at;
    }

  (* Chaos-tuned SLO config. The composition sheds over half of all
     reports by design, and the crash injects a one-to-two-window
     orphan burst; against the stock config that burst never clears the
     8-window long burn. A 1 % orphan objective over a 2-window long
     burn separates the crash (short burn ~26, long ~13 at seed 42)
     from convergence-phase noise (short burn <= ~5) with margin on
     both sides of the threshold-10 gate, so the agent-crash window
     raises the orphan_rate alert and the first healthy window after
     restart clears it. *)
  let slo_config =
    let d = Ccp_obs.Health.default_config in
    {
      d with
      Ccp_obs.Health.slos =
        List.map
          (fun (s : Ccp_obs.Health.slo) ->
            if String.equal s.Ccp_obs.Health.slo_name "orphan_rate" then
              { s with Ccp_obs.Health.objective = 0.01 }
            else s)
          d.Ccp_obs.Health.slos;
      long_windows = 2;
    }

  let run_cell ?(with_telemetry = false) ?window_hook ~rate_bps ~base_rtt ~duration
      ~seed ~crash_from ~crash_until ~mode ~checkpoint () =
    let base = Experiment.default_config ~rate_bps ~base_rtt ~duration in
    let mk () = Ccp_reno.create_with ~interval_rtts:report_interval_rtts () in
    (* One fresh bundle per cell so windows, sketches, and alert state
       never bleed across modes or seeds. The zero wall clock keeps the
       stage-cost histograms (and therefore the exported timeline)
       byte-stable across hosts; every other timestamp is sim time. *)
    let telemetry =
      if with_telemetry then
        Some
          (Ccp_obs.Obs.create ~tracer:true ~telemetry:true ~slo:slo_config
             ~clock:(fun () -> 0.0) ())
      else None
    in
    (match (telemetry, window_hook) with
    | Some obs, Some f ->
      Ccp_obs.Obs.set_window_hook obs (fun _ w -> f ~mode ~seed obs w)
    | _ -> ());
    let r =
      Experiment.run
        {
          base with
          Experiment.seed;
          obs = telemetry;
          warmup = Time_ns.scale duration 0.1;
          datapath =
            {
              Ccp_datapath.Ccp_ext.default_config with
              Ccp_datapath.Ccp_ext.fallback = Some (fallback ~base_rtt);
            };
          faults = fault_plan ~crash_from ~crash_until;
          perturb = perturb_plan;
          agent_overload = Some (overload ~base_rtt);
          agent_degrade = Some degrade;
          checkpoint_interval = checkpoint;
          flows =
            List.init flow_count (fun _ -> Experiment.flow (Experiment.Ccp_cc (mk ())));
        }
    in
    let recoveries =
      List.init flow_count (fun id ->
          recovery_of ~base_rtt ~crash_from ~crash_until r id)
    in
    let recovered = List.filter_map (fun rec_ -> rec_.recovery_rtts) recoveries in
    let stats f = match r.Experiment.agent_stats with Some s -> f s | None -> 0 in
    {
      mode;
      seed;
      utilization = r.Experiment.utilization;
      jain_index = r.Experiment.jain_index;
      reports_shed = stats (fun s -> s.Experiment.reports_shed);
      max_queue_wait_rtts =
        (match r.Experiment.agent_stats with
        | Some s ->
          Time_ns.to_float_sec s.Experiment.max_queue_wait
          /. Time_ns.to_float_sec base_rtt
        | None -> 0.0);
      degradations = stats (fun s -> s.Experiment.degradations);
      decode_failures = stats (fun s -> s.Experiment.decode_failures);
      checkpoints_taken = stats (fun s -> s.Experiment.checkpoints_taken);
      warm_restores = stats (fun s -> s.Experiment.warm_restores);
      fallbacks = stats (fun s -> s.Experiment.fallbacks);
      recoveries;
      mean_recovery_rtts =
        (match recovered with
        | [] -> None
        | l -> Some (List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)));
      result = r;
      telemetry;
    }

  let modes = [ ("cold", None); ("warm", Some checkpoint_interval) ]

  let run ?(rate_bps = default_rate_bps) ?(base_rtt = default_base_rtt)
      ?(duration = Time_ns.sec 12) ?(seeds = [ 42 ]) ?(with_telemetry = false)
      ?window_hook () =
    let crash_from = crash_from ~duration in
    let crash_until = Time_ns.add crash_from (crash_length ~base_rtt) in
    let cells =
      List.concat_map
        (fun seed ->
          List.map
            (fun (mode, checkpoint) ->
              run_cell ~with_telemetry ?window_hook ~rate_bps ~base_rtt ~duration
                ~seed ~crash_from ~crash_until ~mode ~checkpoint ())
            modes)
        seeds
    in
    { rate_bps; base_rtt; duration; seeds; crash_from; crash_until; cells }

  let recovery_spec =
    Schema.(
      doc
        [
          field "flow" count (fun r -> r.flow_id);
          field "pre_crash_cwnd" non_negative (fun r -> r.pre_crash_cwnd);
          field "recovery_rtts" (nullable non_negative) (fun r -> r.recovery_rtts);
        ])

  let cell_spec =
    Schema.(
      doc
        ~check:(fun c ->
          require
            (get_str c "mode" <> "cold"
            || (get_num c "checkpoints_taken" = 0.0 && get_num c "warm_restores" = 0.0))
            "cold cell reports checkpoints or warm restores")
        [
          field "mode" (one_of (List.map fst modes)) (fun c -> c.mode);
          field "seed" count (fun c -> c.seed);
          field "utilization" utilization (fun c -> c.utilization);
          field "jain" jain (fun c -> c.jain_index);
          field "reports_shed" count (fun c -> c.reports_shed);
          field "max_queue_wait_rtts" non_negative (fun c -> c.max_queue_wait_rtts);
          field "degradations" count (fun c -> c.degradations);
          field "decode_failures" count (fun c -> c.decode_failures);
          field "checkpoints_taken" count (fun c -> c.checkpoints_taken);
          field "warm_restores" count (fun c -> c.warm_restores);
          field "fallbacks" count (fun c -> c.fallbacks);
          field "recoveries" (list (obj recovery_spec)) (fun c -> c.recoveries);
          field "mean_recovery_rtts" (nullable non_negative) (fun c -> c.mean_recovery_rtts);
          health_field (fun c -> c.telemetry);
        ])

  let spec =
    Schema.(
      doc
        ~check:(fun sc ->
          let cf = get_num sc "crash_from_s" and cu = get_num sc "crash_until_s" in
          require (cu > cf) "crash window (%g, %g) inconsistent" cf cu)
        [
          tag schema_tag;
          field "rate_bps" (number ()) (fun sc -> sc.rate_bps);
          field "base_rtt_ms" (number ()) (fun sc -> Time_ns.to_float_ms sc.base_rtt);
          field "duration_s" (number ()) (fun sc -> Time_ns.to_float_sec sc.duration);
          field "crash_from_s" non_negative (fun sc -> Time_ns.to_float_sec sc.crash_from);
          field "crash_until_s" (number ()) (fun sc -> Time_ns.to_float_sec sc.crash_until);
          field "seeds" (list count) (fun sc -> sc.seeds);
          field "cells" (list (obj cell_spec)) (fun sc -> sc.cells);
        ])

  let to_json = Schema.encode spec
  let validate_scorecard = Schema.validate spec ~count:"cells"
end

(* Figure 2, measured end to end. {!Fig2} samples the latency model
   directly; here the full control loop runs with the span tracer armed
   and reaction latency — report departure to control application at the
   datapath — is read back from the recorder's [Span] events. The clean
   series use the paper's four calibrated models; the degraded series add
   latency spikes, message loss, and an agent crash, where the watchdog's
   fallback reaction is the time from crash to native takeover. *)
module Reaction = struct
  type series = {
    label : string;
    model : Ccp_ipc.Latency_model.t;
    model_p99_us : float;
    reaction_us : Stats.Samples.t;
    spans : Ccp_obs.Tracer.stats;
    recorder_dropped : int;
    fallback_after : Time_ns.t option;
    result : Experiment.result;
  }

  let default_rate_bps = 48e6
  let default_base_rtt = Time_ns.ms 20

  (* Reaction time of every actuated span, in microseconds of simulated
     time. A reaction is two one-way IPC trips (the handler itself is
     instantaneous in simulated time), so against the model's RTT p99
     these land lower: the sum of two independent half-RTT draws
     concentrates below a single full draw's tail. *)
  let reaction_samples obs =
    let samples = Stats.Samples.create () in
    (match obs.Ccp_obs.Obs.recorder with
    | Some recorder ->
      List.iter
        (fun (_, event) ->
          match event with
          | Ccp_obs.Recorder.Span s
            when s.Ccp_obs.Recorder.disposition = "actuated"
                 && s.Ccp_obs.Recorder.started_at >= 0
                 && s.Ccp_obs.Recorder.done_at >= 0 ->
            Stats.Samples.add samples
              (float_of_int (s.Ccp_obs.Recorder.done_at - s.Ccp_obs.Recorder.started_at)
              /. 1e3)
          | _ -> ())
        (Ccp_obs.Recorder.to_list recorder)
    | None -> ());
    samples

  let fallback_entry obs ~crash_at =
    match obs.Ccp_obs.Obs.recorder with
    | None -> None
    | Some recorder ->
      List.find_map
        (fun (at, event) ->
          match event with
          | Ccp_obs.Recorder.Fallback { entered = true; _ }
            when Time_ns.compare at crash_at >= 0 ->
            Some (Time_ns.sub at crash_at)
          | _ -> None)
        (Ccp_obs.Recorder.to_list recorder)

  let run_one ?(duration = Time_ns.sec 12) ?(seed = 42) ~label ~model ~model_p99_us
      ?(faults = Ccp_ipc.Fault_plan.none) ?fallback ?crash_at () =
    let obs = Ccp_obs.Obs.create ~tracer:true ~tracer_capacity:4096 () in
    let base =
      Experiment.default_config ~rate_bps:default_rate_bps ~base_rtt:default_base_rtt
        ~duration
    in
    let config =
      {
        base with
        Experiment.seed;
        warmup = Time_ns.scale duration 0.05;
        ipc = model;
        faults;
        datapath = { Ccp_datapath.Ccp_ext.default_config with fallback };
        obs = Some obs;
        flows = [ Experiment.flow (Experiment.Ccp_cc (Ccp_reno.create ())) ];
      }
    in
    let result = Experiment.run config in
    {
      label;
      model;
      model_p99_us;
      reaction_us = reaction_samples obs;
      spans = Ccp_obs.Tracer.stats (Ccp_obs.Obs.tracer_exn obs);
      recorder_dropped =
        (match obs.Ccp_obs.Obs.recorder with
        | Some r -> Ccp_obs.Recorder.dropped r
        | None -> 0);
      fallback_after =
        (match crash_at with
        | Some at -> fallback_entry obs ~crash_at:at
        | None -> None);
      result;
    }

  let run ?(duration = Time_ns.sec 12) ?(seed = 42) () =
    let clean =
      List.map
        (fun (label, model, model_p99_us) ->
          run_one ~duration ~seed ~label ~model ~model_p99_us ())
        Fig2.configurations
    in
    let unix = Ccp_ipc.Latency_model.unix_idle and unix_p99 = 80.0 in
    let spiky =
      run_one ~duration ~seed ~label:"unix idle + 5% 2ms spikes" ~model:unix
        ~model_p99_us:unix_p99
        ~faults:
          (Ccp_ipc.Fault_plan.make
             ~spike:{ Ccp_ipc.Fault_plan.probability = 0.05; extra = Time_ns.ms 2 }
             ())
        ()
    in
    (* The fallback watchdog stays armed here: a dropped [Install] would
       otherwise leave the flow uncontrolled (the agent only installs on
       [Ready]), whereas fallback probes re-handshake until it lands. *)
    let lossy =
      run_one ~duration ~seed ~label:"unix idle + 20% message loss" ~model:unix
        ~model_p99_us:unix_p99
        ~faults:(Ccp_ipc.Fault_plan.make ~drop_probability:0.2 ())
        ~fallback:(Degraded.reno_fallback ()) ()
    in
    let crash_at = Time_ns.scale duration 0.3 in
    let restart_at = Time_ns.scale duration 0.7 in
    let crashed =
      run_one ~duration ~seed ~label:"unix idle + agent crash (fallback)" ~model:unix
        ~model_p99_us:unix_p99
        ~faults:(Ccp_ipc.Fault_plan.crash ~at:crash_at ~restart:restart_at Ccp_ipc.Fault_plan.none)
        ~fallback:(Degraded.reno_fallback ()) ~crash_at ()
    in
    clean @ [ spiky; lossy; crashed ]
end

(* Incast: the flow-count scale-out family. N senders share one
   bottleneck — either synchronized (every flow starts at t=0, the
   classic partition/aggregate burst) or staggered over the first
   quarter of the run — and every flow is CCP-controlled, so the agent,
   the IPC channel, and the datapath flow table all see N-flow load at
   once. Cells run with the agent's slot pool sized to the fleet and,
   by default, cross-flow report batching armed; the scorecard reads
   fan-in health off the tail (p99 queue delay over base RTT), fairness
   (Jain), loss (retransmit rate, timeouts), and the control plane's
   own accounting (reports, sheds, wire frames vs. batch frames, pool
   rejections). The "ccp-aggregate" algorithm rides the same topology
   with all N flows as members of one congestion-controlled aggregate. *)
module Incast = struct
  let schema_tag = "ccp-incast-scorecard/v1"
  let default_rate_bps = 96e6
  let default_base_rtt = Time_ns.ms 10

  (* Watermarks tuned for fan-in: a synchronized burst fills a frame in
     one RTT's worth of reports; the 200 us deadline bounds the extra
     control-loop delay batching can ever add. *)
  let default_batching =
    { Ccp_ipc.Channel.max_count = 32; max_bytes = 4096; deadline = Time_ns.us 200 }

  type arrival = Synchronized | Staggered

  let arrival_to_string = function
    | Synchronized -> "synchronized"
    | Staggered -> "staggered"

  let arrival_of_string = function
    | "synchronized" -> Synchronized
    | "staggered" -> Staggered
    | s -> invalid_arg (Printf.sprintf "Incast: unknown arrival %S" s)

  let algorithm_names = [ "ccp-reno"; "ccp-aggregate" ]

  type cell = {
    n : int;
    arrival : arrival;
    algo : string;
    seed : int;
    utilization : float;
    jain_index : float;
    p99_queue_delay_ms : float;
    retransmit_rate : float;
    timeouts : int;
    reports : int;
    reports_shed : int;
    decode_failures : int;
    wire_messages : int;  (* datapath->agent wire frames *)
    batches : int;  (* of which batch frames *)
    pool_rejections : int;
    result : Experiment.result;
    telemetry : Ccp_obs.Obs.t option;
  }

  type scorecard = {
    rate_bps : float;
    base_rtt : Time_ns.t;
    duration : Time_ns.t;
    batching : bool;
    seeds : int list;
    cells : cell list;
  }

  let start_of ~arrival ~duration ~n i =
    match arrival with
    | Synchronized -> Time_ns.zero
    | Staggered ->
      (* Spread arrivals over the first quarter of the run. *)
      Time_ns.scale duration (0.25 *. float_of_int i /. float_of_int (max 1 n))

  let flows_of ~algo ~arrival ~duration ~n =
    match algo with
    | "ccp-reno" ->
      List.init n (fun i ->
          Experiment.flow
            ~start_at:(start_of ~arrival ~duration ~n i)
            (Experiment.Ccp_cc (Ccp_reno.create ())))
    | "ccp-aggregate" ->
      (* One aggregate instance; all N flows register as members and the
         controller splits one window across them. *)
      let algo = Ccp_aggregate.algorithm (Ccp_aggregate.create ()) in
      List.init n (fun i ->
          Experiment.flow
            ~start_at:(start_of ~arrival ~duration ~n i)
            (Experiment.Ccp_cc algo))
    | s ->
      invalid_arg
        (Printf.sprintf "Incast: unknown algorithm %S (have: %s)" s
           (String.concat ", " algorithm_names))

  let run_cell ?(with_telemetry = false) ~rate_bps ~base_rtt ~duration ~batching
      ~seed ~n ~arrival ~algo () =
    let handles = ref None in
    let base = Experiment.default_config ~rate_bps ~base_rtt ~duration in
    (* Telemetry at fan-in scale: a fresh bundle per cell whose Top-K
       sketches stay O(k) even at N=2048 flows. The zero wall clock
       keeps exports byte-stable; k = 64 gives the heavy-hitter bound
       (error <= total/k) room to separate aggregate-dominant flows from
       the crowd. *)
    let telemetry =
      if with_telemetry then
        Some (Ccp_obs.Obs.create ~tracer:true ~telemetry:true ~clock:(fun () -> 0.0) ())
      else None
    in
    (* A shallow buffer is what makes incast incast: BDP/4, floored at
       six segments so tiny configurations still pass traffic. *)
    let bdp_bytes = rate_bps *. Time_ns.to_float_sec base_rtt /. 8.0 in
    let buffer_bytes = max 9000 (int_of_float (bdp_bytes /. 4.0)) in
    let r =
      Experiment.run
        {
          base with
          Experiment.seed;
          obs = telemetry;
          buffer_bytes;
          warmup = Time_ns.scale duration 0.1;
          flows = flows_of ~algo ~arrival ~duration ~n;
          ipc_batching = (if batching then Some default_batching else None);
          agent_flow_pool = Some (max 16 n);
          datapath =
            { Ccp_datapath.Ccp_ext.default_config with
              Ccp_datapath.Ccp_ext.flow_capacity = max 16 n };
          inspect = Some (fun h -> handles := Some h);
        }
    in
    let sum f = List.fold_left (fun acc fr -> acc + f fr) 0 r.Experiment.flows in
    let segments = sum (fun (f : Experiment.flow_result) -> f.segments_sent) in
    let retx = sum (fun (f : Experiment.flow_result) -> f.retransmits) in
    let agent f = match r.Experiment.agent_stats with Some s -> f s | None -> 0 in
    let wire_messages, batches, pool_rejections =
      match !handles with
      | Some h ->
        ( Ccp_ipc.Channel.messages_sent h.Experiment.h_channel Ccp_ipc.Channel.Datapath_end,
          Ccp_ipc.Channel.batches_sent h.Experiment.h_channel,
          Ccp_agent.Agent.registrations_rejected h.Experiment.h_agent )
      | None -> (0, 0, 0)
    in
    {
      n;
      arrival;
      algo;
      seed;
      utilization = r.Experiment.utilization;
      jain_index = r.Experiment.jain_index;
      p99_queue_delay_ms =
        Float.max 0.0
          (Time_ns.to_float_ms r.Experiment.p99_rtt -. Time_ns.to_float_ms base_rtt);
      retransmit_rate =
        (if segments = 0 then 0.0 else float_of_int retx /. float_of_int segments);
      timeouts = sum (fun (f : Experiment.flow_result) -> f.timeouts);
      reports = agent (fun s -> s.Experiment.reports);
      reports_shed = agent (fun s -> s.Experiment.reports_shed);
      decode_failures = agent (fun s -> s.Experiment.decode_failures);
      wire_messages;
      batches;
      pool_rejections;
      result = r;
      telemetry;
    }

  let run ?(rate_bps = default_rate_bps) ?(base_rtt = default_base_rtt)
      ?(duration = Time_ns.sec 1) ?(ns = [ 16; 64; 256 ])
      ?(arrivals = [ Synchronized; Staggered ]) ?(algos = algorithm_names)
      ?(seeds = [ 42 ]) ?(batching = true) ?(with_telemetry = false) () =
    List.iter
      (fun a ->
        if not (List.mem a algorithm_names) then
          invalid_arg
            (Printf.sprintf "Incast: unknown algorithm %S (have: %s)" a
               (String.concat ", " algorithm_names)))
      algos;
    List.iter
      (fun n -> if n <= 0 then invalid_arg "Incast: flow counts must be positive")
      ns;
    let cells =
      List.concat_map
        (fun seed ->
          List.concat_map
            (fun n ->
              List.concat_map
                (fun arrival ->
                  List.map
                    (fun algo ->
                      run_cell ~with_telemetry ~rate_bps ~base_rtt ~duration
                        ~batching ~seed ~n ~arrival ~algo ())
                    algos)
                arrivals)
            ns)
        seeds
    in
    { rate_bps; base_rtt; duration; batching; seeds; cells }

  let cell_spec =
    Schema.(
      doc
        ~check:(fun c ->
          let batches = get_num c "batches" and wire = get_num c "wire_messages" in
          if batches > wire then
            Error (Printf.sprintf "batches %g > wire_messages %g" batches wire)
          else
            require (get_num c "reports" = 0.0 || wire > 0.0)
              "reports arrived over zero wire frames")
        [
          field "n" positive (fun c -> c.n);
          field "arrival"
            (one_of (List.map arrival_to_string [ Synchronized; Staggered ]))
            (fun c -> arrival_to_string c.arrival);
          field "algo" (one_of algorithm_names) (fun c -> c.algo);
          field "seed" count (fun c -> c.seed);
          field "utilization" utilization (fun c -> c.utilization);
          (* Unlike the robustness matrix, heavy fan-in can legitimately
             starve flows to zero goodput, so 0 is admissible. *)
          field "jain" (number ~ge:0.0 ~le:(1.0 +. 1e-9) ()) (fun c -> c.jain_index);
          field "p99_queue_delay_ms" non_negative (fun c -> c.p99_queue_delay_ms);
          field "retransmit_rate" fraction (fun c -> c.retransmit_rate);
          field "timeouts" count (fun c -> c.timeouts);
          field "reports" count (fun c -> c.reports);
          field "reports_shed" count (fun c -> c.reports_shed);
          field "decode_failures" count (fun c -> c.decode_failures);
          field "wire_messages" count (fun c -> c.wire_messages);
          field "batches" count (fun c -> c.batches);
          field "pool_rejections" count (fun c -> c.pool_rejections);
          health_field (fun c -> c.telemetry);
        ])

  let spec =
    Schema.(
      doc
        ~check:(fun sc ->
          if get_bool sc "batching" then Ok ()
          else
            each "cells"
              (fun c ->
                require (get_num c "batches" = 0.0) "batches nonzero in an unbatched scorecard")
              sc)
        [
          tag schema_tag;
          field "rate_bps" (number ()) (fun sc -> sc.rate_bps);
          field "base_rtt_ms" (number ()) (fun sc -> Time_ns.to_float_ms sc.base_rtt);
          field "duration_s" (number ()) (fun sc -> Time_ns.to_float_sec sc.duration);
          field "batching" bool (fun sc -> sc.batching);
          field "seeds" (list count) (fun sc -> sc.seeds);
          field "cells" (list (obj cell_spec)) (fun sc -> sc.cells);
        ])

  let to_json = Schema.encode spec
  let validate_scorecard = Schema.validate spec ~count:"cells"
end
