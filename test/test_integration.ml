(* End-to-end integration tests: whole experiments through the public
   API, checking the properties the paper's evaluation depends on. Kept
   at modest link speeds so the suite stays fast. *)

open Ccp_util
open Ccp_core
open Ccp_algorithms

let base_config ?(rate_bps = 20e6) ?(rtt = Time_ns.ms 20) ?(duration = Time_ns.sec 8)
    ?(warmup = Time_ns.sec 2) () =
  let base = Experiment.default_config ~rate_bps ~base_rtt:rtt ~duration in
  { base with Experiment.warmup }

let run_one ?rate_bps ?rtt ?duration ?warmup cc =
  let config = base_config ?rate_bps ?rtt ?duration ?warmup () in
  Experiment.run { config with Experiment.flows = [ Experiment.flow cc ] }

let check_util name ~at_least (r : Experiment.result) =
  Alcotest.(check bool)
    (Printf.sprintf "%s utilization %.3f >= %.2f" name r.Experiment.utilization at_least)
    true
    (r.Experiment.utilization >= at_least)

let test_every_algorithm_fills_the_link () =
  let cases =
    [
      ("reno", Experiment.Native_cc Native_reno.create, 0.90);
      ("cubic", Experiment.Native_cc Native_cubic.create, 0.90);
      ("vegas", Experiment.Native_cc Native_vegas.create, 0.90);
      ("htcp", Experiment.Native_cc Native_htcp.create, 0.90);
      ("illinois", Experiment.Native_cc Native_illinois.create, 0.90);
      ("ccp-reno", Experiment.Ccp_cc (Ccp_reno.create ()), 0.90);
      ("ccp-cubic", Experiment.Ccp_cc (Ccp_cubic.create ()), 0.90);
      ("ccp-vegas-fold", Experiment.Ccp_cc (Ccp_vegas.create `Fold), 0.90);
      ("ccp-vegas-vector", Experiment.Ccp_cc (Ccp_vegas.create `Vector), 0.90);
      ("ccp-bbr", Experiment.Ccp_cc (Ccp_bbr.create ()), 0.85);
      ("ccp-timely", Experiment.Ccp_cc (Ccp_timely.create ()), 0.75);
      ("ccp-pcc", Experiment.Ccp_cc (Ccp_pcc.create ()), 0.75);
      ("ccp-aimd", Experiment.Ccp_cc (Ccp_aimd.create ()), 0.85);
    ]
  in
  List.iter (fun (name, cc, floor) -> check_util name ~at_least:floor (run_one cc)) cases

let test_ccp_matches_native_reno () =
  (* The paper's core claim: off-datapath control with per-RTT batching
     preserves behaviour. Utilization and median RTT must be close. *)
  let native = run_one (Experiment.Native_cc Native_reno.create) in
  let ccp = run_one (Experiment.Ccp_cc (Ccp_reno.create ())) in
  Alcotest.(check bool) "utilization within 5%" true
    (Float.abs (native.Experiment.utilization -. ccp.Experiment.utilization) < 0.05);
  let ms r = Time_ns.to_float_ms r.Experiment.median_rtt in
  Alcotest.(check bool)
    (Printf.sprintf "median RTT close (%.1f vs %.1f ms)" (ms native) (ms ccp))
    true
    (Float.abs (ms native -. ms ccp) < 8.0)

let test_vegas_fold_equals_vector () =
  (* §2.4: the two batching modes express the same algorithm. Run at a
     rate where a window holds ~86 packets so the per-packet vector cost
     is clearly visible. *)
  let fold = run_one ~rate_bps:50e6 (Experiment.Ccp_cc (Ccp_vegas.create `Fold)) in
  let vector = run_one ~rate_bps:50e6 (Experiment.Ccp_cc (Ccp_vegas.create `Vector)) in
  Alcotest.(check bool) "same utilization" true
    (Float.abs (fold.Experiment.utilization -. vector.Experiment.utilization) < 0.03);
  (* ... but the fold costs far less IPC. *)
  let bytes r = (Option.get r.Experiment.agent_stats).Experiment.ipc_bytes_to_agent in
  Alcotest.(check bool)
    (Printf.sprintf "vector sends much more data (%d vs %d)" (bytes vector) (bytes fold))
    true
    (bytes vector > 3 * bytes fold)

let test_two_flows_share_fairly () =
  let config = base_config ~duration:(Time_ns.sec 20) ~warmup:(Time_ns.sec 10) () in
  let config =
    {
      config with
      Experiment.flows =
        [
          Experiment.flow (Experiment.Native_cc Native_reno.create);
          Experiment.flow (Experiment.Native_cc Native_reno.create);
        ];
    }
  in
  let r = Experiment.run config in
  Alcotest.(check bool)
    (Printf.sprintf "jain %.3f" r.Experiment.jain_index)
    true (r.Experiment.jain_index > 0.85);
  check_util "two flows" ~at_least:0.9 r

let test_late_flow_converges () =
  let config = base_config ~duration:(Time_ns.sec 24) ~warmup:Time_ns.zero () in
  let config =
    {
      config with
      Experiment.flows =
        [
          Experiment.flow (Experiment.Ccp_cc (Ccp_reno.create ()));
          Experiment.flow ~start_at:(Time_ns.sec 8) (Experiment.Ccp_cc (Ccp_reno.create ()));
        ];
    }
  in
  let r = Experiment.run config in
  (* The latecomer must claim a substantial share by the end. *)
  let goodput i = (List.nth r.Experiment.flows i).Experiment.goodput_bps in
  Alcotest.(check bool)
    (Printf.sprintf "flow1 got %.1f%% of flow0" (100.0 *. goodput 1 /. goodput 0))
    true
    (goodput 1 > 0.2 *. goodput 0)

let test_determinism () =
  let run () =
    let r = run_one ~duration:(Time_ns.sec 4) (Experiment.Ccp_cc (Ccp_cubic.create ())) in
    ( r.Experiment.utilization,
      r.Experiment.median_rtt,
      (List.hd r.Experiment.flows).Experiment.delivered_bytes,
      r.Experiment.drops )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "bit-identical reruns" true (a = b)

let test_seed_changes_results () =
  (* With per-packet link jitter, the seed drives packet timing, so some
     observable must differ across seeds. *)
  let with_seed seed =
    let config = base_config ~duration:(Time_ns.sec 4) () in
    let config =
      { config with
        Experiment.seed;
        jitter = Time_ns.us 500;
        flows = [ Experiment.flow (Experiment.Ccp_cc (Ccp_reno.create ())) ] }
    in
    let r = Experiment.run config in
    ( (List.hd r.Experiment.flows).Experiment.delivered_bytes,
      r.Experiment.median_rtt,
      (Option.get r.Experiment.agent_stats).Experiment.ipc_bytes_to_agent )
  in
  Alcotest.(check bool) "seeds differ" true
    (with_seed 1 <> with_seed 2 || with_seed 3 <> with_seed 1)

let test_dctcp_keeps_queue_short () =
  let rate_bps = 20e6 and rtt = Time_ns.ms 2 in
  let base = Experiment.default_config ~rate_bps ~base_rtt:rtt ~duration:(Time_ns.sec 4) in
  let config =
    {
      base with
      Experiment.warmup = Time_ns.sec 1;
      buffer_bytes = 100_000;
      ecn_threshold_bytes = Some 15_000;
      flows = [ Experiment.flow (Experiment.Ccp_cc (Ccp_dctcp.create ())) ];
    }
  in
  let r = Experiment.run config in
  check_util "dctcp" ~at_least:0.8 r;
  Alcotest.(check bool) "marks happened" true (r.Experiment.ecn_marks > 0);
  Alcotest.(check bool)
    (Printf.sprintf "few drops (%d)" r.Experiment.drops)
    true (r.Experiment.drops < 20);
  (* Median RTT stays near the base: the queue is kept at the threshold. *)
  Alcotest.(check bool)
    (Printf.sprintf "median rtt %.2fms" (Time_ns.to_float_ms r.Experiment.median_rtt))
    true
    (Time_ns.to_float_ms r.Experiment.median_rtt < 12.0)

let test_policy_cap_respected_end_to_end () =
  let config = base_config ~duration:(Time_ns.sec 10) ~warmup:(Time_ns.sec 3) () in
  let cap_bytes_per_sec = 250_000.0 (* 2 Mbit/s *) in
  let config =
    {
      config with
      Experiment.policy =
        Some
          (fun (info : Ccp_agent.Algorithm.flow_info) ->
            if info.Ccp_agent.Algorithm.flow = 0 then
              { Ccp_agent.Policy.max_rate_bps = Some cap_bytes_per_sec;
                max_cwnd_bytes = Some 10_000; min_cwnd_bytes = None }
            else Ccp_agent.Policy.unrestricted);
      flows =
        [
          Experiment.flow (Experiment.Ccp_cc (Ccp_cubic.create ()));
          Experiment.flow (Experiment.Ccp_cc (Ccp_cubic.create ()));
        ];
    }
  in
  let r = Experiment.run config in
  let goodput i = (List.nth r.Experiment.flows i).Experiment.goodput_bps in
  (* cwnd cap 10kB over 20ms RTT = 4 Mbit/s hard ceiling. *)
  Alcotest.(check bool)
    (Printf.sprintf "capped flow %.2f Mbit/s" (goodput 0 /. 1e6))
    true
    (goodput 0 < 4.5e6);
  Alcotest.(check bool) "uncapped flow takes the rest" true (goodput 1 > 10e6)

let test_urgent_disabled_degrades () =
  (* Removing the urgent path makes loss reactions a full report late;
     with a repeating loss pattern utilization collapses (DESIGN ablation,
     asserted here as a regression test). *)
  let run ~urgent =
    let config = base_config ~duration:(Time_ns.sec 8) () in
    let config =
      {
        config with
        Experiment.datapath =
          { Ccp_datapath.Ccp_ext.default_config with urgent_on_loss = urgent };
        flows = [ Experiment.flow (Experiment.Ccp_cc (Ccp_reno.create ())) ];
      }
    in
    Experiment.run config
  in
  let with_urgent = run ~urgent:true and without = run ~urgent:false in
  Alcotest.(check bool) "urgent >= no-urgent" true
    (with_urgent.Experiment.utilization >= without.Experiment.utilization);
  Alcotest.(check bool) "no-urgent drops more" true
    (without.Experiment.drops > with_urgent.Experiment.drops)

let test_fig2_percentiles_match_paper () =
  let series = Scenarios.Fig2.run ~samples:30_000 ~seed:7 () in
  List.iter
    (fun (s : Scenarios.Fig2.series) ->
      let measured = Stats.Samples.percentile s.samples 99.0 in
      Alcotest.(check bool)
        (Printf.sprintf "%s p99 %.1f vs paper %.1f" s.label measured s.paper_p99_us)
        true
        (Float.abs (measured -. s.paper_p99_us) /. s.paper_p99_us < 0.10))
    series

let test_batching_table_matches_paper_arithmetic () =
  let rows = Scenarios.Batching_load.table () in
  let row =
    List.find
      (fun (r : Scenarios.Batching_load.row) ->
        r.link_bps = 100e9 && r.rtt = Time_ns.us 10)
      rows
  in
  (* "8 million acknowledgments per second ... 100,000 batches" (§2.3). *)
  Alcotest.(check bool) "8M acks" true (Float.abs (row.acks_per_sec -. 8.33e6) < 0.2e6);
  Alcotest.(check (float 1.0)) "100k batches" 100_000.0 row.batches_per_sec

let test_agent_crash_fallback_and_recovery () =
  (* The fault-injection PR's acceptance scenario: the agent crashes at
     t=5 s and restarts at t=10 s of a 20 s run. The watchdog (silence
     threshold 4 base RTTs = 80 ms) must hand the flow to native Reno
     shortly after the crash, and the restarted agent must win it back
     via the Ready re-handshake — with goodput flowing throughout. *)
  let crash_at = Time_ns.sec 5 and restart_at = Time_ns.sec 10 in
  let base_rtt = Time_ns.ms 20 in
  let watchdog_after = Time_ns.scale base_rtt 4.0 in
  let duration = Time_ns.sec 20 in
  let base = Experiment.default_config ~rate_bps:48e6 ~base_rtt ~duration in
  let probes = ref [] in
  (* (when, in_fallback, controller) samples around the two transitions. *)
  let sample_points =
    [
      Time_ns.ms 4_900;
      (* just before the crash: agent in charge *)
      Time_ns.add crash_at (Time_ns.scale watchdog_after 3.0);
      (* within a few watchdog periods of the crash: native in charge *)
      Time_ns.sec 8;
      (* mid-outage: still native *)
      Time_ns.sec 19;
      (* well after restart: agent back in charge *)
    ]
  in
  let config =
    {
      base with
      Experiment.faults =
        Ccp_ipc.Fault_plan.(crash ~at:crash_at ~restart:restart_at none);
      flows = [ Experiment.flow (Experiment.Ccp_cc (Ccp_reno.create ())) ];
      datapath =
        {
          Ccp_datapath.Ccp_ext.default_config with
          fallback =
            Some
              (Ccp_datapath.Ccp_ext.native_fallback ~after:watchdog_after
                 Native_reno.create);
        };
      inspect =
        Some
          (fun { Experiment.h_sim; h_datapath; _ } ->
            List.iter
              (fun at ->
                ignore
                  (Ccp_eventsim.Sim.schedule h_sim ~at (fun () ->
                       probes :=
                         ( at,
                           Ccp_datapath.Ccp_ext.in_fallback h_datapath ~flow:0,
                           Ccp_datapath.Ccp_ext.controller h_datapath ~flow:0 )
                         :: !probes)))
              sample_points);
    }
  in
  let r = Experiment.run config in
  let at t =
    match List.find_opt (fun (t', _, _) -> t' = t) !probes with
    | Some (_, fb, c) -> (fb, c)
    | None -> Alcotest.failf "no probe at %s" (Time_ns.to_string t)
  in
  let open Ccp_datapath in
  let fb, c = at (Time_ns.ms 4_900) in
  Alcotest.(check bool) "agent in charge before crash" true
    ((not fb) && c = Some Ccp_ext.Agent_program);
  let fb, c = at (Time_ns.add crash_at (Time_ns.scale watchdog_after 3.0)) in
  Alcotest.(check bool) "fallback within a few watchdog periods" true
    (fb && c = Some Ccp_ext.Native_fallback);
  let fb, _ = at (Time_ns.sec 8) in
  Alcotest.(check bool) "still native mid-outage" true fb;
  let fb, c = at (Time_ns.sec 19) in
  Alcotest.(check bool) "agent resumed control after restart" true
    ((not fb) && c = Some Ccp_ext.Agent_program);
  let stats = Option.get r.Experiment.agent_stats in
  Alcotest.(check int) "exactly one fallback episode" 1 stats.Experiment.fallbacks;
  Alcotest.(check bool) "re-handshake probes were sent" true
    (stats.Experiment.fallback_probes > 0);
  Alcotest.(check bool)
    (Printf.sprintf "goodput flowed through the outage (utilization %.2f)"
       r.Experiment.utilization)
    true
    (r.Experiment.utilization > 0.7)

(* Reno's contract on a clean run with the watchdog armed: one accepted
   install for the flow's life, a window sent on every report and urgent,
   and an agent never silent long enough for the watchdog. *)
let test_reno_steers_without_reinstalls () =
  let module Degraded = Scenarios.Degraded in
  let r = Degraded.run_one ~fallback:(Degraded.reno_fallback ()) () in
  let stats = Option.get r.Experiment.agent_stats in
  Alcotest.(check int) "one install sent" 1 stats.Experiment.installs;
  Alcotest.(check int) "and accepted" 1 stats.Experiment.installs_admitted;
  Alcotest.(check int) "no fallback" 0 stats.Experiment.fallbacks;
  Alcotest.(check int) "no probe" 0 stats.Experiment.fallback_probes;
  Alcotest.(check bool)
    (Printf.sprintf "reports and urgents flowed (%d, %d)" stats.Experiment.reports
       stats.Experiment.urgents)
    true
    (stats.Experiment.reports > 400 && stats.Experiment.urgents > 0)

let suite =
  [
    ( "integration",
      [
        Alcotest.test_case "all algorithms fill the link" `Slow
          test_every_algorithm_fills_the_link;
        Alcotest.test_case "ccp matches native (fig3/4 claim)" `Slow test_ccp_matches_native_reno;
        Alcotest.test_case "vegas fold == vector (§2.4)" `Slow test_vegas_fold_equals_vector;
        Alcotest.test_case "two-flow fairness" `Slow test_two_flows_share_fairly;
        Alcotest.test_case "late flow converges (fig4 shape)" `Slow test_late_flow_converges;
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "seed sensitivity" `Quick test_seed_changes_results;
        Alcotest.test_case "dctcp short queues" `Quick test_dctcp_keeps_queue_short;
        Alcotest.test_case "policy cap end-to-end" `Slow test_policy_cap_respected_end_to_end;
        Alcotest.test_case "urgent path matters" `Slow test_urgent_disabled_degrades;
        Alcotest.test_case "fig2 percentiles" `Quick test_fig2_percentiles_match_paper;
        Alcotest.test_case "batching arithmetic (§2.3)" `Quick
          test_batching_table_matches_paper_arithmetic;
        Alcotest.test_case "agent crash: fallback and recovery" `Slow
          test_agent_crash_fallback_and_recovery;
        Alcotest.test_case "reno: one install, no fallback" `Slow
          test_reno_steers_without_reinstalls;
      ] );
  ]
