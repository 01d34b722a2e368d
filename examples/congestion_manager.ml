(* Congestion-manager-style aggregation (§5 / §4's CM discussion).

   Five flows to the same destination share ONE congestion controller:
   the aggregate probes the bottleneck once (not five times), every
   member's loss is one shared signal, and a flow that joins late gets
   its fair share instantly instead of slow-starting from scratch.

   The same workload then runs with five independent CCP Reno controllers
   for contrast: they compete against each other at the shared bottleneck.

     dune exec examples/congestion_manager.exe *)

open Ccp_util
open Ccp_core

let run ~label mk_flows =
  let base =
    Experiment.default_config ~rate_bps:50e6 ~base_rtt:(Time_ns.ms 20)
      ~duration:(Time_ns.sec 20)
  in
  let config =
    { base with Experiment.warmup = Time_ns.sec 5; flows = mk_flows () }
  in
  let r = Experiment.run config in
  Printf.printf "%-22s util=%5.1f%%  jain=%.4f  drops=%-5d median RTT=%s\n" label
    (100.0 *. r.Experiment.utilization)
    r.Experiment.jain_index r.Experiment.drops
    (Time_ns.to_string r.Experiment.median_rtt);
  r

let staggered_starts mk =
  (* Flows join at 0, 1, 2, 3, 4 seconds. *)
  List.init 5 (fun i -> Experiment.flow ~start_at:(Time_ns.sec i) (mk i))

let () =
  Printf.printf "five flows, one 50 Mbit/s bottleneck, staggered joins (0..4 s):\n\n";
  let aggregate = Ccp_algorithms.Ccp_aggregate.create () in
  let shared = Ccp_algorithms.Ccp_aggregate.algorithm aggregate in
  ignore
    (run ~label:"one aggregate (CM)" (fun () ->
         staggered_starts (fun _ -> Experiment.Ccp_cc shared)));
  Printf.printf "  (aggregate window at end: %d bytes across %d members)\n\n"
    (Ccp_algorithms.Ccp_aggregate.aggregate_cwnd aggregate)
    (Ccp_algorithms.Ccp_aggregate.member_count aggregate);
  ignore
    (run ~label:"five independent renos" (fun () ->
         staggered_starts (fun _ -> Experiment.Ccp_cc (Ccp_algorithms.Ccp_reno.create ()))));
  Printf.printf
    "\nThe aggregate reaches near-perfect fairness immediately (every member is\n\
     steered to an equal share) and probes the bottleneck as one flow;\n\
     independent controllers need to collide with each other to converge.\n"
