(* The four workloads of the end-to-end benchmark.

   Each is built here, outside the library, from public
   [Experiment.config] fields, [Scenarios] constants and [Ccp_algorithms]
   constructors, so the benchmark can wrap algorithms and hook the
   simulator without touching [lib/]. The fidelity test checks that the
   configs below run the same simulation as [Scenarios.Fig3.run] and
   [Scenarios.Incast.run_cell]. *)

open Ccp_util
open Ccp_core

type t = {
  name : string;
  duration : Time_ns.t;
      (* Simulated length. It is part of the definition: the per-event
         cost of fig3-ccp grows along the run, so a longer run measures a
         different mix. *)
  expected_wall_s : float;
      (* Untraced wall time of one repetition on a 2-core x86 container,
         rounded up; a repetition that takes 3x this has failed. *)
  util_floor : float option;
      (* Below this utilization the simulated output is wrong: 0.9x the
         measured seed-42 value. *)
  make : seed:int -> duration:Time_ns.t -> Experiment.config;
      (* The config of a run seeded [seed]. *)
}

(* The seed of Figure 3 and of the incast scorecards. fig3-ccp and
   incast-aggregate-256 always simulate it, whatever the run's seed:
   their trajectories fork on the IPC latency draws, so their cost
   depends on the seed far more than on the code. On a 2-core x86 VM,
   over seeds 1-10 one fig3-ccp repetition allocates 55-95 Mwords and
   runs 0.68-0.93 s (seed 42: 67 Mwords, 1.36 s); over seeds 11-20 one
   incast-aggregate-256 repetition allocates 617-648 Mwords and peaks at
   23.4-26.4 MB. Runs made on different seeds would then differ by more
   than the 1 % and 5 % bounds on those two metrics. *)
let pinned_seed = 42

let fig3 ~cc ~seed ~duration =
  let base =
    Experiment.default_config ~rate_bps:Scenarios.Fig3.rate_bps
      ~base_rtt:Scenarios.Fig3.base_rtt ~duration
  in
  {
    base with
    Experiment.seed;
    warmup = Time_ns.scale duration 0.1;
    flows = [ Experiment.flow (cc ()) ];
  }

(* [Scenarios.Incast.run_cell] with batching on, minus its telemetry. *)
let incast ~algo ~n ~staggered ~seed ~duration =
  let rate_bps = Scenarios.Incast.default_rate_bps in
  let base_rtt = Scenarios.Incast.default_base_rtt in
  let base = Experiment.default_config ~rate_bps ~base_rtt ~duration in
  let bdp_bytes = rate_bps *. Time_ns.to_float_sec base_rtt /. 8.0 in
  let start_at i =
    if staggered then Time_ns.scale duration (0.25 *. float_of_int i /. float_of_int n)
    else Time_ns.zero
  in
  {
    base with
    Experiment.seed;
    buffer_bytes = max 9000 (int_of_float (bdp_bytes /. 4.0));
    warmup = Time_ns.scale duration 0.1;
    flows = List.init n (fun i -> Experiment.flow ~start_at:(start_at i) (Experiment.Ccp_cc (algo ())));
    ipc_batching = Some Scenarios.Incast.default_batching;
    agent_flow_pool = Some (max 16 n);
    datapath = { Ccp_datapath.Ccp_ext.default_config with flow_capacity = max 16 n };
  }

let incast_reno ~n ~seed ~duration =
  incast ~n ~staggered:false ~seed ~duration ~algo:Ccp_algorithms.Ccp_reno.create

(* One aggregate shared by every member, as [Scenarios.Incast] builds it. *)
let incast_aggregate ~n ~seed ~duration =
  let algo = Ccp_algorithms.Ccp_aggregate.algorithm (Ccp_algorithms.Ccp_aggregate.create ()) in
  incast ~n ~staggered:true ~seed ~duration ~algo:(fun () -> algo)

let all =
  [
    (* The per-ACK path at the paper's 1 Gbit/s through the Ccp_ext fold,
       with an idle control plane (about 30 reports). Always seed 42. *)
    {
      name = "fig3-ccp";
      duration = Time_ns.ms 500;
      expected_wall_s = 1.5;
      util_floor = Some 0.115;
      make =
        (fun ~seed:_ ~duration ->
          fig3 ~seed:pinned_seed ~duration ~cc:(fun () ->
              Experiment.Ccp_cc (Ccp_algorithms.Ccp_cubic.create ())));
    };
    (* The same link with in-datapath Cubic: no Ccp_ext, IPC or agent, so
       a change to a CCP layer must leave it flat. Nothing in it draws
       from the seed. *)
    {
      name = "fig3-native";
      duration = Time_ns.sec 3;
      expected_wall_s = 1.6;
      util_floor = Some 0.875;
      make =
        (fun ~seed ~duration ->
          fig3 ~seed ~duration ~cc:(fun () ->
              Experiment.Native_cc Ccp_algorithms.Native_cubic.create));
    };
    (* Control-plane fan-in with little per-ACK work: about 200 k batched
       reports and as many installs per simulated second. *)
    {
      name = "incast-reno-2048";
      duration = Time_ns.ms 500;
      expected_wall_s = 3.4;
      util_floor = None;
      make = incast_reno ~n:2048;
    };
    (* The codec, channel and agent in the reverse direction: the
       aggregate re-installs every member on each report (~57 installs per
       report), ROADMAP item 3. Always seed 42. *)
    {
      name = "incast-aggregate-256";
      duration = Time_ns.ms 500;
      expected_wall_s = 3.4;
      util_floor = None;
      make = (fun ~seed:_ -> incast_aggregate ~n:256 ~seed:pinned_seed);
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
let names = List.map (fun w -> w.name) all
