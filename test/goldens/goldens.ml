(* The runs behind the byte-frozen goldens, test/golden_NAME.expected.

   Each golden's run is defined once, here. [all] renders the exact bytes
   of each file for print.exe, whose output dune diffs against the file;
   the suite's own cases inspect the same runs, so a test and its golden
   cannot drift apart. *)

open Ccp_util
open Ccp_core
module Robustness = Scenarios.Robustness
module Chaos = Scenarios.Chaos
module Incast = Scenarios.Incast

(* --- the flight recorder and the span tracer --- *)

(* A short CCP-Reno run on a lossy, spiky IPC channel: exercises report,
   install, fault, flow-sample, and queue-sample events, and the fault
   path's RNG draws — if any part of the pipeline picks up
   nondeterminism, these bytes change. Returns [obs] once the run is
   over. *)
let lossy_reno obs =
  let config =
    Experiment.default_config ~rate_bps:48e6 ~base_rtt:(Time_ns.ms 20)
      ~duration:(Time_ns.sec 2)
  in
  let config =
    {
      config with
      Experiment.seed = 42;
      flows = [ Experiment.flow (Experiment.Ccp_cc (Ccp_algorithms.Ccp_reno.create ())) ];
      faults =
        Ccp_ipc.Fault_plan.make ~drop_probability:0.1
          ~spike:{ Ccp_ipc.Fault_plan.probability = 0.05; extra = Time_ns.ms 2 }
          ();
      obs = Some obs;
    }
  in
  ignore (Experiment.run config : Experiment.result);
  obs

let trace_events = 80

(* The first [trace_events] JSONL lines of the recorder's trace. *)
let trace () =
  let obs = lossy_reno (Ccp_obs.Obs.create ()) in
  let lines =
    Ccp_obs.Recorder.to_jsonl (Ccp_obs.Obs.recorder_exn obs)
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  take trace_events lines

(* The same run with the tracer on and a frozen wall clock, so stage
   costs are 0 and the Chrome export depends only on simulation time. *)
let chrome () =
  let obs = lossy_reno (Ccp_obs.Obs.create ~tracer:true ~clock:(fun () -> 0.0) ()) in
  Ccp_obs.Tracer.chrome_of_recorder (Ccp_obs.Obs.recorder_exn obs)

(* --- the scenario scorecards --- *)

(* The seed-42 QUICK robustness matrix: 4 algorithms x [baseline,
   rtt-jitter, rate-noise] at 24 Mbit/s, 4 s per cell. *)
let scorecard () =
  Robustness.run ~rate_bps:24e6 ~duration:(Time_ns.sec 4) ~seeds:[ 42 ]
    ~perturbs:[ "baseline"; "rtt-jitter"; "rate-noise" ]
    ()

(* Seed-42 chaos defaults: one cold and one warm cell. *)
let chaos () = Chaos.run ()

(* N in {4, 16} at 24 Mbit/s for 1 s, seed 42. *)
let incast () =
  Incast.run ~rate_bps:24e6 ~base_rtt:(Time_ns.ms 10) ~duration:(Time_ns.sec 1) ~ns:[ 4; 16 ]
    ~seeds:[ 42 ] ()

(* The seed-42 chaos composition at half length (6 s) with telemetry
   armed: the first cell's bundle. The crash at 45 % still lands mid-run.
   Byte-exact: telemetry is sim-clock-driven, iterates metrics sorted by
   name, and the scenario arms it with a zero wall clock. *)
let timeline () =
  let sc = Chaos.run ~duration:(Time_ns.sec 6) ~seeds:[ 42 ] ~with_telemetry:true () in
  match sc.Chaos.cells with
  | { Chaos.telemetry = Some obs; _ } :: _ -> obs
  | _ -> failwith "chaos run produced no telemetry-armed cell"

(* --- the transport's dynamics --- *)

(* A run's counters plus an MD5 of every trace series, floats in hex so
   the bytes are exact. *)
let result_lines (r : Experiment.result) =
  let run_line =
    Printf.sprintf "run utilization=%h drops=%d ecn_marks=%d median_rtt=%d p95_rtt=%d p99_rtt=%d"
      r.Experiment.utilization r.drops r.ecn_marks r.median_rtt r.p95_rtt r.p99_rtt
  in
  let flow_line (f : Experiment.flow_result) =
    Printf.sprintf
      "flow %d %s delivered=%d goodput=%h mean_rtt=%d segments=%d retransmits=%d timeouts=%d \
       recoveries=%d final_cwnd=%d"
      f.flow_id f.cc_name f.delivered_bytes f.goodput_bps f.mean_rtt f.segments_sent
      f.retransmits f.timeouts f.recoveries f.final_cwnd
  in
  let agent_line =
    match r.agent_stats with
    | Some a -> [ Printf.sprintf "agent reports=%d installs=%d" a.reports a.installs ]
    | None -> []
  in
  let series_line name =
    let points = Ccp_net.Trace.series r.trace name in
    let b = Buffer.create 4096 in
    List.iter (fun (at, v) -> Printf.bprintf b "%d %h\n" at v) points;
    Printf.sprintf "series %s points=%d md5=%s" name (List.length points)
      (Digest.to_hex (Digest.string (Buffer.contents b)))
  in
  (run_line :: List.map flow_line r.flows)
  @ agent_line
  @ List.map series_line (List.sort compare (Ccp_net.Trace.series_names r.trace))

(* Seed 42 with the CLI's 10 % warmup. *)
let seeded_run config duration flows =
  Experiment.run
    { config with Experiment.seed = 42; warmup = Time_ns.scale duration 0.1; flows }

let fig3_config duration =
  Experiment.default_config ~rate_bps:Scenarios.Fig3.rate_bps ~base_rtt:Scenarios.Fig3.base_rtt
    ~duration

(* CCP Cubic on the Figure 3 link at 1 Gbit/s for 0.25 s: the only golden
   whose window runs into heavy loss with tens of thousands of segments
   outstanding, so the scoreboard's SACKed-region handling (the lost
   retransmission scan, the receiver's out-of-order set) is pinned here. *)
let fig3_ccp () =
  let duration = Time_ns.ms 250 in
  result_lines
    (seeded_run (fig3_config duration) duration
       [ Experiment.flow (Experiment.Ccp_cc (Ccp_algorithms.Ccp_cubic.create ())) ])

(* Two runs that pin the event queue's order where timers are re-armed:
   (a) native Cubic on the Figure 3 link for 0.5 s, which moves its RTO
   deadline on every ACK that advances snd_una; (b) CCP Timely beside a
   native Cubic flow at 100 Mbit/s, 20 ms and a 0.05-BDP buffer for 2 s,
   where Timely's pacing timer is re-armed and the Cubic flow takes one
   RTO. *)
let fig3_native () =
  let fig3 =
    let duration = Time_ns.ms 500 in
    seeded_run (fig3_config duration) duration
      [ Experiment.flow (Experiment.Native_cc Ccp_algorithms.Native_cubic.create) ]
  in
  let paced =
    let duration = Time_ns.sec 2 and rate_bps = 100e6 and base_rtt = Time_ns.ms 20 in
    let bdp = rate_bps *. Time_ns.to_float_sec base_rtt /. 8.0 in
    let config = Experiment.default_config ~rate_bps ~base_rtt ~duration in
    seeded_run
      { config with Experiment.buffer_bytes = int_of_float (0.05 *. bdp) }
      duration
      [
        Experiment.flow (Experiment.Ccp_cc (Ccp_algorithms.Ccp_timely.create ()));
        Experiment.flow (Experiment.Native_cc Ccp_algorithms.Native_cubic.create);
      ]
  in
  result_lines fig3 @ result_lines paced

(* Native Reno beside CCP Reno for 2 s at 48 Mbit/s and 20 ms, with 2 ms
   of jitter on the bottleneck: a segment serializes in ~0.25 ms, so
   packets overtake each other in propagation. The only golden whose
   deliveries arrive out of order, it pins the order in which a jittered
   link hands them over. *)
let jitter () =
  let duration = Time_ns.sec 2 in
  let config = Experiment.default_config ~rate_bps:48e6 ~base_rtt:(Time_ns.ms 20) ~duration in
  result_lines
    (seeded_run { config with Experiment.jitter = Time_ns.ms 2 } duration
       [
         Experiment.flow (Experiment.Native_cc Ccp_algorithms.Native_reno.create);
         Experiment.flow (Experiment.Ccp_cc (Ccp_algorithms.Ccp_reno.create ()));
       ])

(* --- the files --- *)

let lines l = String.concat "" (List.map (fun l -> l ^ "\n") l)
let json j = Ccp_obs.Json.to_string j ^ "\n"

let timeline_json obs =
  match Ccp_obs.Timeline.of_obs obs with
  | Ok doc -> doc
  | Error e -> failwith ("Timeline.of_obs: " ^ e)

(* Each golden's name and the exact bytes of test/golden_NAME.expected. *)
let all =
  [
    ("trace", fun () -> lines (trace ()));
    ("chrome", fun () -> json (chrome ()));
    ("scorecard", fun () -> json (Robustness.to_json (scorecard ())));
    ("chaos", fun () -> json (Chaos.to_json (chaos ())));
    ("incast", fun () -> json (Incast.to_json (incast ())));
    ("timeline", fun () -> json (timeline_json (timeline ())));
    ("fig3_ccp", fun () -> lines (fig3_ccp ()));
    ("fig3_native", fun () -> lines (fig3_native ()));
    ("jitter", fun () -> lines (jitter ()));
  ]
