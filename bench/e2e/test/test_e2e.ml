(* ccp_bench's own tests.

   - Fidelity: at small sizes the bench-built configs run the same
     simulation as [Scenarios.Fig3.run] and [Scenarios.Incast.run_cell],
     so the workloads cannot drift away from what ccp_sim runs.
   - Smoke: every workload at a tiny length, untraced and traced: the
     digests agree, the rows emitted are exactly the metrics
     BENCHMARK.json names that apply to the workload, the result line
     carries every named metric, and the result document round-trips
     through [Ccp_obs.Json].
   - Verdicts: the bounds of [ccp_bench compare], floors included. *)

open Ccp_util
open Ccp_core
open Ccp_e2e
module Json = Ccp_obs.Json
module Metrics = Ccp_obs.Metrics

let seed = 42

let run_with_handles config =
  let handles = ref None in
  let r = Experiment.run { config with Experiment.inspect = Some (fun h -> handles := Some h) } in
  (r, Option.get !handles)

let workload name = Option.get (Workload.find name)

(* --- fidelity --- *)

let fidelity_duration = Time_ns.ms 200

let test_fig3 () =
  let cmp = Scenarios.Fig3.run ~duration:fidelity_duration ~seed () in
  let run name = Experiment.run ((workload name).Workload.make ~seed ~duration:fidelity_duration) in
  let ccp = run "fig3-ccp" and native = run "fig3-native" in
  let agent (r : Experiment.result) = Option.get r.Experiment.agent_stats in
  Alcotest.(check (float 0.0)) "ccp utilization" cmp.Scenarios.ccp.Experiment.utilization
    ccp.Experiment.utilization;
  Alcotest.(check int) "ccp reports" (agent cmp.Scenarios.ccp).Experiment.reports
    (agent ccp).Experiment.reports;
  Alcotest.(check int) "ccp bytes to the agent"
    (agent cmp.Scenarios.ccp).Experiment.ipc_bytes_to_agent (agent ccp).Experiment.ipc_bytes_to_agent;
  Alcotest.(check (float 0.0)) "native utilization" cmp.Scenarios.native.Experiment.utilization
    native.Experiment.utilization

let test_incast make ~arrival ~algo () =
  let n = 16 in
  let cell =
    Scenarios.Incast.run_cell ~rate_bps:Scenarios.Incast.default_rate_bps
      ~base_rtt:Scenarios.Incast.default_base_rtt ~duration:fidelity_duration ~batching:true ~seed
      ~n ~arrival ~algo ()
  in
  let r, h = run_with_handles (make ~n ~seed ~duration:fidelity_duration) in
  Alcotest.(check (float 0.0)) "utilization" cell.Scenarios.Incast.utilization r.Experiment.utilization;
  Alcotest.(check int) "reports" cell.Scenarios.Incast.reports
    (Ccp_agent.Agent.reports_received h.Experiment.h_agent);
  Alcotest.(check int) "wire frames" cell.Scenarios.Incast.wire_messages
    (Ccp_ipc.Channel.messages_sent h.Experiment.h_channel Ccp_ipc.Channel.Datapath_end)

(* --- smoke --- *)

(* Under [dune runtest] the test runs in its build directory; under
   [dune exec], from the repository root. *)
let benchmark =
  lazy
    (let path =
       if Sys.file_exists "../../../BENCHMARK.json" then "../../../BENCHMARK.json"
       else "BENCHMARK.json"
     in
     Json.parse_exn (In_channel.with_open_bin path In_channel.input_all))

let names section =
  List.map (fun spec -> Summary.str (spec "name")) (Summary.specs (Lazy.force benchmark) section)

(* Per-layer metrics a workload without CCP plumbing can report: there
   is no [inspect] hook, so no event stepper and no captured messages.
   Only it has a native controller to time. *)
let native_layers =
  [ "tcp.ack_events"; "tcp.segments"; "tcp.retx_ratio"; "tcp.timeouts"; "net.drops";
    "native_cc.on_ack_ns"; "bench.trace_overhead"; "bench.calibration_ns" ]

let applies (w : Workload.t) metric =
  if w.Workload.name = "fig3-native" then List.mem metric native_layers
  else metric <> "native_cc.on_ack_ns"

let tiny (w : Workload.t) = Time_ns.scale w.Workload.duration 0.06

let valid_name = Str.regexp "^[A-Za-z0-9_.-]+$"

let test_workload_names () =
  Alcotest.(check (list string)) "workloads" (names "workloads") Workload.names

let test_smoke (w : Workload.t) () =
  let duration = tiny w in
  let plain = Rep.run ~duration ~traced:false w ~seed in
  let traced = Rep.run ~duration ~traced:true w ~seed in
  Alcotest.(check (list string)) "untraced checks" [] plain.Rep.failures;
  Alcotest.(check (list string)) "traced checks" [] traced.Rep.failures;
  Alcotest.(check string) "traced digest = untraced digest" plain.Rep.digest traced.Rep.digest;
  let summary traced_reps =
    {
      Summary.workload = w.Workload.name;
      attempted = 2;
      failures = [];
      untraced = (if traced_reps = [] then [ plain ] else []);
      traced = traced_reps;
      overheads = (if traced_reps = [] then [] else [ traced.Rep.wall_s /. plain.Rep.wall_s ]);
    }
  in
  let emitted s = List.map (fun (r : Metrics.row) -> r.Metrics.name) (Summary.metrics s) in
  let check_names expected s =
    let got = emitted s in
    Alcotest.(check (list string))
      (w.Workload.name ^ ": metrics emitted")
      (List.sort compare expected) (List.sort compare got);
    List.iter
      (fun name ->
        if not (Str.string_match valid_name name 0) then Alcotest.failf "bad metric name %S" name)
      got
  in
  check_names (names "end_to_end") (summary []);
  check_names (List.filter (applies w) (names "per_layer")) (summary [ traced ]);
  (* The result line names every declared metric, measured or not. *)
  let declared = Summary.declared (Lazy.force benchmark) "per_layer" in
  (match Json.member "metrics" (Summary.result_line ~declared [ summary [ traced ] ]) with
  | Some (Json.Obj entries) ->
    Alcotest.(check (list string)) "result line keys" (names "per_layer") (List.map fst entries)
  | _ -> Alcotest.fail "result line without metrics");
  Alcotest.(check bool) "untraced run correct" true (Summary.correct (summary []));
  Alcotest.(check bool) "traced run correct" true (Summary.correct (summary [ traced ]));
  List.iter
    (fun doc ->
      let text = Json.to_string doc in
      Alcotest.(check string) "JSON round-trip" text (Json.to_string (Json.parse_exn text)))
    [ Summary.document ~seed ~seconds:1 ~trace:true [ summary [ traced ] ];
      Summary.result_line ~declared:(Summary.declared (Lazy.force benchmark) "end_to_end")
        [ summary [] ] ];
  (* The child-to-parent wire format loses no field. *)
  let wire r = Json.to_string (Rep.to_json r) in
  Alcotest.(check string) "rep round-trip" (wire traced) (wire (Rep.of_json (Rep.to_json traced)))

(* --- verdicts --- *)

let test_verdicts () =
  let bounds = Summary.bounds_of_benchmark (Lazy.force benchmark) in
  let bound name = List.find (fun (b : Summary.bound) -> b.Summary.metric = name) bounds in
  let verdict name old_samples new_samples =
    Summary.verdict_to_string (Summary.verdict (bound name) ~old_samples ~new_samples)
  in
  let steady m = [ m *. 0.99; m; m *. 1.01 ] in
  Alcotest.(check string) "sim_speed halved" "worse" (verdict "sim_speed" (steady 1.0) (steady 0.5));
  Alcotest.(check string) "sim_speed doubled" "better" (verdict "sim_speed" (steady 1.0) (steady 2.0));
  Alcotest.(check string) "sim_speed flat" "unchanged" (verdict "sim_speed" (steady 1.0) (steady 1.0));
  Alcotest.(check string) "setup_s 30 us -> 60 us is under the floor" "unchanged"
    (verdict "setup_s" (steady 30e-6) (steady 60e-6));
  Alcotest.(check string) "setup_s 20 ms -> 40 ms" "worse"
    (verdict "setup_s" (steady 0.02) (steady 0.04));
  Alcotest.(check string) "noisy sides" "unresolved"
    (verdict "sim_speed" [ 0.5; 1.0; 1.5 ] [ 0.6; 1.0; 1.4 ])

let () =
  Alcotest.run "ccp_bench"
    [
      ( "fidelity",
        [
          Alcotest.test_case "fig3 ccp and native" `Quick test_fig3;
          Alcotest.test_case "incast reno" `Quick
            (test_incast Workload.incast_reno ~arrival:Scenarios.Incast.Synchronized
               ~algo:"ccp-reno");
          Alcotest.test_case "incast aggregate" `Quick
            (test_incast Workload.incast_aggregate ~arrival:Scenarios.Incast.Staggered
               ~algo:"ccp-aggregate");
        ] );
      ( "smoke",
        Alcotest.test_case "workload names match BENCHMARK.json" `Quick test_workload_names
        :: List.map
             (fun (w : Workload.t) -> Alcotest.test_case w.Workload.name `Quick (test_smoke w))
             Workload.all );
      ("compare", [ Alcotest.test_case "verdicts and floors" `Quick test_verdicts ]);
    ]
