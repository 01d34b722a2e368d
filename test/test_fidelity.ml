(* Paper-fidelity regression tests: CCP and native runs of the same
   scenario must stay close (the paper's central claim), and the flight
   recorder's trace of a fixed scenario must stay byte-identical run
   over run (determinism).

   The scenarios are QUICK-scaled versions of Fig. 3 and Fig. 4 — same
   topology shape, link rate scaled down an order of magnitude so the
   whole file runs in seconds. Thresholds are calibrated against the
   seed-42 baselines with headroom; see docs/observability.md. *)

open Ccp_util
open Ccp_core

let fidelity_of cmp = Scenarios.fidelity cmp

let check_report ~what ~max_rmse ~max_util_delta ~max_rtt_delta_ms
    (r : Ccp_obs.Fidelity.report) =
  if r.Ccp_obs.Fidelity.samples < 100 then
    Alcotest.failf "%s: only %d aligned samples" what r.Ccp_obs.Fidelity.samples;
  if r.Ccp_obs.Fidelity.cwnd_rmse > max_rmse then
    Alcotest.failf "%s: cwnd RMSE %.3f exceeds %.3f" what r.Ccp_obs.Fidelity.cwnd_rmse max_rmse;
  if Float.abs r.Ccp_obs.Fidelity.utilization_delta > max_util_delta then
    Alcotest.failf "%s: utilization delta %+.3f exceeds ±%.3f" what
      r.Ccp_obs.Fidelity.utilization_delta max_util_delta;
  if Float.abs r.Ccp_obs.Fidelity.median_rtt_delta_ms > max_rtt_delta_ms then
    Alcotest.failf "%s: median RTT delta %+.2f ms exceeds ±%.1f ms" what
      r.Ccp_obs.Fidelity.median_rtt_delta_ms max_rtt_delta_ms

let test_fig3_fidelity () =
  let cmp =
    Scenarios.Fig3.run ~rate_bps:100e6 ~duration:(Time_ns.sec 10) ~seed:42 ~with_obs:true ()
  in
  check_report ~what:"fig3 (cubic)" ~max_rmse:0.35 ~max_util_delta:0.03
    ~max_rtt_delta_ms:5.0 (fidelity_of cmp)

let test_fig4_fidelity () =
  let cmp =
    Scenarios.Fig4.run ~rate_bps:80e6 ~second_flow_start:(Time_ns.sec 8)
      ~duration:(Time_ns.sec 20) ~seed:42 ~with_obs:true ()
  in
  check_report ~what:"fig4 (reno)" ~max_rmse:0.45 ~max_util_delta:0.03 ~max_rtt_delta_ms:5.0
    (fidelity_of cmp);
  (* Both systems must actually converge after the second flow joins. *)
  let conv r = Scenarios.Fig4.convergence_time ~after:(Time_ns.sec 8) r in
  match (conv cmp.Scenarios.ccp, conv cmp.Scenarios.native) with
  | Some _, Some _ -> ()
  | c, n ->
    Alcotest.failf "fig4: convergence ccp=%b native=%b" (c <> None) (n <> None)

(* --- determinism: the golden trace --- *)

(* A short CCP-Reno run on a lossy, spiky IPC channel: exercises report,
   install, fault, flow-sample, and queue-sample events, and the fault
   path's RNG draws — if any part of the pipeline picks up
   nondeterminism, these bytes change. *)
let golden_events = 80

let golden_run () =
  let obs = Ccp_obs.Obs.create () in
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
  take golden_events lines

(* [dune runtest] runs this binary in [_build/default/test] (where the
   [(deps ...)] stanza materializes the golden file); [dune exec] runs it
   from the project root. Accept both. *)
let golden_path () =
  if Sys.file_exists "golden_trace.expected" then "golden_trace.expected"
  else "test/golden_trace.expected"

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let test_golden_trace () =
  let actual = golden_run () in
  Alcotest.(check int) "enough events recorded" golden_events (List.length actual);
  (* In-process determinism: a second identical run yields identical bytes. *)
  Alcotest.(check (list string)) "rerun is byte-identical" actual (golden_run ());
  (* Cross-build determinism: the checked-in golden file. Regenerate with
     CCP_REGEN_GOLDEN=path/to/golden_trace.expected after an intentional
     trace-format change. *)
  match Sys.getenv_opt "CCP_REGEN_GOLDEN" with
  | Some path ->
    let oc = open_out path in
    List.iter (fun l -> output_string oc (l ^ "\n")) actual;
    close_out oc;
    Printf.printf "regenerated %s\n" path
  | None ->
    let expected = read_lines (golden_path ()) in
    Alcotest.(check int) "golden file line count" golden_events (List.length expected);
    List.iteri
      (fun i (e, a) ->
        if not (String.equal e a) then
          Alcotest.failf "golden trace diverges at event %d:\n  expected %s\n  actual   %s" i e
            a)
      (List.combine expected actual)

(* --- determinism: Figure 3 at full rate --- *)

(* CCP Cubic on the Figure 3 link at 1 Gbit/s for 0.25 s: the only golden
   whose window runs into heavy loss with tens of thousands of segments
   outstanding, so the scoreboard's SACKed-region handling (the lost
   retransmission scan, the receiver's out-of-order set) is pinned here.
   The file holds the run's counters plus an MD5 of every trace series,
   floats in hex so the bytes are exact. *)
let fig3_ccp_lines () =
  let duration = Time_ns.ms 250 in
  let config =
    Experiment.default_config ~rate_bps:Scenarios.Fig3.rate_bps
      ~base_rtt:Scenarios.Fig3.base_rtt ~duration
  in
  let r =
    Experiment.run
      {
        config with
        Experiment.seed = 42;
        warmup = Time_ns.scale duration 0.1;
        flows = [ Experiment.flow (Experiment.Ccp_cc (Ccp_algorithms.Ccp_cubic.create ())) ];
      }
  in
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

let fig3_golden_path () =
  if Sys.file_exists "golden_fig3_ccp.expected" then "golden_fig3_ccp.expected"
  else "test/golden_fig3_ccp.expected"

let test_golden_fig3_ccp () =
  let actual = fig3_ccp_lines () in
  (* Regenerate with CCP_REGEN_FIG3=path/to/golden_fig3_ccp.expected after
     an intentional change to the transport's dynamics. *)
  match Sys.getenv_opt "CCP_REGEN_FIG3" with
  | Some path ->
    let oc = open_out path in
    List.iter (fun l -> output_string oc (l ^ "\n")) actual;
    close_out oc;
    Printf.printf "regenerated %s\n" path
  | None ->
    Alcotest.(check (list string)) "fig3 ccp-cubic run" (read_lines (fig3_golden_path ())) actual

let suite =
  [
    ( "fidelity",
      [
        Alcotest.test_case "fig3 ccp-vs-native cwnd fidelity" `Quick test_fig3_fidelity;
        Alcotest.test_case "fig4 ccp-vs-native convergence fidelity" `Quick test_fig4_fidelity;
        Alcotest.test_case "golden trace is deterministic" `Quick test_golden_trace;
        Alcotest.test_case "golden fig3 ccp-cubic at 1 Gbit/s" `Quick test_golden_fig3_ccp;
      ] );
  ]
