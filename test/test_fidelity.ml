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
    Scenarios.Fig3.run ~rate_bps:100e6 ~duration:(Time_ns.sec 10) ~seed:42 ()
  in
  check_report ~what:"fig3 (cubic)" ~max_rmse:0.35 ~max_util_delta:0.03
    ~max_rtt_delta_ms:5.0 (fidelity_of cmp)

let test_fig4_fidelity () =
  let cmp =
    Scenarios.Fig4.run ~rate_bps:80e6 ~second_flow_start:(Time_ns.sec 8)
      ~duration:(Time_ns.sec 20) ~seed:42 ()
  in
  check_report ~what:"fig4 (reno)" ~max_rmse:0.45 ~max_util_delta:0.03 ~max_rtt_delta_ms:5.0
    (fidelity_of cmp);
  (* Both systems must actually converge after the second flow joins. *)
  let conv r = Scenarios.Fig4.convergence_time ~after:(Time_ns.sec 8) r in
  match (conv cmp.Scenarios.ccp, conv cmp.Scenarios.native) with
  | Some _, Some _ -> ()
  | c, n ->
    Alcotest.failf "fig4: convergence ccp=%b native=%b" (c <> None) (n <> None)

(* --- determinism: the goldens' runs in one process --- *)

(* Each golden's file is diffed by dune (test/dune); these cases check
   what the file cannot: the run repeated in one process gives the same
   bytes. *)

let test_golden_trace () =
  let actual = Goldens.trace () in
  Alcotest.(check int) "enough events recorded" Goldens.trace_events (List.length actual);
  Alcotest.(check (list string)) "rerun is byte-identical" actual (Goldens.trace ())

let check_rerun run () =
  Alcotest.(check (list string)) "rerun is byte-identical" (run ()) (run ())

let suite =
  [
    ( "fidelity",
      [
        Alcotest.test_case "fig3 ccp-vs-native cwnd fidelity" `Quick test_fig3_fidelity;
        Alcotest.test_case "fig4 ccp-vs-native convergence fidelity" `Quick test_fig4_fidelity;
        Alcotest.test_case "golden trace is deterministic" `Quick test_golden_trace;
        Alcotest.test_case "golden fig3 ccp-cubic at 1 Gbit/s" `Quick
          (check_rerun Goldens.fig3_ccp);
        Alcotest.test_case "golden native cubic and paced timely" `Quick
          (check_rerun Goldens.fig3_native);
        Alcotest.test_case "golden reno pair over a jittered link" `Quick
          (check_rerun Goldens.jitter);
      ] );
  ]
