(* Robustness-harness regression tests: the measurement-noise matrix of
   Scenarios.Robustness must stay deterministic (golden scorecard), the
   perturbation layer must be a strict no-op when the plan is empty, and
   noise alone must never trip the guard envelope's quarantine.

   The matrix here is QUICK-scaled — 24 Mbit/s, 4 s per cell — so the
   whole file runs in seconds; bin/ci.sh drives the full-size matrix
   through the CLI separately. *)

open Ccp_util
open Ccp_core
module Plan = Ccp_perturb.Perturb_plan
module Sampler = Ccp_perturb.Sampler

(* The golden's seed-42 QUICK matrix, which every test below shares:
   4 algorithms x [baseline, rtt-jitter, rate-noise]. Forced once,
   inspected many times. *)
let quick_scorecard = lazy (Goldens.scorecard ())

let scorecard_line sc = Ccp_obs.Json.to_string (Scenarios.Robustness.to_json sc)

(* dune diffs the golden file (test/dune); here, its shape. *)
let test_golden_scorecard () =
  let sc = Lazy.force quick_scorecard in
  Alcotest.(check int) "matrix size" 12 (List.length sc.Scenarios.Robustness.cells)

let test_scorecard_schema () =
  let sc = Lazy.force quick_scorecard in
  match Scenarios.Robustness.validate_scorecard (Scenarios.Robustness.to_json sc) with
  | Ok n -> Alcotest.(check int) "all cells validate" 12 n
  | Error e -> Alcotest.failf "scorecard fails its own schema: %s" e

(* --- guard interaction: noise is not hostility --- *)

(* PR 2's guard envelope quarantines programs that misbehave at runtime.
   A well-behaved algorithm fed noisy measurements must never look like
   an attacker: across the whole QUICK matrix (guard armed in every
   cell), zero quarantines and zero refused installs. *)
let test_no_false_positive_quarantine () =
  let sc = Lazy.force quick_scorecard in
  List.iter
    (fun (c : Scenarios.Robustness.cell) ->
      if c.quarantines <> 0 then
        Alcotest.failf "%s under %s: %d quarantine(s) from measurement noise alone" c.algo
          c.perturb c.quarantines;
      if c.installs_refused <> 0 then
        Alcotest.failf "%s under %s: %d install(s) refused" c.algo c.perturb
          c.installs_refused)
    sc.Scenarios.Robustness.cells

(* --- the remaining perturbations, exercised on one algorithm --- *)

let test_vegas_remaining_perturbations () =
  let sc =
    Scenarios.Robustness.run ~rate_bps:24e6 ~duration:(Time_ns.sec 2) ~seeds:[ 42 ]
      ~algos:[ "ccp-vegas" ]
      ~perturbs:[ "baseline"; "stretch-ack"; "policer"; "combined" ]
      ()
  in
  (match Scenarios.Robustness.validate_scorecard (Scenarios.Robustness.to_json sc) with
  | Ok 4 -> ()
  | Ok n -> Alcotest.failf "expected 4 cells, validated %d" n
  | Error e -> Alcotest.failf "schema: %s" e);
  let cell name =
    List.find
      (fun (c : Scenarios.Robustness.cell) -> c.perturb = name)
      sc.Scenarios.Robustness.cells
  in
  List.iter
    (fun (c : Scenarios.Robustness.cell) ->
      Alcotest.(check int) (c.perturb ^ ": no quarantine") 0 c.quarantines)
    sc.Scenarios.Robustness.cells;
  (* Counter plumbing: each plan's armed primitives must actually fire. *)
  (match (cell "baseline").perturb_stats with
  | None -> ()
  | Some _ -> Alcotest.fail "baseline cell carries perturb stats");
  (match (cell "policer").perturb_stats with
  | Some s ->
    Alcotest.(check bool) "policer saw traffic" true (s.Sampler.policer_passed > 0);
    Alcotest.(check bool) "policer dropped packets" true (s.Sampler.policer_dropped > 0)
  | None -> Alcotest.fail "policer cell lost its stats");
  match (cell "combined").perturb_stats with
  | Some s ->
    Alcotest.(check bool) "combined perturbs rtt" true (s.Sampler.rtt_samples > 0);
    Alcotest.(check bool) "combined perturbs rate" true (s.Sampler.rate_samples > 0)
  | None -> Alcotest.fail "combined cell lost its stats"

(* --- matrix cells: independent of each other and of their order --- *)

(* Every cell runs alone, and the RMSE is filled in once all have run:
   reversing the selection reorders the cells and changes none of them,
   and without the clean cell there is no RMSE. *)
let test_cells_independent_of_order () =
  let run perturbs =
    Scenarios.Robustness.run ~rate_bps:24e6 ~duration:(Time_ns.sec 2) ~seeds:[ 42 ]
      ~algos:[ "ccp-vegas" ] ~perturbs ()
  in
  let cells sc =
    match Ccp_obs.Json.member "cells" (Scenarios.Robustness.to_json sc) with
    | Some (Ccp_obs.Json.List cells) -> List.map Ccp_obs.Json.to_string cells
    | _ -> Alcotest.fail "scorecard without cells"
  in
  let forward = run [ "baseline"; "combined" ] in
  (match forward.Scenarios.Robustness.cells with
  | [ _; combined ] ->
    Alcotest.(check bool) "RMSE against the clean cell" true
      (Option.is_some combined.cwnd_rmse_vs_baseline)
  | _ -> Alcotest.fail "expected two cells");
  Alcotest.(check (list string))
    "same cells, RMSE included, in selection order"
    (List.rev (cells forward))
    (cells (run [ "combined"; "baseline" ]));
  match (run [ "combined" ]).Scenarios.Robustness.cells with
  | [ alone ] ->
    Alcotest.(check bool) "no clean cell, no RMSE" true (alone.cwnd_rmse_vs_baseline = None)
  | _ -> Alcotest.fail "expected one cell"

(* --- empty plan = strict identity --- *)

(* An armed-but-empty plan must leave the whole pipeline byte-identical
   to a run that never heard of perturbation: same flight-recorder JSONL,
   same result metrics, no sampler stats. Guards against future wiring
   that creates samplers (and burns RNG draws) unconditionally. *)
let recorder_jsonl perturb =
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
      perturb;
      obs = Some obs;
    }
  in
  let result = Experiment.run config in
  (Ccp_obs.Recorder.to_jsonl (Ccp_obs.Obs.recorder_exn obs), result)

let test_empty_plan_identity () =
  Alcotest.(check bool) "make () is none" true (Plan.is_none (Plan.make ()));
  let clean_trace, clean = recorder_jsonl Plan.none in
  let empty_trace, empty = recorder_jsonl (Plan.make ()) in
  Alcotest.(check string) "trace byte-identical under empty plan" clean_trace empty_trace;
  Alcotest.(check (float 0.0)) "same utilization" clean.Experiment.utilization
    empty.Experiment.utilization;
  Alcotest.(check bool) "no sampler stats" true (empty.Experiment.perturb_stats = None)

(* --- the compiled fold path stays allocation-free on degenerate input ---

   Perturbation lives in Tcp_flow, outside the datapath's compiled
   per-ACK fold (Ccp_ext) — the RNG allocates and the fold path must
   not. This drives the fold directly with the degenerate ack shapes
   perturbation can produce (1 ns RTT floor, collapsed delivery rate)
   and re-asserts the obs-off zero-allocation budget of test_obs.ml. *)

let fake_ctl sim ~flow =
  let cwnd = ref 140_000 and rate = ref 0.0 in
  let srtt = Some (Time_ns.ms 10) and latest = Some (Time_ns.ms 11) in
  let send_rate = Some 1e6 and delivery = Some 9e5 in
  let ctl : Ccp_datapath.Congestion_iface.ctl =
    {
      flow;
      mss = 1448;
      now = (fun () -> Ccp_eventsim.Sim.now sim);
      get_cwnd = (fun () -> !cwnd);
      set_cwnd = (fun b -> cwnd := max 1448 b);
      get_rate = (fun () -> !rate);
      set_rate = (fun r -> rate := r);
      srtt = (fun () -> srtt);
      latest_rtt = (fun () -> latest);
      min_rtt = (fun () -> srtt);
      inflight = (fun () -> 5000);
      send_rate_ewma = (fun () -> send_rate);
      delivery_rate_ewma = (fun () -> delivery);
    }
  in
  ctl

let classic_program =
  "Measure(fold { init { acked = 0; minrtt = 1e12 } update { acked = acked + \
   pkt.bytes_acked; minrtt = min(minrtt, pkt.rtt_us) } }).Cwnd(cwnd + 2 * \
   mss).WaitRtts(1.0).Report()"

let perturbed_ack : Ccp_datapath.Congestion_iface.ack_event =
  {
    now = Time_ns.ms 50;
    bytes_acked = 1448;
    rtt_sample = Some (Time_ns.ns 1);  (* the sampler's clamp floor *)
    ecn_echo = false;
    send_rate = Some 1e6;
    delivery_rate = Some 0.0;  (* a collapsed rate estimate *)
    inflight_after = 5000;
  }

let test_fold_zero_alloc_under_perturbed_acks () =
  let sim = Ccp_eventsim.Sim.create () in
  let channel =
    Ccp_ipc.Channel.create ~sim ~latency:(Ccp_ipc.Latency_model.Constant (Time_ns.us 20)) ()
  in
  let ext = Ccp_datapath.Ccp_ext.create ~sim ~channel () in
  Ccp_ipc.Channel.on_receive channel Ccp_ipc.Channel.Agent_end (fun _ -> ());
  let ctl = fake_ctl sim ~flow:1 in
  let cc = Ccp_datapath.Ccp_ext.congestion_control ext in
  cc.Ccp_datapath.Congestion_iface.on_init ctl;
  Ccp_eventsim.Sim.run sim;
  Ccp_ipc.Channel.send channel ~from:Ccp_ipc.Channel.Agent_end
    (Ccp_ipc.Message.Install
       { flow = 1; program = Ccp_lang.Parser.parse_program classic_program });
  Ccp_eventsim.Sim.run ~until:(Time_ns.add (Ccp_eventsim.Sim.now sim) (Time_ns.ms 5)) sim;
  for _ = 1 to 100 do
    cc.Ccp_datapath.Congestion_iface.on_ack ctl perturbed_ack
  done;
  let words0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    cc.Ccp_datapath.Congestion_iface.on_ack ctl perturbed_ack
  done;
  let delta = Gc.minor_words () -. words0 in
  if delta > 100.0 then
    Alcotest.failf "per-ACK fold allocated %.0f minor words over 10k perturbed ACKs" delta;
  ignore ext

(* --- properties: sampler laws and scorecard determinism --- *)

let gen_plan rng =
  let maybe gen = if Rng.int rng 2 = 0 then None else Some (gen ()) in
  let pct hi = float_of_int (Prop.int_range rng 0 hi) /. 100.0 in
  let rtt_jitter () =
    {
      Plan.additive_sigma = Time_ns.us (Prop.int_range rng 0 5_000);
      multiplicative = pct 30;
      burst =
        (if Rng.int rng 2 = 0 then None
         else
           Some
             {
               Plan.probability = pct 10;
               extra = Time_ns.us (Prop.int_range rng 1 20_000);
               length = Prop.int_range rng 1 16;
             });
    }
  in
  let rate_error () = { Plan.multiplicative = pct 50; collapse_probability = pct 10 } in
  Plan.make ?rtt_jitter:(maybe rtt_jitter) ?rate_error:(maybe rate_error) ()

type sampler_case = {
  plan : Plan.t;
  seed : int;
  rtts : Time_ns.t list;
  rates : float list;
}

let gen_case rng =
  {
    plan = gen_plan rng;
    seed = Prop.int_range rng 0 1_000_000;
    rtts = List.init 50 (fun _ -> Time_ns.us (Prop.int_range rng 100 50_000));
    rates = List.init 20 (fun _ -> float_of_int (Prop.int_range rng 0 2_000_000));
  }

let show_case c = Printf.sprintf "seed=%d plan=%s" c.seed (Plan.describe c.plan)

let prop_sampler_deterministic c =
  let drive () =
    let s = Sampler.create ~seed:c.seed c.plan in
    let out_r = List.map (fun t -> Sampler.rtt s t) c.rtts in
    let out_d = List.map (fun r -> Sampler.delivery_rate s r) c.rates in
    (out_r, out_d, Sampler.stats s)
  in
  Prop.require "same seed + plan => identical draws and stats" (drive () = drive ())

let prop_empty_plan_sampler_identity c =
  let s = Sampler.create ~seed:c.seed (Plan.make ()) in
  List.iter
    (fun t ->
      Prop.check_eq ~what:"rtt passes through" Time_ns.to_string t (Sampler.rtt s t))
    c.rtts;
  List.iter
    (fun r ->
      Prop.check_eq ~what:"rate passes through" string_of_float r (Sampler.delivery_rate s r))
    c.rates;
  Prop.require "stats all zero" (Sampler.stats s = Sampler.zero_stats)

let prop_compose_identity c =
  let p = c.plan in
  Prop.require "compose none p = p" (Plan.compose Plan.none p = p);
  Prop.require "compose p none = p" (Plan.compose p Plan.none = p);
  Prop.require "compose p p = p" (Plan.compose p p = p)

let scorecard_determinism () =
  let tiny () =
    scorecard_line
      (Scenarios.Robustness.run ~rate_bps:24e6 ~duration:(Time_ns.sec 2) ~seeds:[ 7 ]
         ~algos:[ "ccp-vegas" ] ~perturbs:[ "rtt-jitter" ] ())
  in
  Alcotest.(check string) "scorecard JSON byte-identical across runs" (tiny ()) (tiny ())

let suite =
  [
    ( "robustness",
      [
        Alcotest.test_case "golden scorecard" `Quick test_golden_scorecard;
        Alcotest.test_case "scorecard schema" `Quick test_scorecard_schema;
        Alcotest.test_case "no false-positive quarantine" `Quick
          test_no_false_positive_quarantine;
        Alcotest.test_case "stretch/policer/combined on vegas" `Quick
          test_vegas_remaining_perturbations;
        Alcotest.test_case "empty plan is identity" `Quick test_empty_plan_identity;
        Alcotest.test_case "fold zero-alloc on perturbed acks" `Quick
          test_fold_zero_alloc_under_perturbed_acks;
        Alcotest.test_case "scorecard determinism" `Quick scorecard_determinism;
        Alcotest.test_case "cells independent of order" `Quick test_cells_independent_of_order;
      ] );
    ( "robustness.props",
      [
        Prop.test_case ~cases:50 ~name:"sampler determinism" ~gen:gen_case ~show:show_case
          prop_sampler_deterministic;
        Prop.test_case ~cases:50 ~name:"empty-plan sampler identity" ~gen:gen_case
          ~show:show_case prop_empty_plan_sampler_identity;
        Prop.test_case ~cases:100 ~name:"compose identity laws" ~gen:gen_case
          ~show:show_case prop_compose_identity;
      ] );
  ]
