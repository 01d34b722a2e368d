(* Fleet telemetry (observability PR): prefix-filtered snapshots, the
   space-saving Top-K error bound and window-delta conservation as
   qcheck properties, the SLO engine's fire/clear FSM on a synthetic
   workload, the byte-exact seed-42 chaos golden timeline, and the
   Top-K sketches identifying the aggregate-dominant flows at N=2048
   without O(N) metric names. *)

open Ccp_obs
module Chaos = Ccp_core.Scenarios.Chaos
module Time_ns = Ccp_util.Time_ns

(* --- Metrics.snapshot ~prefix ------------------------------------------- *)

let test_snapshot_prefix () =
  let m = Metrics.create () in
  let a = Metrics.counter m ~unit_:"msgs" "trace.spans_started" in
  let b = Metrics.counter m ~unit_:"msgs" "agent.reports_shed" in
  let h = Metrics.histogram m ~unit_:"us" "trace.reaction_us" in
  Metrics.add a 3;
  Metrics.incr b;
  Metrics.observe h 120.0;
  let names ?prefix () =
    List.map (fun (r : Metrics.row) -> r.Metrics.name) (Metrics.snapshot ?prefix m)
  in
  let all = names () in
  let traced = names ~prefix:"trace." () in
  Alcotest.(check bool)
    "unfiltered snapshot covers both prefixes" true
    (List.mem "agent.reports_shed" all && List.mem "trace.spans_started" all);
  (* The filter matches on the registered name, so a histogram's derived
     rows travel with their base name — whole histograms, never slices. *)
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " kept by trace. filter") true (List.mem n traced))
    [ "trace.spans_started"; "trace.reaction_us_count"; "trace.reaction_us_p99" ];
  Alcotest.(check bool)
    "agent row filtered out" false
    (List.mem "agent.reports_shed" traced);
  Alcotest.(check int) "no matches, empty snapshot" 0
    (List.length (names ~prefix:"nonexistent." ()));
  (* Filtering must be a pure view: same rows as filtering afterwards. *)
  let by_hand =
    List.filter
      (fun (r : Metrics.row) ->
        String.length r.Metrics.name >= 6 && String.sub r.Metrics.name 0 6 = "trace.")
      (Metrics.snapshot m)
  in
  Alcotest.(check int)
    "prefix view = post-hoc filter"
    (List.length by_hand) (List.length traced)

(* --- Top-K: space-saving error bound (qcheck) --------------------------- *)

(* Random weighted streams with a skewed key range: every sketch answer
   must bracket the true count (count - err <= true <= count) and the
   per-entry error can never exceed total / k; any key whose true count
   strictly exceeds total / k must be tracked (the heavy-hitter
   guarantee). *)
let prop_topk_error_bound =
  QCheck.Test.make ~name:"topk space-saving error bound" ~count:200
    QCheck.(list (pair (int_bound 40) (int_bound 50)))
    (fun stream ->
      let tk = Topk.create ~k:8 () in
      let s = Topk.sketch tk "flow.test" in
      let truth = Hashtbl.create 64 in
      List.iter
        (fun (key, w) ->
          Topk.add s key w;
          Hashtbl.replace truth key (w + Option.value ~default:0 (Hashtbl.find_opt truth key)))
        stream;
      let total = List.fold_left (fun acc (_, w) -> acc + w) 0 stream in
      if Topk.total s <> total then QCheck.Test.fail_reportf "total %d <> %d" (Topk.total s) total;
      let bound = Topk.error_bound s in
      if Topk.tracked s >= 8 && bound > total / 8 then
        QCheck.Test.fail_reportf "bound %d exceeds total/k %d" bound (total / 8);
      List.iter
        (fun (e : Topk.entry) ->
          let true_count = Option.value ~default:0 (Hashtbl.find_opt truth e.Topk.key) in
          if e.Topk.err > bound then
            QCheck.Test.fail_reportf "key %d err %d > bound %d" e.Topk.key e.Topk.err bound;
          if e.Topk.count - e.Topk.err > true_count || true_count > e.Topk.count then
            QCheck.Test.fail_reportf "key %d: true %d outside [%d, %d]" e.Topk.key
              true_count (e.Topk.count - e.Topk.err) e.Topk.count)
        (Topk.entries s);
      (* Heavy-hitter guarantee: true count > total/k implies presence. *)
      Hashtbl.iter
        (fun key true_count ->
          if true_count > total / 8 && Topk.find s key = None then
            QCheck.Test.fail_reportf "heavy key %d (count %d > %d) evicted" key true_count
              (total / 8))
        truth;
      true)

(* --- Timeseries: window-delta conservation (qcheck) --------------------- *)

(* Drive a 4-window ring well past wrap-around with random counter
   increments between ticks: the deltas seen by the on-close hook (which
   observes every close, evicted or not) must sum to the final counter
   value, each exactly once — and the hook must see strictly increasing
   window indexes. *)
let prop_window_delta_conservation =
  QCheck.Test.make ~name:"window deltas sum to the counter, across ring wrap" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 60) (int_bound 5))
    (fun increments ->
      let m = Metrics.create () in
      let c = Metrics.counter m ~unit_:"msgs" "t.events" in
      let ts = Timeseries.create ~metrics:m ~window:1_000 ~windows:4 ~subticks:1 () in
      let hook_sum = ref 0 and last_index = ref (-1) and ok = ref true in
      Timeseries.set_on_close ts (fun _ (w : Timeseries.window) ->
          if w.Timeseries.index <= !last_index then ok := false;
          last_index := w.Timeseries.index;
          match Timeseries.point w "t.events" with
          | Some (Timeseries.Counter_point { delta; _ }) -> hook_sum := !hook_sum + delta
          | Some _ -> ok := false
          | None -> () (* delta-suppressed: a zero-delta window carries no point *));
      Timeseries.tick ts ~now:0 |> ignore;
      List.iteri
        (fun i n ->
          Metrics.add c n;
          ignore (Timeseries.tick ts ~now:((i + 1) * 1_000) : bool))
        increments;
      (* A straggler after the last tick must be recovered by flush. *)
      Metrics.incr c;
      Timeseries.flush ts ~now:((List.length increments * 1_000) + 500);
      if not !ok then QCheck.Test.fail_reportf "hook saw malformed windows";
      if !hook_sum <> Metrics.counter_value c then
        QCheck.Test.fail_reportf "hook deltas %d <> counter %d (closed %d dropped %d)"
          !hook_sum (Metrics.counter_value c) (Timeseries.closed_windows ts)
          (Timeseries.dropped_windows ts);
      true)

(* --- Health: the fire/clear FSM on a synthetic workload ----------------- *)

let test_health_fire_clear () =
  let m = Metrics.create () in
  let bad = Metrics.counter m ~unit_:"msgs" "t.bad" in
  let good = Metrics.counter m ~unit_:"msgs" "t.good" in
  let config =
    {
      Health.slos =
        [
          {
            Health.slo_name = "bad_rate";
            sli = Health.Event_ratio { bad = [ "t.bad" ]; total = [ "t.bad"; "t.good" ] };
            objective = 0.05;
          };
        ];
      burn_threshold = 10.0;
      long_windows = 2;
      clear_windows = 1;
    }
  in
  let h = Health.create ~config () in
  let ts = Timeseries.create ~metrics:m ~window:1_000 ~subticks:1 () in
  Timeseries.set_on_close ts (fun _ w -> Health.on_window h w);
  Timeseries.tick ts ~now:0 |> ignore;
  (* w0: healthy; w1: all bad (short burn 20, 2-window long burn 10 —
     both at the gate, fires); w2: healthy again (clears). *)
  Metrics.add good 100;
  Timeseries.tick ts ~now:1_000 |> ignore;
  Alcotest.(check (option bool))
    "ok after healthy window" (Some false)
    (Option.map (fun s -> s = Health.Firing) (Health.alert_state h ~slo:"bad_rate"));
  Metrics.add bad 100;
  Timeseries.tick ts ~now:2_000 |> ignore;
  Alcotest.(check (option bool))
    "firing after bad window" (Some true)
    (Option.map (fun s -> s = Health.Firing) (Health.alert_state h ~slo:"bad_rate"));
  Metrics.add good 100;
  Timeseries.tick ts ~now:3_000 |> ignore;
  Alcotest.(check (option bool))
    "cleared after recovery window" (Some false)
    (Option.map (fun s -> s = Health.Firing) (Health.alert_state h ~slo:"bad_rate"));
  (match Health.transitions h with
  | [ fire; clear ] ->
    Alcotest.(check string) "fired slo" "bad_rate" fire.Health.tr_slo;
    Alcotest.(check bool) "fire state" true (fire.Health.tr_to = Health.Firing);
    Alcotest.(check int) "fired at window 1" 1 fire.Health.tr_window;
    Alcotest.(check bool) "clear state" true (clear.Health.tr_to = Health.Ok_state);
    Alcotest.(check int) "cleared at window 2" 2 clear.Health.tr_window;
    Alcotest.(check bool)
      "fire burn rates at the gate" true
      (fire.Health.tr_burn_short >= 10.0 && fire.Health.tr_burn_long >= 10.0)
  | l -> Alcotest.failf "expected fire+clear, got %d transitions" (List.length l));
  let v =
    List.find (fun v -> v.Health.v_slo = "bad_rate") (Health.verdicts h)
  in
  Alcotest.(check int) "one alert episode" 1 v.Health.v_fired;
  Alcotest.(check bool) "whole-run verdict fails" false v.Health.v_pass;
  Alcotest.(check int) "three windows evaluated" 3 (Health.windows_evaluated h)

(* --- the seed-42 chaos golden timeline ---------------------------------- *)

(* The golden's half-length run (6 s), so the suite stays fast; the crash
   at 45 % still lands mid-run and must raise the orphan_rate burn-rate
   alert in its window and clear it in a later one. *)
let chaos_timeline = lazy (Goldens.timeline ())

(* dune diffs the golden file (test/dune); here, a second run in the same
   process must give the same document. *)
let test_golden_timeline () =
  let doc obs = Json.to_string (Goldens.timeline_json obs) in
  Alcotest.(check bool)
    "rerun is byte-identical" true
    (String.equal (doc (Lazy.force chaos_timeline)) (doc (Goldens.timeline ())))

let test_timeline_validates () =
  let obs = Lazy.force chaos_timeline in
  match Timeline.of_obs obs with
  | Error e -> Alcotest.failf "Timeline.of_obs: %s" e
  | Ok doc -> (
    match Timeline.validate doc with
    | Error e -> Alcotest.failf "timeline fails its own schema: %s" e
    | Ok held -> Alcotest.(check bool) "windows held" true (held > 0))

let test_chaos_alert_fires_and_clears () =
  let obs = Lazy.force chaos_timeline in
  let h = match obs.Obs.health with Some h -> h | None -> Alcotest.fail "no health" in
  let trs =
    List.filter (fun tr -> tr.Health.tr_slo = "orphan_rate") (Health.transitions h)
  in
  match trs with
  | fire :: clear :: _ ->
    Alcotest.(check bool) "crash window fires" true (fire.Health.tr_to = Health.Firing);
    Alcotest.(check bool) "a later window clears" true (clear.Health.tr_to = Health.Ok_state);
    Alcotest.(check bool)
      "clear strictly after fire" true
      (clear.Health.tr_window > fire.Health.tr_window);
    (* The firing window is inside the agent outage (sim ns). *)
    let sc_from = Time_ns.to_float_sec (Chaos.crash_from ~duration:(Time_ns.sec 6)) in
    let fired_at = float_of_int fire.Health.tr_at /. 1e9 in
    Alcotest.(check bool)
      (Printf.sprintf "alert at %.2f s brackets the %.2f s crash" fired_at sc_from)
      true
      (fired_at >= sc_from && fired_at <= sc_from +. 1.0)
  | _ -> Alcotest.failf "expected orphan_rate fire+clear, got %d" (List.length trs)

(* An SLO reads each metric it names as one kind: [Event_ratio] sums
   counter deltas, [Latency_above] reads a histogram. A name registered
   as another kind, or not at all, never reaches the SLO. The armed chaos
   cell registers every metric the stack publishes. *)
let test_slo_metric_kinds () =
  let obs = Lazy.force chaos_timeline in
  let kinds =
    List.map
      (fun (name, _, view) ->
        ( name,
          match view with
          | Metrics.V_counter _ -> "counter"
          | Metrics.V_gauge _ -> "gauge"
          | Metrics.V_histogram _ -> "histogram" ))
      (Metrics.sorted_views obs.Obs.metrics)
  in
  List.iter
    (fun (slo : Health.slo) ->
      let wanted =
        match slo.Health.sli with
        | Health.Event_ratio { bad; total } -> List.map (fun n -> (n, "counter")) (bad @ total)
        | Health.Latency_above { hist; _ } -> [ (hist, "histogram") ]
      in
      List.iter
        (fun (name, kind) ->
          Alcotest.(check (option string))
            (Printf.sprintf "%s reads %s as a %s" slo.Health.slo_name name kind)
            (Some kind) (List.assoc_opt name kinds))
        wanted)
    Health.default_config.Health.slos

(* --- Top-K at N=2048: dominant flows identified, O(k) state ------------- *)

(* A 2048-flow fan-in where 8 flows report every 0.25 RTT and the rest
   every 16 RTTs: the fast flows carry ~64x a slow flow's report
   traffic, putting their true counts above total/k — exactly the
   regime the space-saving sketch proves it never misses. The sketch
   must (a) stay O(k) at N=2048, (b) conserve the stream total against
   the datapath's own counters, and (c) surface all eight dominant
   flows as its top entries, with every slow flow's possible count
   bounded below the fast flows' guaranteed counts. *)
let test_topk_n2048 () =
  let module E = Ccp_core.Experiment in
  let module Reno = Ccp_algorithms.Ccp_reno in
  let n = 2048 in
  let fast = List.init 8 (fun i -> i * 256) in
  let obs =
    Obs.create ~tracer:true ~telemetry:true ~clock:(fun () -> 0.0) ()
  in
  let base =
    E.default_config ~rate_bps:96e6 ~base_rtt:(Time_ns.ms 10)
      ~duration:(Time_ns.of_float_sec 0.5)
  in
  let flows =
    List.init n (fun i ->
        let interval_rtts = if List.mem i fast then 0.25 else 16.0 in
        E.flow (E.Ccp_cc (Reno.create_with ~interval_rtts ())))
  in
  let _ =
    E.run
      {
        base with
        E.seed = 42;
        obs = Some obs;
        flows;
        agent_flow_pool = Some n;
        datapath =
          { Ccp_datapath.Ccp_ext.default_config with
            Ccp_datapath.Ccp_ext.flow_capacity = n };
      }
  in
  let tk = match obs.Obs.topk with Some tk -> tk | None -> Alcotest.fail "no topk" in
  let s =
    match List.find_opt (fun s -> Topk.name s = "flow.reports") (Topk.sketches tk) with
    | Some s -> s
    | None -> Alcotest.fail "no flow.reports sketch"
  in
  Alcotest.(check bool) "reports flowed" true (Topk.total s > 0);
  (* O(k) state at N=2048: the sketch never grows past its k. *)
  Alcotest.(check bool)
    (Printf.sprintf "tracked %d <= k %d despite %d flows" (Topk.tracked s) (Topk.k s) n)
    true
    (Topk.tracked s <= Topk.k s);
  Alcotest.(check bool) "k is sub-linear in N" true (Topk.k s < n);
  (* Nothing slipped past the sketch: its total equals the datapath's
     cumulative report + urgent counters. *)
  let counter name =
    match
      List.find_opt (fun (r : Metrics.row) -> r.Metrics.name = name)
        (Metrics.snapshot obs.Obs.metrics)
    with
    | Some r -> int_of_float r.Metrics.value
    | None -> Alcotest.failf "no %s counter" name
  in
  Alcotest.(check int) "sketch total = reports + urgents"
    (counter "datapath.reports_sent" + counter "datapath.urgents_sent")
    (Topk.total s);
  let bound = Topk.error_bound s in
  Alcotest.(check bool)
    (Printf.sprintf "space-saving bound %d <= total/k %d" bound (Topk.total s / Topk.k s))
    true
    (bound <= Topk.total s / Topk.k s);
  (* Identification within the proven bound: each fast flow's guaranteed
     count (count - err) exceeds the error bound, i.e. is provably
     larger than any flow the sketch may have evicted. *)
  List.iter
    (fun id ->
      match Topk.find s id with
      | None -> Alcotest.failf "dominant flow %d missing from the sketch" id
      | Some (e : Topk.entry) ->
        Alcotest.(check bool)
          (Printf.sprintf "flow %d: count %d - err %d > bound %d" id e.Topk.count
             e.Topk.err bound)
          true
          (e.Topk.count - e.Topk.err > bound))
    fast;
  (* And they are the top of the ranking: the eight heaviest entries are
     exactly the eight fast flows. *)
  let top8 =
    List.filteri (fun i _ -> i < 8) (Topk.entries s)
    |> List.map (fun (e : Topk.entry) -> e.Topk.key)
    |> List.sort compare
  in
  Alcotest.(check (list int)) "top-8 keys are the fast flows" (List.sort compare fast) top8

let suite =
  [
    ( "telemetry",
      [
        Alcotest.test_case "snapshot prefix filter" `Quick test_snapshot_prefix;
        QCheck_alcotest.to_alcotest prop_topk_error_bound;
        QCheck_alcotest.to_alcotest prop_window_delta_conservation;
        Alcotest.test_case "health fire/clear FSM" `Quick test_health_fire_clear;
        Alcotest.test_case "golden chaos timeline" `Quick test_golden_timeline;
        Alcotest.test_case "timeline self-validates" `Quick test_timeline_validates;
        Alcotest.test_case "chaos crash alert fires and clears" `Quick
          test_chaos_alert_fires_and_clears;
        Alcotest.test_case "every SLO metric has the kind its SLI reads" `Quick
          test_slo_metric_kinds;
        Alcotest.test_case "topk at n=2048" `Quick test_topk_n2048;
      ] );
  ]
