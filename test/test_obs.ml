(* The observability layer: metrics registry, flight recorder, JSON
   sinks, and the zero-cost-when-disabled guarantee the datapath's
   per-ACK path depends on. *)

open Ccp_util
open Ccp_obs

(* --- metrics: counters --- *)

let test_counters_monotone () =
  let m = Metrics.create () in
  let a = Metrics.counter m ~unit_:"msgs" "ipc.sent" in
  let b = Metrics.counter m ~unit_:"msgs" "ipc.received" in
  (* Get-or-create: asking again by name yields the same cell. *)
  let a' = Metrics.counter m "ipc.sent" in
  let prev = ref (-1) in
  for i = 1 to 100 do
    Metrics.incr a;
    if i mod 3 = 0 then Metrics.add b 2;
    if i mod 7 = 0 then Metrics.incr a';
    let v = Metrics.counter_value a in
    Alcotest.(check bool) "monotone" true (v > !prev);
    prev := v
  done;
  Alcotest.(check int) "interleaved incrs all landed" (100 + 14) (Metrics.counter_value a);
  Alcotest.(check int) "second counter independent" 66 (Metrics.counter_value b);
  Alcotest.check_raises "kind clash rejected"
    (Invalid_argument "ipc.sent already registered as a non-gauge") (fun () ->
      ignore (Metrics.gauge m "ipc.sent"))

let test_gauge () =
  let m = Metrics.create () in
  let g = Metrics.gauge m ~unit_:"bytes" "queue.depth" in
  Metrics.set g 1234.0;
  Metrics.set g 99.5;
  Alcotest.(check (float 0.0)) "last write wins" 99.5 (Metrics.gauge_value g)

(* --- metrics: histogram vs exact percentiles --- *)

(* The histogram's quantile estimate interpolates inside a bucket, so it
   can be off from the exact sample percentile by at most the width of
   the bucket holding that percentile. *)
let bucket_width v =
  let bounds = Metrics.default_bounds in
  let n = Array.length bounds in
  let rec find i = if i < n && v > bounds.(i) then find (i + 1) else i in
  let i = find 0 in
  if i >= n then infinity
  else if i = 0 then bounds.(0)
  else bounds.(i) -. bounds.(i - 1)

let test_histogram_quantiles () =
  let m = Metrics.create () in
  let h = Metrics.histogram m ~unit_:"ns" "probe.latency" in
  let exact = Stats.Samples.create () in
  let rng = Random.State.make [| 42 |] in
  for _ = 1 to 10_000 do
    (* Log-uniform over ~[1, 2.2e4]: exercises many buckets. *)
    let v = exp (Random.State.float rng 10.0) in
    Metrics.observe h v;
    Stats.Samples.add exact v
  done;
  Alcotest.(check int) "observation count" 10_000 (Metrics.observations h);
  List.iter
    (fun q ->
      let est = Metrics.quantile h q in
      let truth = Stats.Samples.percentile exact (100.0 *. q) in
      let err = Float.abs (est -. truth) in
      if err > bucket_width truth +. 1e-9 then
        Alcotest.failf "q=%.2f: histogram %.1f vs exact %.1f (err %.1f > bucket %.1f)" q est
          truth err (bucket_width truth))
    [ 0.5; 0.9; 0.99 ];
  let mean_err = Float.abs (Metrics.hist_mean h -. Stats.Samples.mean exact) in
  Alcotest.(check bool) "mean tracked exactly (from the sum)" true (mean_err < 1e-6)

(* --- recorder: ring bounds and drop accounting --- *)

let test_ring_drops () =
  let r = Recorder.create ~capacity:8 () in
  Alcotest.(check int) "capacity" 8 (Recorder.capacity r);
  for i = 0 to 19 do
    Recorder.record r ~at:i (Recorder.Custom { name = "tick"; value = float_of_int i })
  done;
  Alcotest.(check int) "length is capped" 8 (Recorder.length r);
  Alcotest.(check int) "recorded counts everything" 20 (Recorder.recorded r);
  Alcotest.(check int) "dropped is exact" 12 (Recorder.dropped r);
  let held = Recorder.to_list r in
  Alcotest.(check (list int)) "oldest-first survivors"
    [ 12; 13; 14; 15; 16; 17; 18; 19 ]
    (List.map fst held)

let test_ring_no_drops_under_capacity () =
  let r = Recorder.create ~capacity:8 () in
  for i = 0 to 4 do
    Recorder.record r ~at:i (Recorder.Queue_sample { bytes = i })
  done;
  Alcotest.(check int) "length" 5 (Recorder.length r);
  Alcotest.(check int) "dropped" 0 (Recorder.dropped r)

(* --- JSON: sinks parse back --- *)

let every_event_kind =
  [
    Recorder.Flow_sample
      { flow = 0; cwnd = 14480; rate = 1.5e6; srtt_us = 10250.5; inflight = 5000;
        delivery_rate = 1.2e6 };
    Recorder.Queue_sample { bytes = 42_000 };
    Recorder.Install { flow = 1; accepted = false; detail = "limit \"exceeded\"\n" };
    Recorder.Quarantine { flow = 2; incidents = 25; dominant = "cwnd_clamped" };
    Recorder.Fallback { flow = 0; entered = true };
    Recorder.Report_sent { flow = 0; urgent = true };
    Recorder.Ipc_fault { kind = "drop" };
    Recorder.Span
      { id = 7; flow = 1; kind = "report"; disposition = "actuated"; started_at = 0;
        sent_at = 100; agent_at = 20_100; action_at = 20_600; done_at = 41_000;
        summarize_ns = 310.0; handler_ns = 1200.0; apply_ns = 55.5 };
    Recorder.Alert
      { slo = "orphan_rate"; state = "firing"; burn_short = 34.6; burn_long = 18.5 };
    Recorder.Custom { name = "note"; value = nan };
  ]

let test_jsonl_round_trip () =
  let r = Recorder.create ~capacity:16 () in
  List.iteri (fun i ev -> Recorder.record r ~at:(i * 1_000_000) ev) every_event_kind;
  let lines =
    Recorder.to_jsonl r |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "one line per event" (List.length every_event_kind) (List.length lines);
  let kinds =
    List.map
      (fun line ->
        match Json.parse line with
        | Error e -> Alcotest.failf "unparseable line %S: %s" line e
        | Ok j -> (
          match Json.member "ev" j with
          | Some (Json.Str k) -> k
          | _ -> Alcotest.failf "no \"ev\" in %S" line))
      lines
  in
  Alcotest.(check (list string)) "event kinds in order"
    [ "flow_sample"; "queue_sample"; "install"; "quarantine"; "fallback"; "report";
      "ipc_fault"; "span"; "alert"; "custom" ]
    kinds;
  (* The NaN value must not produce invalid JSON. *)
  let last = List.nth lines (List.length lines - 1) in
  (match Json.parse last with
  | Ok j -> Alcotest.(check bool) "nan became null" true (Json.member "value" j = Some Json.Null)
  | Error e -> Alcotest.failf "custom event line: %s" e);
  (* Timestamps survive as seconds. *)
  match Json.parse (List.nth lines 3) with
  | Ok j -> (
    match Json.member "t" j with
    | Some (Json.Num t) -> Alcotest.(check (float 1e-12)) "t in seconds" 0.003 t
    | _ -> Alcotest.fail "no numeric t")
  | Error e -> Alcotest.failf "quarantine line: %s" e

let test_flow_samples_csv () =
  let r = Recorder.create ~capacity:16 () in
  Recorder.record r ~at:0 (Recorder.Queue_sample { bytes = 1 });
  Recorder.record r ~at:1_000_000_000
    (Recorder.Flow_sample
       { flow = 3; cwnd = 20_000; rate = 125_000.0; srtt_us = 9_000.0; inflight = 10_000;
         delivery_rate = 100_000.0 });
  let csv = Recorder.flow_samples_csv r in
  match String.split_on_char '\n' csv |> List.filter (fun l -> l <> "") with
  | [ header; row ] ->
    Alcotest.(check string) "header"
      "time_s,flow,cwnd_bytes,rate_bps,srtt_us,inflight_bytes,delivery_rate_bps" header;
    (match String.split_on_char ',' row with
    | [ t; flow; cwnd; rate; _; _; drate ] ->
      Alcotest.(check (float 1e-9)) "time" 1.0 (float_of_string t);
      Alcotest.(check string) "flow" "3" flow;
      Alcotest.(check string) "cwnd" "20000" cwnd;
      (* Rates are bytes/s internally, bits/s in the CSV. *)
      Alcotest.(check (float 1e-3)) "rate in bits" 1e6 (float_of_string rate);
      Alcotest.(check (float 1e-3)) "delivery rate in bits" 8e5 (float_of_string drate)
    | _ -> Alcotest.fail "row shape")
  | _ -> Alcotest.fail "expected exactly header + one Flow_sample row"

(* --- the BENCH.json schema --- *)

let test_rows_schema () =
  let m = Metrics.create () in
  Metrics.incr (Metrics.counter m ~unit_:"msgs" "a.count");
  Metrics.set (Metrics.gauge m ~unit_:"bytes" "b.depth") 17.0;
  Metrics.observe (Metrics.histogram m ~unit_:"ns" "c.lat") 3.0;
  let rows = Metrics.snapshot m in
  (* Histograms expand into _count/_mean/_p50/_p90/_p99. *)
  Alcotest.(check int) "row count" 7 (List.length rows);
  let json = Metrics.rows_to_json rows in
  (match Metrics.validate_rows_json json with
  | Ok n -> Alcotest.(check int) "validator sees every row" 7 n
  | Error e -> Alcotest.failf "schema rejected its own snapshot: %s" e);
  (* Round-trip through text, as bench/main.exe writes it. *)
  (match Json.parse (Json.to_string json) with
  | Ok j -> (
    match Metrics.validate_rows_json j with
    | Ok 7 -> ()
    | Ok n -> Alcotest.failf "round-trip changed row count to %d" n
    | Error e -> Alcotest.failf "round-trip broke the schema: %s" e)
  | Error e -> Alcotest.failf "snapshot JSON unparseable: %s" e);
  (* Malformed shapes are rejected. *)
  List.iter
    (fun (label, text) ->
      match Json.parse text with
      | Error _ -> ()
      | Ok j -> (
        match Metrics.validate_rows_json j with
        | Error _ -> ()
        | Ok _ -> Alcotest.failf "%s passed validation" label))
    [
      ("object instead of list", "{\"name\":\"x\"}");
      ("row without value", "[{\"name\":\"x\",\"unit\":\"ns\"}]");
      ("non-string name", "[{\"name\":3,\"value\":1,\"unit\":\"ns\"}]");
    ]

(* A BENCH.json path that cannot be written is an [Error] for the CLI to
   report on one line, not an exception. *)
let test_merge_rows_unwritable () =
  let dir = Filename.temp_file "ccp_missing" "" in
  Sys.remove dir;
  let row = { Metrics.name = "a.b"; value = 1.0; unit_ = "x" } in
  match Metrics.merge_rows_file ~path:(Filename.concat dir "BENCH.json") [ row ] with
  | Ok _ -> Alcotest.fail "merged into a missing directory"
  | Error _ -> ()

(* --- fidelity math --- *)

let test_fidelity_math () =
  let series v = Array.init 11 (fun i -> (float_of_int i, v)) in
  let run series = { Fidelity.series; utilization = 0.9; median_rtt_ms = 20.0 } in
  let same = Fidelity.compare_runs ~ccp:(run (series 100.0)) ~native:(run (series 100.0)) () in
  Alcotest.(check (float 1e-12)) "identical series: zero RMSE" 0.0 same.Fidelity.cwnd_rmse;
  Alcotest.(check (float 1e-12)) "identical runs: zero deltas" 0.0
    same.Fidelity.utilization_delta;
  let off = Fidelity.compare_runs ~ccp:(run (series 110.0)) ~native:(run (series 100.0)) () in
  (* Constant 10% offset, normalized by the native mean. *)
  Alcotest.(check (float 1e-9)) "normalized RMSE" 0.1 off.Fidelity.cwnd_rmse;
  Alcotest.check_raises "empty series rejected"
    (Invalid_argument "Fidelity.compare_runs: empty ccp series") (fun () ->
      ignore (Fidelity.compare_runs ~ccp:(run [||]) ~native:(run (series 1.0)) ()))

(* --- zero cost when disabled: the per-ACK path must not allocate --- *)

let fake_ctl sim ~flow =
  let cwnd = ref 140_000 and rate = ref 0.0 in
  (* Preallocated options: the ctl contributes nothing to the Gc delta,
     so the assertion below isolates the datapath's own path. *)
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

let ccp_flow_under_program ?obs () =
  let sim = Ccp_eventsim.Sim.create () in
  let channel =
    Ccp_ipc.Channel.create ~sim ~latency:(Ccp_ipc.Latency_model.Constant (Time_ns.us 20))
      ?obs ()
  in
  let ext = Ccp_datapath.Ccp_ext.create ~sim ~channel ?obs () in
  Ccp_ipc.Channel.on_receive channel Ccp_ipc.Channel.Agent_end (fun _ -> ());
  let ctl = fake_ctl sim ~flow:1 in
  let cc = Ccp_datapath.Ccp_ext.congestion_control ext in
  cc.Ccp_datapath.Congestion_iface.on_init ctl;
  Ccp_eventsim.Sim.run sim;
  Ccp_ipc.Channel.send channel ~from:Ccp_ipc.Channel.Agent_end
    (Ccp_ipc.Message.Install { flow = 1; program = Ccp_lang.Parser.parse_program classic_program });
  Ccp_eventsim.Sim.run ~until:(Time_ns.add (Ccp_eventsim.Sim.now sim) (Time_ns.ms 5)) sim;
  (ext, cc, ctl)

let ack_event : Ccp_datapath.Congestion_iface.ack_event =
  {
    now = Time_ns.ms 50;
    bytes_acked = 1448;
    rtt_sample = Some (Time_ns.ms 11);
    ecn_echo = false;
    send_rate = Some 1e6;
    delivery_rate = Some 9e5;
    inflight_after = 5000;
  }

let test_on_ack_zero_alloc_when_disabled () =
  let ext, cc, ctl = ccp_flow_under_program () in
  (* Warm up: first calls may fault in lazy state. *)
  for _ = 1 to 100 do
    cc.Ccp_datapath.Congestion_iface.on_ack ctl ack_event
  done;
  let words0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    cc.Ccp_datapath.Congestion_iface.on_ack ctl ack_event
  done;
  let delta = Gc.minor_words () -. words0 in
  if delta > 100.0 then
    Alcotest.failf "obs-off per-ACK path allocated %.0f minor words over 10k ACKs" delta;
  ignore ext

let test_on_ack_counts_when_enabled () =
  let obs = Obs.create () in
  let _, cc, ctl = ccp_flow_under_program ~obs () in
  for _ = 1 to 50 do
    cc.Ccp_datapath.Congestion_iface.on_ack ctl ack_event
  done;
  let acks = Metrics.counter obs.Obs.metrics "datapath.acks_processed" in
  Alcotest.(check int) "acks counted" 50 (Metrics.counter_value acks);
  let fold_ns = Metrics.histogram obs.Obs.metrics "datapath.fold_step_ns" in
  Alcotest.(check int) "every fold step timed" 50 (Metrics.observations fold_ns);
  (* The recorder saw the install (twice: Ready handshake is not an
     install; accepted install exactly once). *)
  let installs =
    List.filter
      (fun (_, ev) -> match ev with Recorder.Install _ -> true | _ -> false)
      (Recorder.to_list (Obs.recorder_exn obs))
  in
  Alcotest.(check int) "install recorded" 1 (List.length installs)

(* --- tracer: span pool, lifecycle accounting, staleness --- *)

let fresh_tracer ?(capacity = 8) ?recorder () =
  let metrics = Metrics.create () in
  let wall = ref 0.0 in
  let clock () =
    wall := !wall +. 100.0;
    !wall
  in
  Tracer.create ~capacity ~metrics ?recorder ~clock ()

let check_stats_invariant label tr =
  let s = Tracer.stats tr in
  Alcotest.(check int)
    (label ^ ": started = finalized + live")
    s.Tracer.started
    (s.Tracer.actuated + s.Tracer.no_action + s.Tracer.rejected + s.Tracer.orphaned
   + s.Tracer.shed + s.Tracer.live);
  Alcotest.(check int)
    (label ^ ": free slots = capacity - live")
    (Tracer.pool_capacity tr - s.Tracer.live)
    (Tracer.free_slots tr)

let test_tracer_lifecycle () =
  let r = Recorder.create ~capacity:16 () in
  let tr = fresh_tracer ~recorder:r () in
  let s = Tracer.start tr ~now:0 ~flow:3 ~kind:Tracer.Report_span in
  Alcotest.(check bool) "got a span" true (s >= 0);
  Alcotest.(check int) "one live span" 1 (Tracer.live_spans tr);
  Tracer.sent tr s ~now:1_000;
  Tracer.arrived tr s ~now:21_000;
  Tracer.handler_begin tr s;
  Alcotest.(check int) "active while handler runs" s (Tracer.active tr);
  Tracer.note_send tr s ~now:22_000;
  Alcotest.(check int) "consumed spans are no longer active" Tracer.no_span
    (Tracer.active tr);
  Tracer.handler_end tr s ~now:22_000;
  Tracer.finish tr s ~now:43_000 ~disposition:Tracer.Actuated ~apply_ns:55.0;
  let st = Tracer.stats tr in
  Alcotest.(check int) "started" 1 st.Tracer.started;
  Alcotest.(check int) "actuated" 1 st.Tracer.actuated;
  Alcotest.(check int) "nothing live" 0 st.Tracer.live;
  check_stats_invariant "after lifecycle" tr;
  match Recorder.to_list r with
  | [ (at, Recorder.Span sp) ] ->
    Alcotest.(check int) "recorded at finalization time" 43_000 at;
    Alcotest.(check int) "flow" 3 sp.Recorder.flow;
    Alcotest.(check string) "kind" "report" sp.Recorder.kind;
    Alcotest.(check string) "disposition" "actuated" sp.Recorder.disposition;
    Alcotest.(check int) "sent_at" 1_000 sp.Recorder.sent_at;
    Alcotest.(check int) "agent_at" 21_000 sp.Recorder.agent_at;
    Alcotest.(check int) "action_at" 22_000 sp.Recorder.action_at;
    Alcotest.(check int) "done_at" 43_000 sp.Recorder.done_at;
    Alcotest.(check bool) "summarize cost measured" true (sp.Recorder.summarize_ns > 0.0);
    Alcotest.(check (float 1e-9)) "apply cost carried" 55.0 sp.Recorder.apply_ns
  | evs -> Alcotest.failf "expected exactly one Span event, got %d" (List.length evs)

let test_tracer_stale_after_finish () =
  let tr = fresh_tracer () in
  let s = Tracer.start tr ~now:0 ~flow:1 ~kind:Tracer.Urgent_span in
  Tracer.finish tr s ~now:10 ~disposition:Tracer.No_action ~apply_ns:0.0;
  (* The slot is free again; the old token must not touch its reuse. *)
  Tracer.sent tr s ~now:20;
  Tracer.finish tr s ~now:30 ~disposition:Tracer.Actuated ~apply_ns:0.0;
  let st = Tracer.stats tr in
  Alcotest.(check int) "stale refs counted" 2 st.Tracer.stale_refs;
  Alcotest.(check int) "no double finalization" 0 st.Tracer.actuated;
  (* Negative tokens mean "no span" and are not stale. *)
  Tracer.sent tr Ccp_ipc.Message.no_trace ~now:40;
  Alcotest.(check int) "no_span is silently ignored" 2 (Tracer.stats tr).Tracer.stale_refs;
  check_stats_invariant "after stale refs" tr

let test_tracer_pool_exhaustion () =
  let tr = fresh_tracer ~capacity:4 () in
  let spans = List.init 4 (fun i -> Tracer.start tr ~now:i ~flow:i ~kind:Tracer.Report_span) in
  List.iter (fun s -> Alcotest.(check bool) "pooled span" true (s >= 0)) spans;
  Alcotest.(check int) "pool drained" 0 (Tracer.free_slots tr);
  let overflow = Tracer.start tr ~now:9 ~flow:9 ~kind:Tracer.Report_span in
  Alcotest.(check int) "exhausted pool yields no_span" Tracer.no_span overflow;
  Alcotest.(check int) "drop counted" 1 (Tracer.stats tr).Tracer.dropped;
  check_stats_invariant "exhausted" tr;
  (* Freeing one slot makes start succeed again. *)
  Tracer.orphan tr (List.hd spans) ~now:10;
  let again = Tracer.start tr ~now:11 ~flow:11 ~kind:Tracer.Report_span in
  Alcotest.(check bool) "slot recycled" true (again >= 0);
  check_stats_invariant "recycled" tr

let test_tracer_handler_end_finalizes_unconsumed () =
  let tr = fresh_tracer () in
  let s = Tracer.start tr ~now:0 ~flow:1 ~kind:Tracer.Report_span in
  Tracer.sent tr s ~now:100;
  Tracer.arrived tr s ~now:200;
  Tracer.handler_begin tr s;
  (* The handler sends nothing back: the span ends as No_action here. *)
  Tracer.handler_end tr s ~now:300;
  let st = Tracer.stats tr in
  Alcotest.(check int) "no_action" 1 st.Tracer.no_action;
  Alcotest.(check int) "nothing live" 0 st.Tracer.live;
  Alcotest.(check int) "not active" Tracer.no_span (Tracer.active tr);
  check_stats_invariant "unconsumed handler" tr

let test_tracer_first_arrival_wins () =
  let r = Recorder.create ~capacity:4 () in
  let tr = fresh_tracer ~recorder:r () in
  let s = Tracer.start tr ~now:0 ~flow:1 ~kind:Tracer.Report_span in
  Tracer.sent tr s ~now:50;
  Tracer.arrived tr s ~now:500;
  (* A duplicated delivery arrives later; the span keeps the first. *)
  Tracer.arrived tr s ~now:900;
  Tracer.finish tr s ~now:1_000 ~disposition:Tracer.Actuated ~apply_ns:0.0;
  match Recorder.to_list r with
  | [ (_, Recorder.Span sp) ] ->
    Alcotest.(check int) "first arrival kept" 500 sp.Recorder.agent_at
  | _ -> Alcotest.fail "expected one Span event"

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "counters monotone under interleaving" `Quick test_counters_monotone;
        Alcotest.test_case "gauge holds last value" `Quick test_gauge;
        Alcotest.test_case "histogram quantiles within bucket error" `Quick
          test_histogram_quantiles;
        Alcotest.test_case "ring drop accounting is exact" `Quick test_ring_drops;
        Alcotest.test_case "ring under capacity drops nothing" `Quick
          test_ring_no_drops_under_capacity;
        Alcotest.test_case "JSONL sink parses back" `Quick test_jsonl_round_trip;
        Alcotest.test_case "flow-sample CSV shape" `Quick test_flow_samples_csv;
        Alcotest.test_case "BENCH.json rows schema" `Quick test_rows_schema;
        Alcotest.test_case "BENCH.json merge into a missing directory" `Quick
          test_merge_rows_unwritable;
        Alcotest.test_case "fidelity math" `Quick test_fidelity_math;
        Alcotest.test_case "per-ACK path allocation-free with obs off" `Quick
          test_on_ack_zero_alloc_when_disabled;
        Alcotest.test_case "per-ACK metrics with obs on" `Quick test_on_ack_counts_when_enabled;
        Alcotest.test_case "tracer lifecycle lands in the recorder" `Quick
          test_tracer_lifecycle;
        Alcotest.test_case "tracer stale tokens counted, not corrupting" `Quick
          test_tracer_stale_after_finish;
        Alcotest.test_case "tracer pool exhaustion drops, then recycles" `Quick
          test_tracer_pool_exhaustion;
        Alcotest.test_case "tracer handler_end finalizes unconsumed spans" `Quick
          test_tracer_handler_end_finalizes_unconsumed;
        Alcotest.test_case "tracer first arrival wins under duplication" `Quick
          test_tracer_first_arrival_wins;
      ] );
  ]
