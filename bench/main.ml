(* Micro-benchmark harness: bechamel timings of the hot paths the paper
   reasons about (the §2.2 cube roots, the §2.3 per-ACK processing cost,
   the wire codec, the control-program parser, observability and tracing
   overhead) and the slot-pool, batched-report and aggregate-steering
   scale benchmarks.

   Usage: main.exe [sections...] where sections are any of
   micro perack obs tracing telemetry scale (default: all). An unknown
   name is a one-line error and exit 2 before anything runs.
   Set QUICK=1 to shrink the scale section's rounds (CI-friendly).

   The paper's tables and figures come from the ccp_sim commands of the
   same names (table1, batching, fig2, fig3, fig4, fig5, ablations,
   sweep).

   Bechamel sections also append their ns/op estimates to BENCH.json in
   the working directory — a flat list of {"name","value","unit"} rows
   (the Ccp_obs.Metrics snapshot schema, validated by
   test/test_obs.ml) — so the perf trajectory is machine-readable run
   over run. *)

open Bechamel
open Toolkit
open Ccp_util

let quick = match Sys.getenv_opt "QUICK" with Some ("1" | "true") -> true | _ -> false

let heading title =
  Printf.printf
    "\n================================================================\n%s\n================================================================\n%!"
    title

(* --- bechamel micro-benchmarks --- *)

let sample_report : Ccp_ipc.Message.t =
  Ccp_ipc.Message.Report
    {
      flow = 7;
      layout =
        Ccp_ipc.Message.layout
          [|
            "acked"; "marked"; "pkts"; "maxrate"; "minrtt"; "lastrtt"; "sumrtt"; "_cwnd"; "_rate";
            "_srtt_us";
          |];
      values =
        [| 123456.0; 12.0; 85.0; 1.25e7; 10123.0; 11000.0; 870000.0; 145000.0; 0.0; 10500.0 |];
    }

let sample_install : Ccp_ipc.Message.t =
  Ccp_ipc.Message.Install
    {
      flow = 7;
      program =
        Ccp_lang.Parser.parse_program
          "Measure(fold { init { acked = 0; minrtt = 1e12 } update { acked = acked + \
           pkt.bytes_acked; minrtt = min(minrtt, pkt.rtt_us) } }).Cwnd(cwnd + 2 * \
           mss).WaitRtts(1.0).Report()";
    }

let encoded_report = Ccp_ipc.Codec.encode sample_report
let encoded_install = Ccp_ipc.Codec.encode sample_install

(* A representative program source: the paper's BBR pulse pattern. *)
let parse_text =
  "Measure(rtt_us, bytes_acked).Rate(1.25 * rate).WaitRtts(1.0).Report().Rate(0.75 * \
   rate).WaitRtts(1.0).Report().Rate(rate).WaitRtts(6.0).Report()"

let fold_def =
  match
    Ccp_lang.Parser.parse_program
      "Measure(fold { init { acked = 0; minrtt = 1e12; maxrate = 0 } update { acked = acked \
       + pkt.bytes_acked; minrtt = min(minrtt, pkt.rtt_us); maxrate = max(maxrate, \
       pkt.recv_rate) } }).WaitRtts(1.0).Report()"
  with
  | { Ccp_lang.Ast.prims = Ccp_lang.Ast.Measure (Ccp_lang.Ast.Fold def) :: _; _ } -> def
  | _ -> assert false

let flow_env = function
  | "cwnd" -> Some 140000.0
  | "mss" -> Some 1448.0
  | "srtt_us" -> Some 10100.0
  | "rate" -> Some 1.2e7
  | _ -> Some 0.0

let pkt_env = function
  | "rtt_us" -> Some 10233.0
  | "bytes_acked" -> Some 1448.0
  | "recv_rate" -> Some 1.21e7
  | _ -> Some 0.0

(* Run a bechamel test group and return sorted (name, ns/op, r^2) rows;
   every row also lands in the JSON accumulator flushed at exit (as
   (name, value, unit) — the scale section contributes non-ns/op rows). *)
let json_rows : (string * float * string) list ref = ref []

let measure_rows tests =
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        match Analyze.OLS.estimates ols with
        | Some (est :: _) -> (name, est, Analyze.OLS.r_square ols) :: acc
        | _ -> acc)
      results []
    |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
  in
  Printf.printf "%-34s %14s %8s\n" "benchmark" "ns/op" "r^2";
  List.iter
    (fun (name, est, r2) ->
      Printf.printf "%-34s %14.1f %8s\n" name est
        (match r2 with Some r -> Printf.sprintf "%.4f" r | None -> "-"))
    rows;
  json_rows := !json_rows @ List.map (fun (name, est, _) -> (name, est, "ns/op")) rows;
  rows

let row_cost rows name =
  match List.find_opt (fun (n, _, _) -> n = name) rows with
  | Some (_, est, _) -> est
  | None -> 0.0

let write_bench_json () =
  match !json_rows with
  | [] -> ()
  | pairs ->
    let rows =
      List.map (fun (name, value, unit_) -> { Ccp_obs.Metrics.name; value; unit_ }) pairs
    in
    let json = Ccp_obs.Metrics.rows_to_json rows in
    (match Ccp_obs.Metrics.validate_rows_json json with
    | Ok _ -> ()
    | Error e -> failwith ("BENCH.json failed its own schema check: " ^ e));
    let oc = open_out "BENCH.json" in
    output_string oc (Ccp_obs.Json.to_string json);
    output_string oc "\n";
    close_out oc;
    Printf.printf "\nwrote BENCH.json (%d entries)\n" (List.length rows)

(* The event queue at 1 k live events, about fig3-native's mean depth
   once cancelled timers leave it. [schedule-step] schedules a no-op just
   ahead and fires it; [rearm] moves one timer after another to a new
   latest deadline, as every ACK that advances snd_una does to its
   flow's RTO timer. *)
let queue_depth = 1024
let far_future = Time_ns.sec 1000

let queue_at_depth () =
  let sim = Ccp_eventsim.Sim.create () in
  let timers =
    Array.init queue_depth (fun i -> Ccp_eventsim.Sim.schedule sim ~at:(far_future + i) ignore)
  in
  (sim, timers)

let schedule_step () =
  let sim, _ = queue_at_depth () in
  let noop () = () in
  fun () ->
    ignore (Ccp_eventsim.Sim.schedule_after sim ~delay:1 noop : Ccp_eventsim.Sim.timer);
    ignore (Ccp_eventsim.Sim.step sim : bool)

let rearm () =
  let sim, timers = queue_at_depth () in
  let k = ref queue_depth in
  fun () ->
    incr k;
    Ccp_eventsim.Sim.reschedule sim timers.(!k land (queue_depth - 1)) ~at:(far_future + !k)

(* [link_hop] sends one packet through a 1 Gbit/s, 10 ms link that holds
   ~830 others in propagation, and fires events until the oldest of them
   arrives: an enqueue, a serialization and a delivery per call. *)
let link_hop () =
  let open Ccp_net in
  let sim = Ccp_eventsim.Sim.create () in
  let link =
    Link.create ~sim ~rate_bps:1e9 ~delay:(Time_ns.ms 10)
      ~qdisc:(Queue_disc.Droptail { capacity_bytes = 100_000_000; ecn_threshold_bytes = None })
      ()
  in
  let arrived = ref 0 in
  Link.connect link (fun _ -> incr arrived);
  let pkt =
    Packet.data ~flow:0 ~seq:0 ~len:1460 ~sent_at:Time_ns.zero ~is_retransmit:false
      ~ecn_capable:false
  in
  let until_arrival () =
    let before = !arrived in
    while !arrived = before do
      ignore (Ccp_eventsim.Sim.step sim : bool)
    done
  in
  for _ = 1 to 840 do
    Link.send link pkt
  done;
  until_arrival ();
  fun () ->
    Link.send link pkt;
    until_arrival ()

(* [percentile] adds one sample to 250 k and reads the p99, so every
   call sorts them all again. *)
let percentile () =
  let rng = Rng.create ~seed:1 in
  let s = Stats.Samples.create () in
  for _ = 1 to 250_000 do
    Stats.Samples.add s (Rng.float rng 1e6)
  done;
  let x = Sys.opaque_identity 5e5 in
  fun () ->
    Stats.Samples.add s x;
    Stats.Samples.percentile s 99.0

(* A fabricated ctl over plain refs (the test suite's trick), with every
   option preallocated so the ctl itself contributes zero allocation —
   what the Gc delta below then measures is the datapath's own path. *)
let obs_ctl sim ~flow =
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

(* Installs of Reno's window program on a registered flow. The datapath
   rows deliver one encoded [Install] frame through the channel's
   receive path ([Channel.deliver_raw]: decode, then the [Install]
   handler), then run the simulator until the [Install_result] has gone
   out. [install/first] alternates two programs one constant apart, so
   every install is admitted and compiled; [install/repeat] re-delivers
   the running program's frame, so every install is matched against the
   running program's bytes, decodes no AST and reuses its compiled
   program. [agent/install/repeat] is a handle's [install] of a freshly
   built copy of the program it last sent, as Reno does per report: it
   re-sends the frame encoded the first time. *)
let install_program cwnd = Ccp_algorithms.Prog.window_program ~cwnd ()

let install_channel () =
  let sim = Ccp_eventsim.Sim.create () in
  (sim, Ccp_ipc.Channel.create ~sim ~latency:(Ccp_ipc.Latency_model.Constant (Time_ns.us 20)) ())

let drain sim =
  Ccp_eventsim.Sim.run ~until:(Time_ns.add (Ccp_eventsim.Sim.now sim) (Time_ns.us 100)) sim

let install_datapath () =
  let sim, channel = install_channel () in
  Ccp_ipc.Channel.on_receive channel Ccp_ipc.Channel.Agent_end ignore;
  let ext = Ccp_datapath.Ccp_ext.create ~sim ~channel () in
  (Ccp_datapath.Ccp_ext.congestion_control ext).Ccp_datapath.Congestion_iface.on_init
    (obs_ctl sim ~flow:1);
  Ccp_eventsim.Sim.run sim;
  fun cwnd ->
    let frame =
      Ccp_ipc.Codec.encode
        (Ccp_ipc.Message.Install { flow = 1; program = install_program cwnd })
    in
    fun () ->
      Ccp_ipc.Channel.deliver_raw channel ~toward:Ccp_ipc.Channel.Datapath_end frame;
      drain sim

let install_first () =
  let deliver = install_datapath () in
  let a = deliver 20_000 and b = deliver 20_001 in
  let flip = ref false in
  fun () ->
    flip := not !flip;
    if !flip then a () else b ()

let install_repeat () =
  let deliver = install_datapath () 20_000 in
  deliver ();
  deliver

let agent_install_repeat () =
  let sim, channel = install_channel () in
  Ccp_ipc.Channel.on_receive channel Ccp_ipc.Channel.Datapath_end ignore;
  let handle = ref None in
  let algorithm =
    {
      Ccp_agent.Algorithm.name = "bench";
      make =
        (fun h ->
          handle := Some h;
          Ccp_agent.Algorithm.no_op_handlers);
    }
  in
  let (_ : Ccp_agent.Agent.t) =
    Ccp_agent.Agent.create ~sim ~channel ~choose:(fun _ -> algorithm) ()
  in
  Ccp_ipc.Channel.send channel ~from:Ccp_ipc.Channel.Datapath_end
    (Ccp_ipc.Message.Ready { flow = 1; mss = 1448; init_cwnd = 14_480 });
  Ccp_eventsim.Sim.run sim;
  let h = Option.get !handle in
  fun () ->
    h.Ccp_agent.Algorithm.install (install_program 20_000);
    drain sim

let micro_tests () =
  let fold_state = Ccp_lang.Fold.create fold_def ~flow_env in
  let cubic_expr = Ccp_lang.Parser.parse_expr "max(0.0, cwnd + 0.4 * mss * srtt_us / 1000)" in
  let eval_env = { Ccp_lang.Eval.lookup_var = flow_env; lookup_pkt = pkt_env } in
  Test.make_grouped ~name:"ccp"
    [
      Test.make ~name:"cubic/int-cbrt"
        (Staged.stage (fun () -> Ccp_algorithms.Cubic_math.int_cbrt 12345678901));
      Test.make ~name:"cubic/float-cbrt"
        (Staged.stage (fun () -> Ccp_algorithms.Cubic_math.float_cbrt 12345678901.0));
      Test.make ~name:"lang/parse-bbr-program"
        (Staged.stage (fun () -> Ccp_lang.Parser.parse_program parse_text));
      Test.make ~name:"lang/fold-step-per-ack"
        (Staged.stage (fun () -> Ccp_lang.Fold.step fold_state ~flow_env ~pkt_env));
      Test.make ~name:"lang/eval-expr"
        (Staged.stage (fun () -> Ccp_lang.Eval.eval eval_env cubic_expr));
      Test.make ~name:"ipc/encode-report"
        (Staged.stage (fun () -> Ccp_ipc.Codec.encode sample_report));
      (* The pre-scratch behaviour (fresh buffer per message), kept as
         the before/after baseline for the scratch-writer fix. *)
      Test.make ~name:"ipc/encode-report-fresh"
        (Staged.stage (fun () ->
             Ccp_ipc.Codec.encode_with (Ccp_ipc.Wire.Writer.create ()) sample_report));
      Test.make ~name:"ipc/decode-report"
        (Staged.stage (fun () -> Ccp_ipc.Codec.decode encoded_report));
      Test.make ~name:"ipc/encode-install"
        (Staged.stage (fun () -> Ccp_ipc.Codec.encode sample_install));
      Test.make ~name:"ipc/decode-install"
        (Staged.stage (fun () -> Ccp_ipc.Codec.decode encoded_install));
      Test.make ~name:"table1/render"
        (Staged.stage (fun () -> Ccp_algorithms.Primitives_table.render ()));
      Test.make ~name:"sim/schedule-step" (Staged.stage (schedule_step ()));
      Test.make ~name:"sim/rearm" (Staged.stage (rearm ()));
      Test.make ~name:"net/link-hop" (Staged.stage (link_hop ()));
      Test.make ~name:"stats/percentile" (Staged.stage (percentile ()));
      Test.make ~name:"install/first" (Staged.stage (install_first ()));
      Test.make ~name:"install/repeat" (Staged.stage (install_repeat ()));
      Test.make ~name:"agent/install/repeat" (Staged.stage (agent_install_repeat ()));
    ]

let run_micro () =
  heading "Micro-benchmarks (bechamel)";
  let rows = measure_rows (micro_tests ()) in
  let cost = row_cost rows in
  let fold_ns = cost "ccp/lang/fold-step-per-ack" in
  let report_ns = cost "ccp/ipc/encode-report" +. cost "ccp/ipc/decode-report" in
  Printf.printf
    "\n\
     §2.3 in measured numbers, at 100 Gbit/s with MTU segments (8.3M ACKs/s):\n\
     - per-ACK datapath fold work: %.1f ms of CPU per second of traffic\n\
     - per-RTT reporting at 10 µs RTT (100k reports/s, %d-byte reports): %.1f ms/s of codec work\n"
    (fold_ns *. 8.3e6 /. 1e6)
    (String.length encoded_report)
    (report_ns *. 100_000.0 /. 1e6)

(* --- per-ACK fast path: interpreter vs compiled (PR 3 headline) --- *)

module Lang = Ccp_lang

let perack_program =
  Lang.Parser.parse_program
    "Measure(fold { init { acked = 0; minrtt = 1e12; maxrate = 0 } update { acked = acked + \
     pkt.bytes_acked; minrtt = min(minrtt, pkt.rtt_us); maxrate = max(maxrate, pkt.recv_rate) \
     } }).Cwnd(cwnd + 2 * mss).WaitRtts(1.0).Report()"

let run_perack () =
  heading "Per-ACK path: interpreted vs compiled (install-time compilation)";
  let cwnd_expr, wait_expr =
    match perack_program.Lang.Ast.prims with
    | [ _; Lang.Ast.Cwnd c; Lang.Ast.Wait_rtts w; Lang.Ast.Report ] -> (c, w)
    | _ -> assert false
  in
  (* Interpreter side: string-keyed environments, as the datapath ran
     before install-time compilation. *)
  let ifold = Lang.Fold.create fold_def ~flow_env in
  let eval_env = { Lang.Eval.lookup_var = flow_env; lookup_pkt = (fun _ -> None) } in
  (* Compiled side: slot tables prefilled with the same values. *)
  let cp = Lang.Compile.compile_exn perack_program in
  let m = Lang.Compile.machine_for cp in
  List.iteri
    (fun i (name, _) -> m.Lang.Compile.flow.(i) <- Option.value (flow_env name) ~default:0.0)
    Lang.Ast.Vars.flow_vars;
  List.iteri
    (fun i (name, _) -> m.Lang.Compile.pkt.(i) <- Option.value (pkt_env name) ~default:0.0)
    Lang.Ast.Vars.pkt_fields;
  let plan, cwnd_code, wait_code =
    match cp.Lang.Compile.prims with
    | [| Lang.Compile.Measure_fold p; Lang.Compile.Cwnd c; Lang.Compile.Wait_rtts w;
         Lang.Compile.Report |] ->
      (p, c, w)
    | _ -> assert false
  in
  let cfold = Lang.Compile.Fold.create plan ~m in
  let incidents = Lang.Eval.fresh_counter () in
  (* Each benched closure folds [batch] ACKs (or runs [batch] ticks) so
     the harness's per-call closure overhead — identical for both
     sides, but large next to a ~40 ns compiled step — amortizes out of
     the comparison. Printed speedups are per single step. *)
  let batch = 10 in
  let rows =
    measure_rows
      (Test.make_grouped ~name:"perack"
         [
           Test.make ~name:(Printf.sprintf "fold-step-x%d/interpreted" batch)
             (Staged.stage (fun () ->
                  for _ = 1 to batch do
                    Lang.Fold.step ifold ~flow_env ~pkt_env
                  done));
           Test.make ~name:(Printf.sprintf "fold-step-x%d/compiled" batch)
             (Staged.stage (fun () ->
                  for _ = 1 to batch do
                    Lang.Compile.Fold.step cfold ~m ~incidents
                  done));
           Test.make ~name:(Printf.sprintf "tick-x%d/interpreted" batch)
             (Staged.stage (fun () ->
                  for _ = 1 to batch do
                    ignore (Lang.Eval.eval eval_env cwnd_expr : float);
                    ignore (Lang.Eval.eval eval_env wait_expr : float)
                  done));
           Test.make ~name:(Printf.sprintf "tick-x%d/compiled" batch)
             (Staged.stage (fun () ->
                  for _ = 1 to batch do
                    Lang.Compile.exec cwnd_code ~m ~slots:Lang.Compile.no_slots ~incidents;
                    Lang.Compile.exec wait_code ~m ~slots:Lang.Compile.no_slots ~incidents
                  done));
         ])
  in
  let cost = row_cost rows in
  let speedup what interp compiled =
    let i = cost interp /. float_of_int batch and c = cost compiled /. float_of_int batch in
    if c > 0.0 then Printf.printf "%s speedup: %.1fx (%.1f ns -> %.1f ns per step)\n" what (i /. c) i c
  in
  print_newline ();
  speedup "fold step " (Printf.sprintf "perack/fold-step-x%d/interpreted" batch)
    (Printf.sprintf "perack/fold-step-x%d/compiled" batch);
  speedup "program tick" (Printf.sprintf "perack/tick-x%d/interpreted" batch)
    (Printf.sprintf "perack/tick-x%d/compiled" batch)

(* --- observability overhead: the per-ACK path with obs off vs on --- *)

let obs_fold_program =
  Ccp_lang.Parser.parse_program
    "Measure(fold { init { acked = 0; minrtt = 1e12 } update { acked = acked + \
     pkt.bytes_acked; minrtt = min(minrtt, pkt.rtt_us) } }).Cwnd(cwnd + 2 * \
     mss).WaitRtts(1.0).Report()"

let obs_datapath ?obs () =
  let sim = Ccp_eventsim.Sim.create () in
  let channel =
    Ccp_ipc.Channel.create ~sim ~latency:(Ccp_ipc.Latency_model.Constant (Time_ns.us 20))
      ?obs ()
  in
  let ext = Ccp_datapath.Ccp_ext.create ~sim ~channel ?obs () in
  Ccp_ipc.Channel.on_receive channel Ccp_ipc.Channel.Agent_end (fun _ -> ());
  let ctl = obs_ctl sim ~flow:1 in
  let cc = Ccp_datapath.Ccp_ext.congestion_control ext in
  cc.Ccp_datapath.Congestion_iface.on_init ctl;
  Ccp_eventsim.Sim.run sim;
  Ccp_ipc.Channel.send channel ~from:Ccp_ipc.Channel.Agent_end
    (Ccp_ipc.Message.Install { flow = 1; program = obs_fold_program });
  Ccp_eventsim.Sim.run ~until:(Time_ns.add (Ccp_eventsim.Sim.now sim) (Time_ns.ms 5)) sim;
  (cc, ctl)

let obs_ack_event : Ccp_datapath.Congestion_iface.ack_event =
  {
    now = Time_ns.ms 50;
    bytes_acked = 1448;
    rtt_sample = Some (Time_ns.ms 11);
    ecn_echo = false;
    send_rate = Some 1e6;
    delivery_rate = Some 9e5;
    inflight_after = 5000;
  }

let run_obs () =
  heading "Observability overhead (flight recorder + metrics, per-ACK path)";
  let cc_off, ctl_off = obs_datapath () in
  let obs = Ccp_obs.Obs.create () in
  let cc_on, ctl_on = obs_datapath ~obs () in
  let ev = obs_ack_event in
  let reg = Ccp_obs.Metrics.create () in
  let counter = Ccp_obs.Metrics.counter reg ~unit_:"ops" "bench.counter" in
  let hist = Ccp_obs.Metrics.histogram reg ~unit_:"ns" "bench.histogram" in
  let ring = Ccp_obs.Recorder.create () in
  let sample = Ccp_obs.Recorder.Queue_sample { bytes = 12_345 } in
  let batch = 10 in
  let rows =
    measure_rows
      (Test.make_grouped ~name:"obs"
         [
           Test.make ~name:(Printf.sprintf "on-ack-x%d/disabled" batch)
             (Staged.stage (fun () ->
                  for _ = 1 to batch do
                    cc_off.Ccp_datapath.Congestion_iface.on_ack ctl_off ev
                  done));
           Test.make ~name:(Printf.sprintf "on-ack-x%d/enabled" batch)
             (Staged.stage (fun () ->
                  for _ = 1 to batch do
                    cc_on.Ccp_datapath.Congestion_iface.on_ack ctl_on ev
                  done));
           Test.make ~name:"metrics/counter-incr"
             (Staged.stage (fun () -> Ccp_obs.Metrics.incr counter));
           Test.make ~name:"metrics/histogram-observe"
             (Staged.stage (fun () -> Ccp_obs.Metrics.observe hist 1234.0));
           Test.make ~name:"recorder/record"
             (Staged.stage (fun () -> Ccp_obs.Recorder.record ring ~at:0 sample));
         ])
  in
  let cost = row_cost rows in
  let off = cost (Printf.sprintf "obs/on-ack-x%d/disabled" batch) /. float_of_int batch in
  let on = cost (Printf.sprintf "obs/on-ack-x%d/enabled" batch) /. float_of_int batch in
  Printf.printf "\nper-ACK observability overhead: %+.1f ns (%.1f ns off -> %.1f ns on)\n"
    (on -. off) off on;
  (* The "zero cost disabled" acceptance bar, measured where the bench
     already has the machinery set up; test_obs.ml asserts the same. *)
  let words0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    cc_off.Ccp_datapath.Congestion_iface.on_ack ctl_off ev
  done;
  let per_ack = (Gc.minor_words () -. words0) /. 10_000.0 in
  Printf.printf "obs-off allocation: %.4f minor words per ACK over 10k ACKs\n" per_ack;
  if per_ack > 0.0 then begin
    Printf.eprintf
      "bench: FAIL: obs-off per-ACK path allocated %.4f minor words per ACK (expected 0)\n%!"
      per_ack;
    exit 1
  end

(* --- tracing overhead: the per-ACK path and the span lifecycle --- *)

(* The tracer touches the per-ACK path not at all (spans are minted per
   report, roughly once per RTT), so tracer-on and tracer-off per-ACK
   costs should be indistinguishable — measured here rather than assumed.
   The span lifecycle itself is benched standalone, and its steady state
   must not allocate: tokens come from the preallocated pool, and with no
   recorder attached a finalization only updates metrics arrays. *)
let run_tracing () =
  heading "Tracing overhead (control-loop span tracer)";
  let cc_off, ctl_off = obs_datapath ~obs:(Ccp_obs.Obs.create ()) () in
  let cc_on, ctl_on = obs_datapath ~obs:(Ccp_obs.Obs.create ~tracer:true ()) () in
  let ev = obs_ack_event in
  let metrics = Ccp_obs.Metrics.create () in
  let tracer = Ccp_obs.Tracer.create ~metrics ~clock:(fun () -> 0.0) () in
  let lifecycle () =
    let s = Ccp_obs.Tracer.start tracer ~now:0 ~flow:1 ~kind:Ccp_obs.Tracer.Report_span in
    Ccp_obs.Tracer.sent tracer s ~now:10;
    Ccp_obs.Tracer.arrived tracer s ~now:20;
    Ccp_obs.Tracer.handler_begin tracer s;
    Ccp_obs.Tracer.note_send tracer s ~now:30;
    Ccp_obs.Tracer.handler_end tracer s ~now:30;
    Ccp_obs.Tracer.finish tracer s ~now:40 ~disposition:Ccp_obs.Tracer.Actuated
      ~apply_ns:5.0
  in
  let batch = 10 in
  let rows =
    measure_rows
      (Test.make_grouped ~name:"tracing"
         [
           Test.make ~name:(Printf.sprintf "on-ack-x%d/tracer-off" batch)
             (Staged.stage (fun () ->
                  for _ = 1 to batch do
                    cc_off.Ccp_datapath.Congestion_iface.on_ack ctl_off ev
                  done));
           Test.make ~name:(Printf.sprintf "on-ack-x%d/tracer-on" batch)
             (Staged.stage (fun () ->
                  for _ = 1 to batch do
                    cc_on.Ccp_datapath.Congestion_iface.on_ack ctl_on ev
                  done));
           Test.make ~name:"span/lifecycle" (Staged.stage lifecycle);
         ])
  in
  let cost = row_cost rows in
  let off = cost (Printf.sprintf "tracing/on-ack-x%d/tracer-off" batch) /. float_of_int batch in
  let on = cost (Printf.sprintf "tracing/on-ack-x%d/tracer-on" batch) /. float_of_int batch in
  Printf.printf "\nper-ACK tracing overhead: %+.1f ns (%.1f ns off -> %.1f ns on)\n"
    (on -. off) off on;
  Printf.printf "full span lifecycle: %.1f ns\n" (cost "tracing/span/lifecycle");
  let words0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    lifecycle ()
  done;
  let per_span = (Gc.minor_words () -. words0) /. 10_000.0 in
  Printf.printf "span lifecycle allocation (no recorder): %.4f minor words per span\n" per_span;
  (* The span state itself is preallocated (slot pool, parallel arrays), so
     a lifecycle allocates no per-span data. What remains is the float
     calling convention: each non-inlined [Metrics.observe]/clock call boxes
     a float argument or return (2 words each, ~26 words per lifecycle
     without flambda). Bound that boxing; the hard zero-allocation
     guarantee is the tracer-off per-ACK path asserted in the obs section. *)
  if per_span > 32.0 then begin
    Printf.eprintf
      "bench: FAIL: span lifecycle allocated %.4f minor words per span (expected <= 32 \
       float-boxing words; span state is pool-allocated)\n\
       %!"
      per_span;
    exit 1
  end

(* --- telemetry: windowed sampler tick cost; obs-off hot path --- *)

(* The sampler runs on the sim clock, never per ACK, so its only costs
   are the tick (a cumulative read of every registered metric) and the
   window close. Tick cost must scale with metric count and stay flat in
   ring capacity — the ring only bounds memory. And arming the full
   telemetry stack elsewhere in the process must leave the obs-off
   per-ACK path at exactly zero minor words, the same bar run_obs sets
   with just the recorder compiled in. *)
let run_telemetry () =
  heading "Telemetry (windowed time-series sampler; Top-K; SLO engine)";
  let tick_test ~metrics:n ~windows =
    let m = Ccp_obs.Metrics.create () in
    let counters =
      Array.init n (fun i ->
          Ccp_obs.Metrics.counter m ~unit_:"msgs" (Printf.sprintf "bench.c%03d" i))
    in
    let ts = Ccp_obs.Timeseries.create ~metrics:m ~window:1_000 ~windows ~subticks:1 () in
    let now = ref 0 in
    (* Every call advances one window and closes it (subticks 1): the
       worst case, sampling plus close plus ring insert each time. One
       counter moves so the window is never fully delta-suppressed. *)
    Test.make ~name:(Printf.sprintf "tick-close/m%d-w%d" n windows)
      (Staged.stage (fun () ->
           Ccp_obs.Metrics.incr counters.(0);
           now := !now + 1_000;
           ignore (Ccp_obs.Timeseries.tick ts ~now:!now : bool)))
  in
  let tk = Ccp_obs.Topk.create ~k:64 () in
  let sketch = Ccp_obs.Topk.sketch tk "bench.flows" in
  let spin = ref 0 in
  let rows =
    measure_rows
      (Test.make_grouped ~name:"telemetry"
         [
           tick_test ~metrics:8 ~windows:64;
           tick_test ~metrics:64 ~windows:64;
           tick_test ~metrics:256 ~windows:64;
           tick_test ~metrics:64 ~windows:16;
           tick_test ~metrics:64 ~windows:256;
           Test.make ~name:"topk/touch-churn"
             (Staged.stage (fun () ->
                  (* 4096 rotating keys against k=64: constant eviction,
                     the sketch's worst case. *)
                  spin := (!spin + 1) land 4095;
                  Ccp_obs.Topk.touch sketch !spin));
         ])
  in
  let cost = row_cost rows in
  let m8 = cost "telemetry/tick-close/m8-w64" in
  let m64 = cost "telemetry/tick-close/m64-w64" in
  let m256 = cost "telemetry/tick-close/m256-w64" in
  let w16 = cost "telemetry/tick-close/m64-w16" in
  let w256 = cost "telemetry/tick-close/m64-w256" in
  Printf.printf
    "\ntick+close cost vs metric count: %.0f ns at 8 -> %.0f ns at 64 -> %.0f ns at 256\n"
    m8 m64 m256;
  Printf.printf "tick+close cost vs ring capacity (64 metrics): %.0f ns at 16 windows, %.0f \
                 ns at 256 (memory bound, not time)\n"
    w16 w256;
  (* Zero-allocation bar with ALL telemetry subsystems not just compiled
     in but armed and live in the process: a full bundle with sketches
     fed and windows closing, while the datapath under test runs with
     obs off. *)
  let armed =
    Ccp_obs.Obs.create ~tracer:true ~telemetry:true ~clock:(fun () -> 0.0) ()
  in
  (match Ccp_obs.Obs.flow_sketch armed "flow.reports" with
  | Some s -> Ccp_obs.Topk.touch s 1
  | None -> ());
  (match armed.Ccp_obs.Obs.timeseries with
  | Some ts ->
    ignore (Ccp_obs.Timeseries.tick ts ~now:0 : bool);
    ignore (Ccp_obs.Timeseries.tick ts ~now:250_000_000 : bool)
  | None -> ());
  let cc_off, ctl_off = obs_datapath () in
  let ev = obs_ack_event in
  let words0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    cc_off.Ccp_datapath.Congestion_iface.on_ack ctl_off ev
  done;
  let per_ack = (Gc.minor_words () -. words0) /. 10_000.0 in
  Printf.printf
    "obs-off allocation with telemetry armed in-process: %.4f minor words per ACK\n" per_ack;
  if per_ack > 0.0 then begin
    Printf.eprintf
      "bench: FAIL: obs-off per-ACK path allocated %.4f minor words per ACK with the \
       telemetry stack armed (expected 0)\n\
       %!"
      per_ack;
    exit 1
  end

(* --- scale: the flow-multiplexed control plane at N flows --- *)

(* Registration churn and report dispatch measured end to end through
   the real channel + agent with the slot-pooled registry armed at
   fleet size, at N in {16, 256, 2048}. Two acceptance bars ride along:
   per-flow churn allocation stays bounded and N-independent (the pool
   touches preallocated slots, not a growing heap), and batched report
   dispatch costs less per report than unbatched (the frame amortizes
   per-message channel overhead). *)

let scale_ns = [ 16; 256; 2048 ]

let scale_sink : Ccp_agent.Algorithm.t =
  {
    Ccp_agent.Algorithm.name = "bench-sink";
    make =
      (fun _handle ->
        {
          Ccp_agent.Algorithm.no_op_handlers with
          Ccp_agent.Algorithm.on_report =
            (fun r -> ignore (Ccp_agent.Algorithm.field r "acked" : float option));
        });
  }

let scale_setup ?batching ~n () =
  let sim = Ccp_eventsim.Sim.create () in
  let channel =
    Ccp_ipc.Channel.create ~sim ~latency:(Ccp_ipc.Latency_model.Constant (Time_ns.us 20))
      ?batching ()
  in
  Ccp_ipc.Channel.on_receive channel Ccp_ipc.Channel.Datapath_end (fun _ -> ());
  let agent =
    Ccp_agent.Agent.create ~sim ~channel ~choose:(fun _ -> scale_sink) ~flow_pool:n ()
  in
  (sim, channel, agent)

let scale_churn_round sim channel ~n =
  for f = 0 to n - 1 do
    Ccp_ipc.Channel.send channel ~from:Ccp_ipc.Channel.Datapath_end
      (Ccp_ipc.Message.Ready { flow = f; mss = 1448; init_cwnd = 14_480 })
  done;
  Ccp_eventsim.Sim.run sim;
  for f = 0 to n - 1 do
    Ccp_ipc.Channel.send channel ~from:Ccp_ipc.Channel.Datapath_end
      (Ccp_ipc.Message.Closed { flow = f })
  done;
  Ccp_eventsim.Sim.run sim

(* (flows/sec, minor words per register+teardown cycle) *)
let scale_churn ~n ~rounds =
  let sim, channel, agent = scale_setup ~n () in
  scale_churn_round sim channel ~n;
  let words0 = Gc.minor_words () in
  scale_churn_round sim channel ~n;
  let words_per_flow = (Gc.minor_words () -. words0) /. float_of_int n in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to rounds do
    scale_churn_round sim channel ~n
  done;
  let dt = Unix.gettimeofday () -. t0 in
  if Ccp_agent.Agent.registrations_rejected agent > 0 then begin
    Printf.eprintf "bench: FAIL: scale churn at n=%d rejected registrations\n%!" n;
    exit 1
  end;
  (float_of_int (rounds * n) /. dt, words_per_flow)

(* Built once, as the datapath builds one layout per fold plan. *)
let scale_report_layout = Ccp_ipc.Message.layout [| "acked"; "sacked"; "lastrtt" |]

(* µs of wall clock and minor words per report, send through dispatch,
   at [n] live flows, reports round-robin across the fleet. *)
let scale_reports ?batching ~n ~reports () =
  let sim, channel, agent = scale_setup ?batching ~n () in
  for f = 0 to n - 1 do
    Ccp_ipc.Channel.send channel ~from:Ccp_ipc.Channel.Datapath_end
      (Ccp_ipc.Message.Ready { flow = f; mss = 1448; init_cwnd = 14_480 })
  done;
  Ccp_eventsim.Sim.run sim;
  let burst count =
    for i = 0 to count - 1 do
      Ccp_ipc.Channel.send channel ~from:Ccp_ipc.Channel.Datapath_end
        (Ccp_ipc.Message.Report
           { flow = i mod n; layout = scale_report_layout; values = [| 1448.0; 0.0; 10_233.0 |] })
    done;
    Ccp_ipc.Channel.flush channel;
    Ccp_eventsim.Sim.run sim
  in
  burst (min reports 1024);
  let before = Ccp_agent.Agent.reports_received agent in
  let words0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  burst reports;
  let dt = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. words0 in
  if Ccp_agent.Agent.reports_received agent - before <> reports then begin
    Printf.eprintf "bench: FAIL: scale dispatch at n=%d lost reports (%d of %d)\n%!" n
      (Ccp_agent.Agent.reports_received agent - before)
      reports;
    exit 1
  end;
  (dt *. 1e6 /. float_of_int reports, words /. float_of_int reports)

let scale_batching =
  (* Deep byte/deadline watermarks so the count watermark (32, the
     incast default) is the one that fires: frames of 32 reports. *)
  {
    Ccp_ipc.Channel.max_count = 32;
    max_bytes = 1 lsl 20;
    deadline = Time_ns.ms 1;
  }

(* Frames the agent sends the datapath per report, for one ccp-aggregate
   group of [n] members on the real channel and agent (as
   test/test_scale.ml's aggregate fleet). All members join at t=0; then,
   once per 10 ms base RTT, every member reports and, every fourth
   round, one member's loss halves the aggregate. Joins and losses are
   counted with the reports: a member costs two frames to join (its
   install and its share), and a decrease one frame per member above
   the new share. *)
let scale_aggregate_ns = [ 16; 256; 2048; 16_384 ]

let aggregate_frames_per_report ~n ~rounds =
  let open Ccp_ipc in
  let sim = Ccp_eventsim.Sim.create () in
  let channel = Channel.create ~sim ~latency:(Latency_model.Constant (Time_ns.us 20)) () in
  Channel.on_receive channel Channel.Datapath_end (fun _ -> ());
  let algo = Ccp_algorithms.Ccp_aggregate.(algorithm (create ())) in
  let agent = Ccp_agent.Agent.create ~sim ~channel ~choose:(fun _ -> algo) ~flow_pool:n () in
  let send msg = Channel.send channel ~from:Channel.Datapath_end msg in
  let layout = Message.layout [| "acked" |] in
  for f = 0 to n - 1 do
    send (Message.Ready { flow = f; mss = 1448; init_cwnd = 14_480 })
  done;
  for round = 1 to rounds do
    ignore
      (Ccp_eventsim.Sim.schedule sim ~at:(Time_ns.ms (10 * round)) (fun () ->
           for f = 0 to n - 1 do
             send (Message.Report { flow = f; layout; values = [| 1448.0 |] })
           done;
           if round mod 4 = 0 then
             send
               (Message.Urgent
                  {
                    flow = round mod n;
                    kind = Message.Dup_ack_loss;
                    cwnd_at_event = 1448;
                    inflight_at_event = 0;
                  }))
        : Ccp_eventsim.Sim.timer)
  done;
  Ccp_eventsim.Sim.run sim;
  let reports = Ccp_agent.Agent.reports_received agent in
  if reports <> rounds * n then begin
    Printf.eprintf "bench: FAIL: aggregate fleet at n=%d lost reports (%d of %d)\n%!" n reports
      (rounds * n);
    exit 1
  end;
  float_of_int (Channel.messages_sent channel Channel.Agent_end) /. float_of_int reports

(* At most 2 frames per report, and never more at a bigger group: the
   aggregate's control traffic is per report, not per member. *)
let run_scale_aggregate ~rounds =
  Printf.printf "\n%-8s %18s\n" "members" "frames/report";
  let fail fmt =
    Printf.ksprintf (fun msg -> Printf.eprintf "bench: FAIL: %s\n%!" msg; exit 1) fmt
  in
  ignore
    (List.fold_left
       (fun prev n ->
         let v = aggregate_frames_per_report ~n ~rounds in
         Printf.printf "%-8d %18.3f\n%!" n v;
         json_rows :=
           !json_rows
           @ [ (Printf.sprintf "scale.aggregate_frames_per_report.n%d" n, v, "frames/report") ];
         if v > 2.0 then fail "aggregate at n=%d sent %.3f frames per report (expected <= 2)" n v;
         (match prev with
         | Some (n0, v0) when v > v0 ->
           fail "aggregate frames per report grow with the group (%.3f at n=%d vs %.3f at n=%d)" v
             n v0 n0
         | _ -> ());
         Some (n, v))
       None scale_aggregate_ns
      : (int * float) option)

let run_scale () =
  heading "Scale: slot-pooled registry churn + batched report dispatch + aggregate frames";
  let rounds = if quick then 20 else 100 in
  let reports = if quick then 20_000 else 100_000 in
  Printf.printf "%-8s %16s %14s %18s %18s %18s %18s\n" "flows" "flows/sec" "words/flow"
    "us/report(1-per)" "us/report(batch)" "words/rep(1-per)" "words/rep(batch)";
  let measured =
    List.map
      (fun n ->
        let flows_per_sec, words = scale_churn ~n ~rounds in
        let unbatched, unbatched_words = scale_reports ~n ~reports () in
        let batched, batched_words = scale_reports ~batching:scale_batching ~n ~reports () in
        Printf.printf "%-8d %16.0f %14.1f %18.3f %18.3f %18.1f %18.1f\n%!" n flows_per_sec words
          unbatched batched unbatched_words batched_words;
        json_rows :=
          !json_rows
          @ [
              (Printf.sprintf "scale.flows_per_sec.n%d" n, flows_per_sec, "flows/s");
              (Printf.sprintf "scale.agent_us_per_report.unbatched.n%d" n, unbatched, "us");
              (Printf.sprintf "scale.agent_us_per_report.batched.n%d" n, batched, "us");
              ( Printf.sprintf "scale.agent_words_per_report.unbatched.n%d" n,
                unbatched_words,
                "words" );
              (Printf.sprintf "scale.agent_words_per_report.batched.n%d" n, batched_words, "words");
            ];
        if batched >= unbatched then begin
          Printf.eprintf
            "bench: FAIL: batched dispatch at n=%d cost %.3f us/report vs %.3f unbatched \
             (batching must amortize, not add)\n\
             %!"
            n batched unbatched;
          exit 1
        end;
        (n, words, unbatched_words, batched_words))
      scale_ns
  in
  (* Each per-flow or per-report allocation must stay under its ceiling
     and must not grow with the fleet; 4x headroom over the smallest
     fleet separates "constant" from "linear" (a per-flow leak at
     n=2048 would blow far past it).
     - Churn: the pool's whole point is that registration touches
       preallocated slots. The ceiling covers the Ready/Closed codec
       round-trip and scheduler event.
     - Report dispatch, send to handler: a report carries its layout's
       id and decodes into its values array and record, and a batched
       one decodes in place, through the frame's own reader. The
       ceilings are twice what this section measured when they were set
       (57 words unbatched, 40.9 batched, flat in n). *)
  let check ~what ~ceiling column =
    let rows = List.map (fun (n, churn, unbatched, batched) -> (n, column churn unbatched batched)) measured in
    List.iter
      (fun (n, w) ->
        if w > ceiling then begin
          Printf.eprintf "bench: FAIL: %s at n=%d allocated %.1f minor words (expected <= %.0f)\n%!"
            what n w ceiling;
          exit 1
        end)
      rows;
    match rows with
    | (n0, w0) :: (_ :: _ as rest) when w0 > 0.0 ->
      List.iter
        (fun (n, w) ->
          if w > 4.0 *. w0 then begin
            Printf.eprintf
              "bench: FAIL: %s grows with fleet size (%.1f minor words at n=%d vs %.1f at n=%d)\n%!"
              what w n w0 n0;
            exit 1
          end)
        rest
    | _ -> ()
  in
  check ~what:"churn per flow" ~ceiling:1024.0 (fun churn _ _ -> churn);
  check ~what:"unbatched dispatch per report" ~ceiling:114.0 (fun _ unbatched _ -> unbatched);
  check ~what:"batched dispatch per report" ~ceiling:82.0 (fun _ _ batched -> batched);
  run_scale_aggregate ~rounds:(if quick then 8 else 16)

let sections =
  [
    ("micro", run_micro);
    ("perack", run_perack);
    ("obs", run_obs);
    ("tracing", run_tracing);
    ("telemetry", run_telemetry);
    ("scale", run_scale);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst sections
  in
  (match List.find_opt (fun name -> not (List.mem_assoc name sections)) requested with
  | Some name ->
    Printf.eprintf "main.exe: unknown section %S; known sections: %s\n" name
      (String.concat " " (List.map fst sections));
    exit 2
  | None -> ());
  List.iter (fun (name, run) -> if List.mem name requested then run ()) sections;
  write_bench_json ();
  Printf.printf "\ndone.\n"
