(* Tests for the experiment driver and reporting layer, plus heavyweight
   randomized robustness properties over the full datapath. *)

open Ccp_util
open Ccp_eventsim
open Ccp_net
open Ccp_datapath
open Ccp_core

let test_default_config_invariants () =
  let c = Experiment.default_config ~rate_bps:1e9 ~base_rtt:(Time_ns.ms 10)
      ~duration:(Time_ns.sec 1) in
  Alcotest.(check int) "buffer = 1 BDP" 1_250_000 c.Experiment.buffer_bytes;
  Alcotest.(check int) "no warmup" 0 c.Experiment.warmup;
  Alcotest.(check bool) "no flows yet" true (c.Experiment.flows = [])

let test_run_rejects_empty () =
  let c = Experiment.default_config ~rate_bps:1e6 ~base_rtt:(Time_ns.ms 10)
      ~duration:(Time_ns.sec 1) in
  Alcotest.check_raises "no flows" (Invalid_argument "Experiment.run: no flows") (fun () ->
      ignore (Experiment.run c))

let test_result_metadata () =
  let c = Experiment.default_config ~rate_bps:10e6 ~base_rtt:(Time_ns.ms 10)
      ~duration:(Time_ns.sec 2) in
  let c =
    { c with
      Experiment.flows =
        [
          Experiment.flow (Experiment.Native_cc Ccp_algorithms.Native_reno.create);
          Experiment.flow (Experiment.Ccp_cc (Ccp_algorithms.Ccp_aimd.create ()));
        ] }
  in
  let r = Experiment.run c in
  let names = List.map (fun (f : Experiment.flow_result) -> f.cc_name) r.Experiment.flows in
  Alcotest.(check (list string)) "cc names" [ "reno"; "ccp-aimd" ] names;
  Alcotest.(check bool) "agent stats present" true (r.Experiment.agent_stats <> None);
  Alcotest.(check bool) "no cpu stats without offloads" true
    (r.Experiment.sender_cpu = None && r.Experiment.receiver_cpu = None);
  (* Traces exist for both flows. *)
  Alcotest.(check bool) "cwnd traces" true
    (Trace.series r.Experiment.trace "cwnd.0" <> []
    && Trace.series r.Experiment.trace "cwnd.1" <> []);
  Alcotest.(check bool) "queue trace" true (Trace.series r.Experiment.trace "queue_bytes" <> [])

let test_sparkline () =
  Alcotest.(check string) "empty" "" (Report.sparkline []);
  let s = Report.sparkline [ 0.0; 1.0; 2.0; 3.0 ] in
  (* Four glyphs; each sparkline level is a 1- or 3-byte UTF-8 char. *)
  Alcotest.(check bool) "nonempty" true (String.length s > 0);
  let flat = Report.sparkline [ 5.0; 5.0; 5.0 ] in
  Alcotest.(check bool) "flat series works" true (String.length flat > 0)

let test_series_csv () =
  let c = Experiment.default_config ~rate_bps:10e6 ~base_rtt:(Time_ns.ms 10)
      ~duration:(Time_ns.of_float_sec 0.5) in
  let c = { c with Experiment.flows = [ Experiment.flow (Experiment.Native_cc Ccp_algorithms.Native_reno.create) ] } in
  let r = Experiment.run c in
  let csv = Report.series_csv r ~series:"cwnd.0" in
  let lines = String.split_on_char '\n' csv in
  Alcotest.(check string) "header" "time_s,value" (List.hd lines);
  Alcotest.(check bool) "has rows" true (List.length lines > 2)

let test_fig4_convergence_detector () =
  (* Feed the detector a run where flow 1 starts late; it must report a
     time after the configured start, or never. *)
  let comparison = Scenarios.Fig4.run ~duration:(Time_ns.sec 34) () in
  (match Scenarios.Fig4.convergence_time comparison.Scenarios.ccp with
  | Some at ->
    Alcotest.(check bool) "after join" true
      (Time_ns.compare at Scenarios.Fig4.second_flow_start >= 0)
  | None -> Alcotest.fail "ccp reno never converged in 14s after join");
  match Scenarios.Fig4.convergence_time comparison.Scenarios.native with
  | Some _ -> ()
  | None -> Alcotest.fail "native reno never converged in 14s after join"

let test_sweep_single_point () =
  let points =
    Sweep.grid ~rates_bps:[ 20e6 ] ~rtts:[ Time_ns.ms 20 ] ~buffer_bdps:[ 1.0 ]
  in
  Alcotest.(check int) "one point" 1 (List.length points);
  let outcomes =
    Sweep.run ~duration:(Time_ns.sec 6) ~native:Ccp_algorithms.Native_reno.create
      ~ccp:(Ccp_algorithms.Ccp_reno.create ()) points
  in
  let o = List.hd outcomes in
  Alcotest.(check bool)
    (Printf.sprintf "small divergence (%.3f)" (Sweep.divergence o))
    true
    (Sweep.divergence o < 0.08);
  Alcotest.(check bool) "both utilize" true
    (o.Sweep.native_utilization > 0.8 && o.Sweep.ccp_utilization > 0.8);
  Alcotest.(check bool) "render mentions worst" true
    (String.length (Sweep.render outcomes) > 0)

let test_sweep_grid_shape () =
  Alcotest.(check int) "default grid size" 18 (List.length Sweep.default_grid);
  Alcotest.check_raises "worst of empty" (Invalid_argument "Sweep.worst: empty") (fun () ->
      ignore (Sweep.worst []))

(* --- randomized robustness properties (the expensive ones) --- *)

(* A bulk transfer of [total] bytes through a [rate_bps] bottleneck, 5 ms
   each way, whose sender drops [loss_pct] % of its transmissions at
   random. [after_ack] runs after the sender has taken each ACK. Returns
   the receiver and the sender after 120 simulated seconds. *)
let lossy_transfer ?(rate_bps = 10e6) ?(queue_bytes = 50_000)
    ?(cc = Ccp_algorithms.Native_reno.create ()) ?(after_ack = fun _ _ -> ()) ~seed ~loss_pct
    ~total () =
  let sim = Sim.create ~seed:(seed + 1) () in
  let rng = Rng.create ~seed:(seed + 7) in
  let fwd =
    Link.create ~sim ~rate_bps ~delay:(Time_ns.ms 5)
      ~qdisc:(Queue_disc.Droptail { capacity_bytes = queue_bytes; ecn_threshold_bytes = None })
      ()
  in
  let rev =
    Link.create ~sim ~rate_bps:100e6 ~delay:(Time_ns.ms 5)
      ~qdisc:(Queue_disc.Droptail { capacity_bytes = 10_000_000; ecn_threshold_bytes = None })
      ()
  in
  let receiver = Tcp_receiver.create ~flow:1 ~send_ack:(fun a -> Link.send rev a) () in
  Link.connect fwd (fun p -> Tcp_receiver.on_data receiver p);
  let config = { Tcp_flow.default_config with app_limit_bytes = Some total } in
  let flow =
    Tcp_flow.create ~sim ~flow:1 ~config ~cc
      ~transmit:(fun pkt -> if Rng.int rng 100 >= loss_pct then Link.send fwd pkt)
      ()
  in
  Link.connect rev (fun a ->
      Tcp_flow.on_ack flow a;
      after_ack receiver flow);
  Tcp_flow.start flow;
  Sim.run ~until:(Time_ns.sec 120) sim;
  (receiver, flow)

(* Any transfer completes exactly, whatever random subset of packets the
   network drops (up to 20%), because the scoreboard + RTO machinery
   recovers everything. *)
let prop_transfer_completes_under_random_loss =
  QCheck.Test.make ~name:"transfer completes under random loss" ~count:8
    QCheck.(pair (int_bound 1_000_000) (int_range 1 20))
    (fun (seed, loss_pct) ->
      let total = 120_000 in
      let receiver, flow = lossy_transfer ~seed ~loss_pct ~total () in
      Tcp_receiver.delivered_bytes receiver = total && Tcp_flow.snd_una flow = total)

(* Audit the sender's scoreboard after every ACK of a lossy transfer;
   returns the largest out-of-order backlog the receiver held. *)
let audited_transfer ?rate_bps ?queue_bytes ?cc ~seed ~loss_pct ~total () =
  let max_ooo = ref 0 in
  let after_ack receiver flow =
    max_ooo := max !max_ooo (Tcp_receiver.out_of_order_bytes receiver);
    match Tcp_flow.audit flow with
    | Ok () -> ()
    | Error msg ->
      QCheck.Test.fail_reportf "scoreboard at snd_una %d: %s" (Tcp_flow.snd_una flow) msg
  in
  let receiver, _flow =
    lossy_transfer ?rate_bps ?queue_bytes ?cc ~after_ack ~seed ~loss_pct ~total ()
  in
  let delivered = Tcp_receiver.delivered_bytes receiver in
  if delivered <> total then QCheck.Test.fail_reportf "delivered %d of %d bytes" delivered total;
  !max_ooo

let prop_scoreboard_audit_under_random_loss =
  QCheck.Test.make ~name:"scoreboard audit holds under random loss" ~count:8
    QCheck.(pair (int_bound 1_000_000) (int_range 1 20))
    (fun (seed, loss_pct) ->
      ignore (audited_transfer ~seed ~loss_pct ~total:120_000 () : int);
      true)

(* A fixed 2 MB window at 100 Mbit/s with 5 % loss keeps far more than
   [max_retx_scan] (64) SACKed segments outstanding, so the lost-
   retransmission scan skips SACKed segments on most ACKs. *)
let prop_scoreboard_audit_high_bdp =
  QCheck.Test.make ~name:"scoreboard audit holds with a large SACKed window" ~count:3
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let window = 2_000_000 in
      let cc =
        {
          (Congestion_iface.noop "fixed") with
          on_init = (fun ctl -> ctl.Congestion_iface.set_cwnd window);
        }
      in
      let max_ooo =
        audited_transfer ~rate_bps:100e6 ~queue_bytes:(2 * window) ~cc ~seed ~loss_pct:5
          ~total:(4 * window) ()
      in
      let segs = max_ooo / Tcp_flow.default_config.mss in
      if segs <= 64 then QCheck.Test.fail_reportf "only %d segments ever SACKed at once" segs;
      true)

(* The out-of-order set as a sorted list of disjoint [start, stop)
   intervals, merging overlapping and adjacent ones: the receiver's
   original representation, kept as the reference model. *)
let rec model_insert intervals (start, stop) =
  match intervals with
  | [] -> [ (start, stop) ]
  | (s, e) :: rest ->
    if stop < s then (start, stop) :: intervals
    else if start > e then (s, e) :: model_insert rest (start, stop)
    else model_insert rest (min s start, max e stop)

(* The model receiver: next expected byte and the out-of-order set. *)
let model_arrive (expected, ooo) (start, stop) =
  if stop <= expected then (expected, ooo)
  else if start <= expected then
    match ooo with
    | (s, e) :: rest when s <= stop -> (max stop e, rest)
    | _ -> (stop, ooo)
  else (expected, model_insert ooo (start, stop))

(* The receiver reassembles any arrival permutation of a segment stream,
   with random duplicates, and agrees with the list model after every
   arrival. Up to 400 segments, so the interval arrays grow and slide. *)
let prop_receiver_reassembles_any_order =
  QCheck.Test.make ~name:"receiver reassembles any arrival order" ~count:100
    QCheck.(triple (int_range 1 400) (int_bound 1_000_000) (int_bound 30))
    (fun (segments, seed, dup_pct) ->
      let rng = Rng.create ~seed in
      let order = Array.init segments Fun.id in
      Rng.shuffle rng order;
      let arrivals =
        Array.to_list order
        |> List.concat_map (fun i -> if Rng.int rng 100 < dup_pct then [ i; i ] else [ i ])
      in
      let receiver = Tcp_receiver.create ~flow:1 ~send_ack:(fun _ -> ()) () in
      let model = ref (0, []) in
      List.iteri
        (fun k i ->
          Tcp_receiver.on_data receiver
            (Packet.data ~flow:1 ~seq:(i * 1000) ~len:1000 ~sent_at:Time_ns.zero ());
          model := model_arrive !model ((i * 1000), (i * 1000) + 1000);
          let expected, ooo = !model in
          let ooo_bytes = List.fold_left (fun acc (s, e) -> acc + (e - s)) 0 ooo in
          if
            Tcp_receiver.expected_seq receiver <> expected
            || Tcp_receiver.out_of_order_bytes receiver <> ooo_bytes
          then
            QCheck.Test.fail_reportf "arrival %d (segment %d): receiver %d/%d, model %d/%d" k i
              (Tcp_receiver.expected_seq receiver)
              (Tcp_receiver.out_of_order_bytes receiver)
              expected ooo_bytes)
        arrivals;
      Tcp_receiver.expected_seq receiver = segments * 1000
      && Tcp_receiver.out_of_order_bytes receiver = 0)

(* Codec fuzz: random bytes either decode to some message or raise the
   documented exceptions — never anything else, never a crash. *)
let prop_codec_never_crashes =
  QCheck.Test.make ~name:"codec total on garbage" ~count:500
    QCheck.(string_of_size (QCheck.Gen.int_range 0 64))
    (fun junk ->
      match Ccp_ipc.Codec.decode junk with
      | _ -> true
      | exception Ccp_ipc.Codec.Decode_error _ -> true
      | exception Ccp_ipc.Wire.Reader.Truncated -> true
      | exception Ccp_ipc.Wire.Reader.Malformed _ -> true)

let suite =
  [
    ( "core.experiment",
      [
        Alcotest.test_case "default config" `Quick test_default_config_invariants;
        Alcotest.test_case "rejects empty" `Quick test_run_rejects_empty;
        Alcotest.test_case "result metadata" `Quick test_result_metadata;
      ] );
    ( "core.report",
      [
        Alcotest.test_case "sparkline" `Quick test_sparkline;
        Alcotest.test_case "series csv" `Quick test_series_csv;
      ] );
    ( "core.scenarios",
      [ Alcotest.test_case "fig4 convergence detector" `Slow test_fig4_convergence_detector ] );
    ( "core.sweep",
      [
        Alcotest.test_case "single point" `Slow test_sweep_single_point;
        Alcotest.test_case "grid shape" `Quick test_sweep_grid_shape;
      ] );
    ( "core.properties",
      [
        QCheck_alcotest.to_alcotest prop_transfer_completes_under_random_loss;
        QCheck_alcotest.to_alcotest prop_scoreboard_audit_under_random_loss;
        QCheck_alcotest.to_alcotest prop_scoreboard_audit_high_bdp;
        QCheck_alcotest.to_alcotest prop_receiver_reassembles_any_order;
        QCheck_alcotest.to_alcotest prop_codec_never_crashes;
      ] );
  ]
