(* Tests for the transport datapath: estimators, pacing, the receiver,
   the sender state machine (loss recovery, RTO), and the CCP datapath
   extension that executes control programs. *)

open Ccp_util
open Ccp_eventsim
open Ccp_net
open Ccp_datapath

(* --- Rtt_estimator --- *)

let test_rtt_first_sample () =
  let est = Rtt_estimator.create () in
  Alcotest.(check (option int)) "no srtt" None (Rtt_estimator.srtt est);
  Alcotest.(check int) "default rto 1s" (Time_ns.sec 1) (Rtt_estimator.rto est);
  Rtt_estimator.on_sample est (Time_ns.ms 100);
  Alcotest.(check (option int)) "srtt = first" (Some (Time_ns.ms 100)) (Rtt_estimator.srtt est);
  Alcotest.(check (option int)) "rttvar = half" (Some (Time_ns.ms 50)) (Rtt_estimator.rttvar est)

let test_rtt_smoothing () =
  let est = Rtt_estimator.create () in
  Rtt_estimator.on_sample est (Time_ns.ms 100);
  Rtt_estimator.on_sample est (Time_ns.ms 200);
  (* srtt = 7/8*100 + 1/8*200 = 112.5ms *)
  Alcotest.(check (option int)) "srtt" (Some 112_500_000) (Rtt_estimator.srtt est);
  Alcotest.(check (option int)) "latest" (Some (Time_ns.ms 200)) (Rtt_estimator.latest est);
  Alcotest.(check (option int)) "min" (Some (Time_ns.ms 100)) (Rtt_estimator.min_rtt est);
  Alcotest.(check int) "samples" 2 (Rtt_estimator.samples est)

let test_rtt_rto_bounds () =
  let est = Rtt_estimator.create ~min_rto:(Time_ns.ms 200) () in
  Rtt_estimator.on_sample est (Time_ns.us 100);
  (* Tiny RTT: rto clamps to min_rto. *)
  Alcotest.(check int) "min rto" (Time_ns.ms 200) (Rtt_estimator.rto est);
  Rtt_estimator.on_sample est (Time_ns.ms 0);
  (* non-positive samples ignored *)
  Alcotest.(check int) "ignored" 1 (Rtt_estimator.samples est)

(* --- Rate_estimator --- *)

let test_delivery_rate_sample () =
  let est = Rate_estimator.create () in
  (* Send 10 x 1000B over 10ms, ack them 20ms later: delivery rate over
     the acked segment's interval. *)
  let snap = Rate_estimator.on_send est ~now:Time_ns.zero ~bytes:1000 in
  let _ = Rate_estimator.on_send est ~now:(Time_ns.ms 1) ~bytes:1000 in
  let rates = Rate_estimator.on_ack est ~now:(Time_ns.ms 20) ~bytes_newly_acked:1000 snap in
  (* delivered went 0 -> 1000 over 20ms measured from delivered_time 0. *)
  (match rates.Rate_estimator.delivery_rate with
  | Some rate -> Alcotest.(check (float 1.0)) "delivery rate" 50_000.0 rate
  | None -> Alcotest.fail "expected delivery sample");
  (match rates.Rate_estimator.send_rate with
  | Some rate -> Alcotest.(check (float 1.0)) "send rate 2000B/20ms" 100_000.0 rate
  | None -> Alcotest.fail "expected send sample");
  Alcotest.(check int) "total sent" 2000 (Rate_estimator.total_sent est);
  Alcotest.(check int) "total delivered" 1000 (Rate_estimator.total_delivered est);
  Alcotest.(check bool) "ewma tracked" true (Rate_estimator.delivery_rate_ewma est <> None)

(* --- Pacer --- *)

let test_pacer_disabled () =
  let p = Pacer.create () in
  Alcotest.(check int) "unpaced sends now" (Time_ns.ms 5)
    (Pacer.earliest_send p ~now:(Time_ns.ms 5) ~bytes:1_000_000)

let test_pacer_timing () =
  let p = Pacer.create ~burst_bytes:1500 () in
  Pacer.set_rate p ~now:Time_ns.zero 1_000_000.0 (* 1 MB/s *);
  (* Burst allowance covers the first 1500B packet. *)
  Alcotest.(check int) "burst send" Time_ns.zero (Pacer.earliest_send p ~now:Time_ns.zero ~bytes:1500);
  Pacer.note_sent p ~now:Time_ns.zero ~bytes:1500;
  (* Next 1500B needs 1.5ms of token accrual at 1 MB/s. *)
  Alcotest.(check int) "paced" (Time_ns.of_float_sec 0.0015)
    (Pacer.earliest_send p ~now:Time_ns.zero ~bytes:1500);
  (* After that time passes, it may send. *)
  Alcotest.(check int) "ready" (Time_ns.ms 2)
    (Pacer.earliest_send p ~now:(Time_ns.ms 2) ~bytes:1500)

let test_pacer_rate_change () =
  let p = Pacer.create ~burst_bytes:1000 () in
  Pacer.set_rate p ~now:Time_ns.zero 1000.0;
  Pacer.note_sent p ~now:Time_ns.zero ~bytes:1000;
  Pacer.set_rate p ~now:Time_ns.zero 0.0;
  Alcotest.(check (float 1e-9)) "disabled" 0.0 (Pacer.rate p);
  Alcotest.(check int) "unpaced again" Time_ns.zero
    (Pacer.earliest_send p ~now:Time_ns.zero ~bytes:5000)

(* --- Tcp_receiver --- *)

let collect_acks () =
  let acks = ref [] in
  let send_ack pkt =
    match pkt.Packet.payload with
    | Packet.Ack a -> acks := a :: !acks
    | Packet.Data _ -> Alcotest.fail "receiver sent data"
  in
  (acks, send_ack)

let data ~seq ?(len = 1000) ?(marked = false) () =
  let p =
    Packet.data ~flow:1 ~seq ~len ~sent_at:(Time_ns.us seq) ~is_retransmit:false
      ~ecn_capable:false
  in
  p.Packet.ecn_marked <- marked;
  p

let test_receiver_in_order () =
  let acks, send_ack = collect_acks () in
  let rx = Tcp_receiver.create ~flow:1 ~send_ack () in
  Tcp_receiver.on_data rx (data ~seq:0 ());
  Tcp_receiver.on_data rx (data ~seq:1000 ());
  Alcotest.(check int) "expected" 2000 (Tcp_receiver.expected_seq rx);
  Alcotest.(check int) "two acks" 2 (List.length !acks);
  let last = List.hd !acks in
  Alcotest.(check int) "cum" 2000 last.Packet.cum_ack;
  Alcotest.(check int) "ts echo" (Time_ns.us 1000) last.Packet.echo_sent_at;
  Alcotest.(check (list (pair int int))) "no sacks" [] last.Packet.newly_sacked

let test_receiver_out_of_order_and_fill () =
  let acks, send_ack = collect_acks () in
  let rx = Tcp_receiver.create ~flow:1 ~send_ack () in
  Tcp_receiver.on_data rx (data ~seq:0 ());
  Tcp_receiver.on_data rx (data ~seq:2000 ()) (* hole at 1000 *);
  Tcp_receiver.on_data rx (data ~seq:3000 ());
  let dup = List.hd !acks in
  Alcotest.(check int) "dup cum" 1000 dup.Packet.cum_ack;
  Alcotest.(check (list (pair int int))) "sack" [ (3000, 4000) ] dup.Packet.newly_sacked;
  Alcotest.(check int) "ooo buffered" 2000 (Tcp_receiver.out_of_order_bytes rx);
  (* Filling the hole advances past everything buffered. *)
  Tcp_receiver.on_data rx (data ~seq:1000 ());
  Alcotest.(check int) "jumped" 4000 (Tcp_receiver.expected_seq rx);
  Alcotest.(check int) "ooo drained" 0 (Tcp_receiver.out_of_order_bytes rx)

let test_receiver_duplicate_data () =
  let acks, send_ack = collect_acks () in
  let rx = Tcp_receiver.create ~flow:1 ~send_ack () in
  Tcp_receiver.on_data rx (data ~seq:0 ());
  Tcp_receiver.on_data rx (data ~seq:0 ());
  Alcotest.(check int) "expected unchanged" 1000 (Tcp_receiver.expected_seq rx);
  Alcotest.(check int) "re-acked" 2 (List.length !acks)

let test_receiver_ecn_echo () =
  let acks, send_ack = collect_acks () in
  let rx = Tcp_receiver.create ~flow:1 ~send_ack () in
  Tcp_receiver.on_data rx (data ~seq:0 ~marked:true ());
  Alcotest.(check bool) "echoed" true (List.hd !acks).Packet.ecn_echo

let test_receiver_delayed_ack () =
  let acks, send_ack = collect_acks () in
  let rx = Tcp_receiver.create ~flow:1 ~send_ack ~delayed_ack_every:2 () in
  Tcp_receiver.on_data rx (data ~seq:0 ());
  Alcotest.(check int) "held" 0 (List.length !acks);
  Tcp_receiver.on_data rx (data ~seq:1000 ());
  Alcotest.(check int) "flushed" 1 (List.length !acks);
  Alcotest.(check int) "covers both" 2 (List.hd !acks).Packet.acked_segments

let test_receiver_batch () =
  let acks, send_ack = collect_acks () in
  let rx = Tcp_receiver.create ~flow:1 ~send_ack () in
  Tcp_receiver.on_batch rx [ data ~seq:0 (); data ~seq:1000 (); data ~seq:2000 () ];
  Alcotest.(check int) "one ack per batch" 1 (List.length !acks);
  Alcotest.(check int) "gro count" 3 (List.hd !acks).Packet.acked_segments;
  Alcotest.(check int) "cum" 3000 (List.hd !acks).Packet.cum_ack

(* --- Tcp_flow end-to-end harness --- *)

(* A single flow over one bottleneck, with an optional transmit filter
   that can drop selected packets (deterministic loss injection). *)
type harness = {
  sim : Sim.t;
  flow : Tcp_flow.t;
  receiver : Tcp_receiver.t;
}

let make_harness ?(rate_bps = 10e6) ?(delay = Time_ns.ms 5) ?(buffer = 100_000)
    ?(config = Tcp_flow.default_config) ?(filter = fun _ -> true) cc =
  let sim = Sim.create () in
  let fwd =
    Link.create ~sim ~rate_bps ~delay
      ~qdisc:(Queue_disc.Droptail { capacity_bytes = buffer; ecn_threshold_bytes = None })
      ~name:"fwd" ()
  in
  let rev =
    Link.create ~sim ~rate_bps:(10.0 *. rate_bps) ~delay
      ~qdisc:(Queue_disc.Droptail { capacity_bytes = 10_000_000; ecn_threshold_bytes = None })
      ~name:"rev" ()
  in
  let receiver = Tcp_receiver.create ~flow:1 ~send_ack:(fun ack -> Link.send rev ack) () in
  Link.connect fwd (fun pkt -> Tcp_receiver.on_data receiver pkt);
  let flow =
    Tcp_flow.create ~sim ~flow:1 ~config ~cc
      ~transmit:(fun pkt -> if filter pkt then Link.send fwd pkt)
      ()
  in
  Link.connect rev (fun ack -> Tcp_flow.on_ack flow ack);
  { sim; flow; receiver }

let fixed_window_cc bytes : Congestion_iface.t =
  {
    (Congestion_iface.noop "fixed") with
    on_init = (fun ctl -> ctl.Congestion_iface.set_cwnd bytes);
  }

let test_flow_transfers_app_limit () =
  let config = { Tcp_flow.default_config with app_limit_bytes = Some 200_000 } in
  let h = make_harness ~config (Congestion_iface.noop "none") in
  Tcp_flow.start h.flow;
  Sim.run ~until:(Time_ns.sec 5) h.sim;
  Alcotest.(check int) "all delivered" 200_000 (Tcp_receiver.delivered_bytes h.receiver);
  Alcotest.(check int) "una caught up" 200_000 (Tcp_flow.snd_una h.flow);
  Alcotest.(check int) "no retransmits" 0 (Tcp_flow.retransmits h.flow);
  Alcotest.(check int) "no timeouts" 0 (Tcp_flow.timeouts h.flow);
  Alcotest.(check bool) "srtt measured" true (Tcp_flow.srtt h.flow <> None)

let test_flow_respects_cwnd () =
  (* With a 2-segment window and 10ms RTT, throughput is ~2 segments per
     RTT regardless of link speed. *)
  let h = make_harness (fixed_window_cc (2 * 1448)) in
  Tcp_flow.start h.flow;
  Sim.run ~until:(Time_ns.sec 1) h.sim;
  let delivered = Tcp_receiver.delivered_bytes h.receiver in
  let expected = 2 * 1448 * 100 (* 2 segments per 10ms RTT, 100 RTTs *) in
  Alcotest.(check bool)
    (Printf.sprintf "window-limited (%d vs %d)" delivered expected)
    true
    (abs (delivered - expected) < expected / 5)

let test_flow_fast_retransmit_on_single_loss () =
  let dropped = ref false in
  let filter pkt =
    match pkt.Packet.payload with
    | Packet.Data d when d.Packet.seq = 20 * 1448 && not !dropped ->
      dropped := true;
      false
    | _ -> true
  in
  let config = { Tcp_flow.default_config with app_limit_bytes = Some 300_000 } in
  let h = make_harness ~config ~filter (fixed_window_cc 30_000) in
  Tcp_flow.start h.flow;
  Sim.run ~until:(Time_ns.sec 5) h.sim;
  Alcotest.(check int) "completed despite loss" 300_000
    (Tcp_receiver.delivered_bytes h.receiver);
  Alcotest.(check int) "exactly one retransmit" 1 (Tcp_flow.retransmits h.flow);
  Alcotest.(check int) "one recovery" 1 (Tcp_flow.recoveries h.flow);
  Alcotest.(check int) "no rto" 0 (Tcp_flow.timeouts h.flow)

let test_flow_loss_notifies_cc_once_per_window () =
  let losses = ref 0 in
  let cc =
    {
      (fixed_window_cc 60_000) with
      on_loss = (fun _ (ev : Congestion_iface.loss_event) ->
        if ev.Congestion_iface.kind = Congestion_iface.Dup_acks then incr losses);
    }
  in
  (* Drop three packets of the same window once each. *)
  let to_drop = ref [ 10 * 1448; 12 * 1448; 14 * 1448 ] in
  let filter pkt =
    match pkt.Packet.payload with
    | Packet.Data d when List.mem d.Packet.seq !to_drop && not d.Packet.is_retransmit ->
      to_drop := List.filter (fun s -> s <> d.Packet.seq) !to_drop;
      false
    | _ -> true
  in
  let config = { Tcp_flow.default_config with app_limit_bytes = Some 300_000 } in
  let h = make_harness ~config ~filter cc in
  Tcp_flow.start h.flow;
  Sim.run ~until:(Time_ns.sec 5) h.sim;
  Alcotest.(check int) "delivered" 300_000 (Tcp_receiver.delivered_bytes h.receiver);
  Alcotest.(check int) "one decrease for the burst" 1 !losses;
  Alcotest.(check int) "three retransmits" 3 (Tcp_flow.retransmits h.flow)

let test_flow_rto_on_blackhole () =
  (* Tail loss: the last two segments of the transfer vanish, and with no
     data behind them there are no duplicate ACKs — only the RTO can
     recover. *)
  let sent = ref 0 in
  let filter pkt =
    match pkt.Packet.payload with
    | Packet.Data d when not d.Packet.is_retransmit ->
      incr sent;
      !sent < 29
    | _ -> true
  in
  let rto_seen = ref false in
  let cc =
    {
      (fixed_window_cc 60_000) with
      on_loss = (fun ctl (ev : Congestion_iface.loss_event) ->
        if ev.Congestion_iface.kind = Congestion_iface.Rto then begin
          rto_seen := true;
          ctl.Congestion_iface.set_cwnd ctl.Congestion_iface.mss
        end);
    }
  in
  let config = { Tcp_flow.default_config with app_limit_bytes = Some (30 * 1448) } in
  let h = make_harness ~config ~filter cc in
  Tcp_flow.start h.flow;
  Sim.run ~until:(Time_ns.sec 20) h.sim;
  Alcotest.(check bool) "rto fired" true !rto_seen;
  Alcotest.(check bool) "timeouts counted" true (Tcp_flow.timeouts h.flow >= 1);
  Alcotest.(check int) "transfer finished after blackhole" (30 * 1448)
    (Tcp_receiver.delivered_bytes h.receiver)

let test_flow_pacing_limits_rate () =
  let cc =
    {
      (Congestion_iface.noop "paced") with
      on_init =
        (fun ctl ->
          (* 100 kB/s pacing on a 10 Mbit/s link. The rate must be set
             before the window opens or the first try_send bursts
             unpaced — same ordering a real rate-based CC must follow. *)
          ctl.Congestion_iface.set_rate 100_000.0;
          ctl.Congestion_iface.set_cwnd 1_000_000);
    }
  in
  let h = make_harness cc in
  Tcp_flow.start h.flow;
  Sim.run ~until:(Time_ns.sec 2) h.sim;
  let delivered = Tcp_receiver.delivered_bytes h.receiver in
  Alcotest.(check bool)
    (Printf.sprintf "paced to ~200kB (%d)" delivered)
    true
    (delivered > 150_000 && delivered < 260_000)

let test_flow_ack_event_contents () =
  let events = ref [] in
  let cc =
    {
      (fixed_window_cc 20_000) with
      on_ack = (fun _ ev -> events := ev :: !events);
    }
  in
  let config = { Tcp_flow.default_config with app_limit_bytes = Some 20_000 } in
  let h = make_harness ~config cc in
  Tcp_flow.start h.flow;
  Sim.run ~until:(Time_ns.sec 2) h.sim;
  Alcotest.(check bool) "events seen" true (!events <> []);
  let with_rtt =
    List.filter (fun (e : Congestion_iface.ack_event) -> e.Congestion_iface.rtt_sample <> None)
      !events
  in
  Alcotest.(check bool) "rtt samples present" true (with_rtt <> []);
  List.iter
    (fun (e : Congestion_iface.ack_event) ->
      match e.Congestion_iface.rtt_sample with
      | Some rtt ->
        (* Base RTT is 10ms (2 x 5ms propagation) plus serialization. *)
        Alcotest.(check bool) "rtt >= base" true (Time_ns.compare rtt (Time_ns.ms 10) >= 0)
      | None -> ())
    !events

(* --- Ccp_ext: the CCP datapath extension --- *)

(* A fabricated ctl whose knobs are plain refs, so program execution can
   be observed without a full TCP flow. *)
let fake_ctl sim ~flow =
  let cwnd = ref 14_480 and rate = ref 0.0 in
  let ctl : Congestion_iface.ctl =
    {
      flow;
      mss = 1448;
      now = (fun () -> Sim.now sim);
      get_cwnd = (fun () -> !cwnd);
      set_cwnd = (fun b -> cwnd := max 1448 b);
      get_rate = (fun () -> !rate);
      set_rate = (fun r -> rate := r);
      srtt = (fun () -> Some (Time_ns.ms 10));
      latest_rtt = (fun () -> Some (Time_ns.ms 11));
      min_rtt = (fun () -> Some (Time_ns.ms 10));
      inflight = (fun () -> 5000);
      send_rate_ewma = (fun () -> Some 1e6);
      delivery_rate_ewma = (fun () -> Some 9e5);
    }
  in
  (ctl, cwnd, rate)

let make_ccp_env () =
  let sim = Sim.create () in
  let channel = Ccp_ipc.Channel.create ~sim ~latency:(Ccp_ipc.Latency_model.Constant (Time_ns.us 20)) () in
  let ext = Ccp_ext.create ~sim ~channel () in
  let to_agent = ref [] in
  Ccp_ipc.Channel.on_receive channel Ccp_ipc.Channel.Agent_end (fun msg ->
      to_agent := msg :: !to_agent);
  let send_to_datapath msg = Ccp_ipc.Channel.send channel ~from:Ccp_ipc.Channel.Agent_end msg in
  (sim, ext, to_agent, send_to_datapath)

let ack_event ?(bytes = 1448) ?(rtt = Time_ns.ms 11) ?(ecn = false) ~now () :
    Congestion_iface.ack_event =
  {
    now;
    bytes_acked = bytes;
    rtt_sample = Some rtt;
    ecn_echo = ecn;
    send_rate = Some 1e6;
    delivery_rate = Some 9e5;
    inflight_after = 5000;
  }

let test_ccp_ext_ready_and_install () =
  let sim, ext, to_agent, send = make_ccp_env () in
  let ctl, cwnd, rate = fake_ctl sim ~flow:3 in
  let cc = Ccp_ext.congestion_control ext in
  cc.Congestion_iface.on_init ctl;
  Sim.run sim;
  (match !to_agent with
  | [ Ccp_ipc.Message.Ready { flow = 3; mss = 1448; init_cwnd = 14480 } ] -> ()
  | _ -> Alcotest.fail "expected Ready");
  let program =
    Ccp_lang.Parser.parse_program "Cwnd(20000).Rate(500000).WaitRtts(1.0).Report()"
  in
  send (Ccp_ipc.Message.Install { flow = 3; program });
  (* The program repeats forever by design; run a bounded slice. *)
  Sim.run ~until:(Time_ns.add (Sim.now sim) (Time_ns.ms 100)) sim;
  Alcotest.(check int) "cwnd applied" 20_000 !cwnd;
  Alcotest.(check (float 1e-9)) "rate applied" 500_000.0 !rate;
  Alcotest.(check int) "install accepted" 1 (Ccp_ext.installs_accepted ext);
  Alcotest.(check bool) "program stored" true (Ccp_ext.installed_program ext ~flow:3 <> None)

let test_ccp_ext_report_cycle () =
  let sim, ext, to_agent, send = make_ccp_env () in
  let ctl, _, _ = fake_ctl sim ~flow:1 in
  let cc = Ccp_ext.congestion_control ext in
  cc.Congestion_iface.on_init ctl;
  let program =
    Ccp_lang.Parser.parse_program
      "Measure(fold { init { acked = 0 } update { acked = acked + pkt.bytes_acked } \
       }).WaitRtts(1.0).Report()"
  in
  send (Ccp_ipc.Message.Install { flow = 1; program });
  Sim.run ~until:(Time_ns.add (Sim.now sim) (Time_ns.ms 5)) sim;
  to_agent := [];
  (* Feed three ACKs, then let the WaitRtts(1.0) = 10ms timer trigger the
     report. *)
  cc.Congestion_iface.on_ack ctl (ack_event ~now:(Sim.now sim) ());
  cc.Congestion_iface.on_ack ctl (ack_event ~now:(Sim.now sim) ());
  cc.Congestion_iface.on_ack ctl (ack_event ~now:(Sim.now sim) ());
  Sim.run ~until:(Time_ns.add (Sim.now sim) (Time_ns.ms 50)) sim;
  let reports =
    List.filter_map
      (function Ccp_ipc.Message.Report r -> Some r | _ -> None)
      !to_agent
  in
  Alcotest.(check bool) "got reports" true (reports <> []);
  let r = List.hd (List.rev reports) in
  let field = Ccp_agent.Algorithm.field r in
  Alcotest.(check (option (float 1e-9))) "fold acked" (Some (3.0 *. 1448.0)) (field "acked");
  Alcotest.(check (option (float 1e-9))) "reserved _mss" (Some 1448.0) (field "_mss");
  Alcotest.(check (option (float 1e-9))) "reserved _packets" (Some 3.0) (field "_packets");
  Alcotest.(check bool) "repeats" true (Ccp_ext.reports_sent ext >= 1)

let test_ccp_ext_vector_mode () =
  let sim, ext, to_agent, send = make_ccp_env () in
  let ctl, _, _ = fake_ctl sim ~flow:1 in
  let cc = Ccp_ext.congestion_control ext in
  cc.Congestion_iface.on_init ctl;
  send
    (Ccp_ipc.Message.Install
       {
         flow = 1;
         program =
           Ccp_lang.Parser.parse_program "Measure(rtt_us, bytes_acked).WaitRtts(1.0).Report()";
       });
  Sim.run ~until:(Time_ns.add (Sim.now sim) (Time_ns.ms 5)) sim;
  to_agent := [];
  cc.Congestion_iface.on_ack ctl (ack_event ~rtt:(Time_ns.ms 12) ~now:(Sim.now sim) ());
  cc.Congestion_iface.on_ack ctl (ack_event ~rtt:(Time_ns.ms 13) ~now:(Sim.now sim) ());
  Sim.run ~until:(Time_ns.add (Sim.now sim) (Time_ns.ms 50)) sim;
  let vectors =
    List.filter_map
      (function Ccp_ipc.Message.Report_vector v -> Some v | _ -> None)
      !to_agent
  in
  Alcotest.(check bool) "vector report" true (vectors <> []);
  let v = List.hd (List.rev vectors) in
  Alcotest.(check int) "rows" 2 (Array.length v.Ccp_ipc.Message.rows);
  Alcotest.(check (array string)) "columns" [| "rtt_us"; "bytes_acked" |]
    v.Ccp_ipc.Message.columns;
  Alcotest.(check (float 1e-6)) "first rtt" 12_000.0 v.Ccp_ipc.Message.rows.(0).(0)

let test_ccp_ext_urgent_on_loss () =
  let sim, ext, to_agent, _ = make_ccp_env () in
  let ctl, cwnd, _ = fake_ctl sim ~flow:1 in
  let cc = Ccp_ext.congestion_control ext in
  cc.Congestion_iface.on_init ctl;
  Sim.run sim;
  to_agent := [];
  cc.Congestion_iface.on_loss ctl
    { kind = Congestion_iface.Dup_acks; at = Sim.now sim; bytes_lost_estimate = 1448 };
  cc.Congestion_iface.on_loss ctl
    { kind = Congestion_iface.Rto; at = Sim.now sim; bytes_lost_estimate = 1448 };
  Sim.run sim;
  let kinds =
    List.filter_map
      (function Ccp_ipc.Message.Urgent u -> Some u.Ccp_ipc.Message.kind | _ -> None)
      !to_agent
  in
  Alcotest.(check bool) "dup-ack urgent" true (List.mem Ccp_ipc.Message.Dup_ack_loss kinds);
  Alcotest.(check bool) "timeout urgent" true (List.mem Ccp_ipc.Message.Timeout kinds);
  (* The datapath collapses the window locally on RTO. *)
  Alcotest.(check int) "rto safety" 1448 !cwnd;
  Alcotest.(check int) "urgents counted" 2 (Ccp_ext.urgents_sent ext)

let test_ccp_ext_rejects_invalid_program () =
  let sim, ext, _, send = make_ccp_env () in
  let ctl, cwnd, _ = fake_ctl sim ~flow:1 in
  (Ccp_ext.congestion_control ext).Congestion_iface.on_init ctl;
  Sim.run sim;
  (* A repeating program with no wait would spin; validation rejects it. *)
  let bad = Ccp_lang.Ast.program [ Ccp_lang.Ast.Cwnd (Ccp_lang.Ast.Const 50_000.0) ] in
  send (Ccp_ipc.Message.Install { flow = 1; program = bad });
  Sim.run sim;
  Alcotest.(check int) "rejected" 1 (Ccp_ext.installs_rejected ext);
  Alcotest.(check int) "not applied" 14_480 !cwnd

(* One report of [Prog.std_fold] as the datapath puts it on the wire:
   tag 1, the flow, the 8-byte id of its layout (the seven fold fields
   in init order, then the eleven reserved fields), the value count,
   then each value as an IEEE float, and not one field name. Frozen as
   hex, so neither the report layout nor the codec can move a byte. *)
let std_fold_report_hex =
  "01051990fce1d9bdf13012\
   0000000000a0b6400000000000a0a64000000000000008400000000040772b41\
   000000008049c34000000000006ac8400000000040dcdf40000000000088d340\
   00000000000000000000000000a09640000000000088c34000000000006ac840\
   000000000088c340000000000088b3400000000080842e410000000040772b41\
   00000000008dc3400000000000000840"

let std_fold_names =
  Array.append
    [| "acked"; "marked"; "pkts"; "maxrate"; "minrtt"; "lastrtt"; "sumrtt" |]
    Ccp_ipc.Message.reserved_names

let hex s = String.concat "" (List.map (Printf.sprintf "%02x") (List.map Char.code (List.of_seq (String.to_seq s))))

let test_std_fold_report_wire_bytes () =
  let sim, ext, to_agent, send = make_ccp_env () in
  let ctl, _, _ = fake_ctl sim ~flow:5 in
  let cc = Ccp_ext.congestion_control ext in
  cc.Congestion_iface.on_init ctl;
  send
    (Ccp_ipc.Message.Install
       { flow = 5; program = Ccp_algorithms.Prog.window_program ~cwnd:20_000 () });
  Sim.run ~until:(Time_ns.add (Sim.now sim) (Time_ns.ms 5)) sim;
  to_agent := [];
  List.iter
    (fun (bytes, rtt_us, ecn) ->
      cc.Congestion_iface.on_ack ctl
        (ack_event ~bytes ~rtt:(Time_ns.us rtt_us) ~ecn ~now:(Sim.now sim) ()))
    [ (1448, 10_250, false); (2896, 9_875, true); (1448, 12_500, false) ];
  Sim.run ~until:(Time_ns.add (Sim.now sim) (Time_ns.ms 12)) sim;
  match List.filter_map (function Ccp_ipc.Message.Report r -> Some r | _ -> None) !to_agent with
  | [ r ] ->
    Alcotest.(check bool) "the interned std_fold layout" true
      (r.Ccp_ipc.Message.layout == Ccp_ipc.Message.layout std_fold_names);
    Alcotest.(check string) "wire bytes" std_fold_report_hex
      (hex (Ccp_ipc.Codec.encode (Ccp_ipc.Message.Report r)))
  | rs -> Alcotest.failf "expected one report, got %d" (List.length rs)

let unhex h = String.init (String.length h / 2) (fun i -> Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

(* A steady-state decode of that report: the layout is found by its id
   in the process's table, no name is read and nothing is interned. Over
   what decoding a bare [Closed] costs ([decode_traced]'s reader and
   result pair, and a message box), it allocates only the values array
   (19 words for 18 fields) and the report record (4). *)
let test_std_fold_report_steady_decode () =
  let layout = Ccp_ipc.Message.layout std_fold_names in
  let bytes = unhex std_fold_report_hex in
  let closed = Ccp_ipc.Codec.encode (Ccp_ipc.Message.Closed { flow = 5 }) in
  let words_of s =
    ignore (Ccp_ipc.Codec.decode_traced s);
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (Ccp_ipc.Codec.decode_traced s));
    Gc.minor_words () -. before
  in
  let first = fst (Ccp_ipc.Codec.decode_traced bytes) in
  let interned = Ccp_ipc.Message.layouts_interned () in
  let words = words_of bytes -. words_of closed in
  let second = fst (Ccp_ipc.Codec.decode_traced bytes) in
  Alcotest.(check bool) "decodes as before" true (Ccp_ipc.Message.equal first second);
  (match second with
  | Ccp_ipc.Message.Report r ->
    Alcotest.(check bool) "the interned layout" true (r.Ccp_ipc.Message.layout == layout)
  | m -> Alcotest.failf "not a report: %s" (Ccp_ipc.Message.describe m));
  Alcotest.(check int) "decoding interns nothing" interned (Ccp_ipc.Message.layouts_interned ());
  let bound = 19. +. 4. in
  if words > bound then
    Alcotest.failf "steady-state decode allocated %.0f words over a bare message (bound %.0f)" words
      bound

let test_ccp_ext_set_commands () =
  let sim, ext, _, send = make_ccp_env () in
  let ctl, cwnd, rate = fake_ctl sim ~flow:9 in
  (Ccp_ext.congestion_control ext).Congestion_iface.on_init ctl;
  Sim.run sim;
  send (Ccp_ipc.Message.Set_cwnd { flow = 9; bytes = 99_000 });
  send (Ccp_ipc.Message.Set_rate { flow = 9; bytes_per_sec = 7e6 });
  Sim.run sim;
  Alcotest.(check int) "set_cwnd" 99_000 !cwnd;
  Alcotest.(check (float 1e-9)) "set_rate" 7e6 !rate

let suite =
  [
    ( "datapath.rtt",
      [
        Alcotest.test_case "first sample" `Quick test_rtt_first_sample;
        Alcotest.test_case "smoothing" `Quick test_rtt_smoothing;
        Alcotest.test_case "rto bounds" `Quick test_rtt_rto_bounds;
      ] );
    ( "datapath.rate",
      [ Alcotest.test_case "delivery rate sampling" `Quick test_delivery_rate_sample ] );
    ( "datapath.pacer",
      [
        Alcotest.test_case "disabled" `Quick test_pacer_disabled;
        Alcotest.test_case "timing" `Quick test_pacer_timing;
        Alcotest.test_case "rate change" `Quick test_pacer_rate_change;
      ] );
    ( "datapath.receiver",
      [
        Alcotest.test_case "in order" `Quick test_receiver_in_order;
        Alcotest.test_case "out of order + fill" `Quick test_receiver_out_of_order_and_fill;
        Alcotest.test_case "duplicates" `Quick test_receiver_duplicate_data;
        Alcotest.test_case "ecn echo" `Quick test_receiver_ecn_echo;
        Alcotest.test_case "delayed acks" `Quick test_receiver_delayed_ack;
        Alcotest.test_case "gro batch" `Quick test_receiver_batch;
      ] );
    ( "datapath.flow",
      [
        Alcotest.test_case "bulk transfer completes" `Quick test_flow_transfers_app_limit;
        Alcotest.test_case "window limiting" `Quick test_flow_respects_cwnd;
        Alcotest.test_case "fast retransmit" `Quick test_flow_fast_retransmit_on_single_loss;
        Alcotest.test_case "one decrease per window" `Quick
          test_flow_loss_notifies_cc_once_per_window;
        Alcotest.test_case "rto on blackhole" `Quick test_flow_rto_on_blackhole;
        Alcotest.test_case "pacing" `Quick test_flow_pacing_limits_rate;
        Alcotest.test_case "ack event contents" `Quick test_flow_ack_event_contents;
      ] );
    ( "datapath.ccp_ext",
      [
        Alcotest.test_case "ready + install" `Quick test_ccp_ext_ready_and_install;
        Alcotest.test_case "fold report cycle" `Quick test_ccp_ext_report_cycle;
        Alcotest.test_case "vector mode" `Quick test_ccp_ext_vector_mode;
        Alcotest.test_case "urgent on loss" `Quick test_ccp_ext_urgent_on_loss;
        Alcotest.test_case "invalid program rejected" `Quick test_ccp_ext_rejects_invalid_program;
        Alcotest.test_case "direct set commands" `Quick test_ccp_ext_set_commands;
        Alcotest.test_case "std_fold report wire bytes" `Quick test_std_fold_report_wire_bytes;
        Alcotest.test_case "steady-state report decode" `Quick test_std_fold_report_steady_decode;
      ] );
  ]
