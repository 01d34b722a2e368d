(* Tests for the congestion-control algorithms: the cubic math, Table 1
   metadata, native controllers against a fabricated control handle, and
   the CCP algorithms against a fabricated agent handle. *)

open Ccp_util
open Ccp_datapath
open Ccp_algorithms

(* --- Cubic_math --- *)

let test_int_cbrt_known_values () =
  List.iter
    (fun (x, expected) -> Alcotest.(check int) (Printf.sprintf "cbrt %d" x) expected
        (Cubic_math.int_cbrt x))
    [ (0, 0); (1, 1); (8, 2); (27, 3); (64, 4); (1000, 10); (1_000_000, 100) ]

let test_int_cbrt_accuracy () =
  (* The kernel's approximation stays within ~2% of the exact root. *)
  let err = Cubic_math.max_error_vs_float ~upto:100_000_000 ~samples:5_000 in
  Alcotest.(check bool) (Printf.sprintf "max rel err %.4f" err) true (err < 0.02)

let test_int_cbrt_rejects_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Cubic_math.int_cbrt: negative")
    (fun () -> ignore (Cubic_math.int_cbrt (-1)))

let test_float_cbrt () =
  Alcotest.(check (float 1e-9)) "cbrt 8" 2.0 (Cubic_math.float_cbrt 8.0);
  Alcotest.(check (float 1e-9)) "clamped" 0.0 (Cubic_math.float_cbrt (-5.0))

(* --- Primitives_table --- *)

(* poor man's substring check, to avoid a dependency *)
let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_table1_contents () =
  Alcotest.(check int) "eleven protocols" 11 (List.length Primitives_table.rows);
  let rendered = Primitives_table.render () in
  List.iter
    (fun (row : Primitives_table.row) ->
      Alcotest.(check bool) (row.protocol ^ " present") true (contains rendered row.protocol))
    Primitives_table.rows;
  Alcotest.(check int) "seven implemented" 7 (Primitives_table.implemented_count ())

(* --- native controllers against a fabricated ctl --- *)

let fake_ctl ?(mss = 1448) ?(cwnd = 14_480) () =
  let cwnd = ref cwnd and rate = ref 0.0 and now = ref Time_ns.zero in
  let ctl : Congestion_iface.ctl =
    {
      flow = 1;
      mss;
      now = (fun () -> !now);
      get_cwnd = (fun () -> !cwnd);
      set_cwnd = (fun b -> cwnd := max mss b);
      get_rate = (fun () -> !rate);
      set_rate = (fun r -> rate := r);
      srtt = (fun () -> Some (Time_ns.ms 10));
      latest_rtt = (fun () -> Some (Time_ns.ms 11));
      min_rtt = (fun () -> Some (Time_ns.ms 10));
      inflight = (fun () -> !cwnd);
      send_rate_ewma = (fun () -> None);
      delivery_rate_ewma = (fun () -> None);
    }
  in
  (ctl, cwnd, rate, now)

let ack ?(bytes = 1448) ?(ecn = false) ~now () : Congestion_iface.ack_event =
  {
    now;
    bytes_acked = bytes;
    rtt_sample = Some (Time_ns.ms 11);
    ecn_echo = ecn;
    send_rate = None;
    delivery_rate = None;
    inflight_after = 0;
  }

let test_native_reno_slow_start_and_loss () =
  let ctl, cwnd, _, now = fake_ctl () in
  let cc = Native_reno.create () in
  cc.Congestion_iface.on_init ctl;
  let before = !cwnd in
  cc.Congestion_iface.on_ack ctl (ack ~now:!now ());
  Alcotest.(check int) "slow start grows by acked" (before + 1448) !cwnd;
  (* Congestion event halves. *)
  let pre_loss = !cwnd in
  cc.Congestion_iface.on_loss ctl
    { kind = Congestion_iface.Dup_acks; at = !now; bytes_lost_estimate = 1448 };
  Alcotest.(check int) "halved" (pre_loss / 2) !cwnd;
  (* No growth during recovery. *)
  cc.Congestion_iface.on_ack ctl (ack ~now:!now ());
  Alcotest.(check int) "frozen in recovery" (pre_loss / 2) !cwnd;
  cc.Congestion_iface.on_exit_recovery ctl;
  (* RTO collapses to one mss. *)
  cc.Congestion_iface.on_loss ctl
    { kind = Congestion_iface.Rto; at = !now; bytes_lost_estimate = 1448 };
  Alcotest.(check int) "rto collapse" 1448 !cwnd

let test_native_reno_congestion_avoidance () =
  let ctl, cwnd, _, now = fake_ctl ~cwnd:100_000 () in
  let cc = Native_reno.create_with ~ssthresh_init:50_000 () in
  cc.Congestion_iface.on_init ctl;
  (* Above ssthresh: one mss per window's worth of acked bytes. *)
  let before = !cwnd in
  let acks_per_window = (before + 1447) / 1448 in
  for _ = 1 to acks_per_window do
    cc.Congestion_iface.on_ack ctl (ack ~now:!now ())
  done;
  Alcotest.(check int) "one mss per rtt" (before + 1448) !cwnd

let test_native_reno_ecn_reaction () =
  let ctl, cwnd, _, now = fake_ctl ~cwnd:100_000 () in
  let cc = Native_reno.create () in
  cc.Congestion_iface.on_init ctl;
  now := Time_ns.ms 100;
  cc.Congestion_iface.on_ack ctl (ack ~ecn:true ~now:!now ());
  Alcotest.(check int) "ecn halves" 50_000 !cwnd;
  (* Second echo within the same RTT is ignored. *)
  cc.Congestion_iface.on_ack ctl (ack ~ecn:true ~now:!now ());
  Alcotest.(check bool) "once per rtt" true (!cwnd >= 50_000)

let test_native_cubic_grows_toward_wmax () =
  let ctl, cwnd, _, now = fake_ctl ~cwnd:50_000 () in
  let cc = Native_cubic.create () in
  cc.Congestion_iface.on_init ctl;
  (* Force a loss to establish w_last_max, then grow. *)
  now := Time_ns.ms 10;
  cc.Congestion_iface.on_loss ctl
    { kind = Congestion_iface.Dup_acks; at = !now; bytes_lost_estimate = 1448 };
  let after_cut = !cwnd in
  Alcotest.(check bool) "beta cut" true (after_cut < 50_000 && after_cut >= 30_000);
  cc.Congestion_iface.on_exit_recovery ctl;
  (* Ack a few windows over simulated seconds: cubic climbs back. *)
  for i = 1 to 400 do
    now := Time_ns.add !now (Time_ns.ms 5);
    ignore i;
    cc.Congestion_iface.on_ack ctl (ack ~now:!now ())
  done;
  Alcotest.(check bool)
    (Printf.sprintf "recovered toward wmax (%d)" !cwnd)
    true (!cwnd > after_cut)

let test_native_vegas_steady () =
  let ctl, cwnd, _, now = fake_ctl ~cwnd:50_000 () in
  let cc = Native_vegas.create () in
  cc.Congestion_iface.on_init ctl;
  (* With rtt == base rtt (no queueing) vegas should grow. *)
  let before = !cwnd in
  for i = 1 to 50 do
    now := Time_ns.add !now (Time_ns.ms 1);
    ignore i;
    cc.Congestion_iface.on_ack ctl (ack ~now:!now ())
  done;
  Alcotest.(check bool) "grows when queue empty" true (!cwnd > before)

let test_native_htcp_alpha_grows_with_time () =
  let ctl, cwnd, _, now = fake_ctl ~cwnd:100_000 () in
  let cc = Native_htcp.create () in
  cc.Congestion_iface.on_init ctl;
  (* A loss starts the elapsed-time clock and sets ssthresh below cwnd. *)
  now := Time_ns.sec 1;
  cc.Congestion_iface.on_loss ctl
    { kind = Congestion_iface.Dup_acks; at = !now; bytes_lost_estimate = 1448 };
  cc.Congestion_iface.on_exit_recovery ctl;
  let grow ~seconds =
    let before = !cwnd in
    now := Time_ns.add !now (Time_ns.sec seconds);
    (* one window's worth of ACKs = one additive-increase step *)
    let acks = (before + 1447) / 1448 in
    for _ = 1 to acks do
      cc.Congestion_iface.on_ack ctl (ack ~now:!now ())
    done;
    !cwnd - before
  in
  let early = grow ~seconds:0 in
  let late = grow ~seconds:10 in
  Alcotest.(check bool)
    (Printf.sprintf "increase accelerates (%d then %d)" early late)
    true (late > early && early >= 1448)

let test_native_htcp_adaptive_backoff () =
  let ctl, cwnd, _, now = fake_ctl ~cwnd:100_000 () in
  let cc = Native_htcp.create () in
  cc.Congestion_iface.on_init ctl;
  (* min RTT 10ms (from the fake ctl); report a max RTT of 12.5ms ->
     beta = 0.8 (the clamp ceiling). *)
  cc.Congestion_iface.on_ack ctl
    { (ack ~now:!now ()) with Congestion_iface.rtt_sample = Some (Time_ns.of_float_sec 0.0125) };
  cc.Congestion_iface.on_loss ctl
    { kind = Congestion_iface.Dup_acks; at = !now; bytes_lost_estimate = 1448 };
  (* The ACK above grew the window by one MSS (slow start) first:
     0.8 * (100000 + 1448) = 81158. *)
  Alcotest.(check int) "gentle cut when RTTs are flat" 81_158 !cwnd

let test_native_illinois_delay_scales_increase () =
  let ctl, cwnd, _, now = fake_ctl ~cwnd:100_000 () in
  let cc = Native_illinois.create_with ~alpha_max:10.0 ~alpha_min:0.3 () in
  cc.Congestion_iface.on_init ctl;
  (* Force congestion-avoidance mode. *)
  cc.Congestion_iface.on_loss ctl
    { kind = Congestion_iface.Dup_acks; at = !now; bytes_lost_estimate = 1448 };
  cc.Congestion_iface.on_exit_recovery ctl;
  let window_of_acks ~rtt =
    let before = !cwnd in
    let acks = (before + 1447) / 1448 in
    for _ = 1 to acks do
      now := Time_ns.add !now (Time_ns.us 100);
      cc.Congestion_iface.on_ack ctl
        { (ack ~now:!now ()) with Congestion_iface.rtt_sample = Some rtt }
    done;
    !cwnd - before
  in
  (* Near-base RTT: aggressive increase (alpha_max segments/RTT). *)
  let fast = window_of_acks ~rtt:(Time_ns.ms 10) in
  (* Heavily queued RTT (3x base): increase collapses toward alpha_min. *)
  let slow = window_of_acks ~rtt:(Time_ns.ms 30) in
  Alcotest.(check bool)
    (Printf.sprintf "delay slows increase (%d vs %d)" fast slow)
    true
    (fast >= 8 * 1448 && slow <= 2 * 1448)

let test_native_illinois_delay_scales_backoff () =
  let ctl, cwnd, _, now = fake_ctl ~cwnd:100_000 () in
  let cc = Native_illinois.create () in
  cc.Congestion_iface.on_init ctl;
  (* Low delay at loss time: beta stays at beta_min = 1/8. *)
  for _ = 1 to 10 do
    cc.Congestion_iface.on_ack ctl
      { (ack ~now:!now ()) with Congestion_iface.rtt_sample = Some (Time_ns.ms 10) }
  done;
  cc.Congestion_iface.on_loss ctl
    { kind = Congestion_iface.Dup_acks; at = !now; bytes_lost_estimate = 1448 };
  Alcotest.(check bool)
    (Printf.sprintf "gentle cut at low delay (%d)" !cwnd)
    true
    (!cwnd >= 85_000)

let test_native_dctcp_proportional_cut () =
  let ctl, cwnd, _, now = fake_ctl ~cwnd:100_000 () in
  let cc = Native_dctcp.create_with ~g:0.5 ~initial_alpha:1.0 () in
  cc.Congestion_iface.on_init ctl;
  (* One fully-marked window: alpha stays high, cut ~alpha/2. *)
  for i = 1 to 20 do
    now := Time_ns.add !now (Time_ns.ms 1);
    ignore i;
    cc.Congestion_iface.on_ack ctl (ack ~ecn:true ~now:!now ())
  done;
  Alcotest.(check bool)
    (Printf.sprintf "cut proportionally (%d)" !cwnd)
    true
    (!cwnd < 100_000 && !cwnd > 40_000)

(* --- CCP algorithms against a fabricated handle --- *)

let fake_handle ?(mss = 1448) ?(init_cwnd = 14_480) () =
  let installs = ref [] in
  let cwnds = ref [] and rates = ref [] in
  let now = ref 0.0 in
  let handle : Ccp_agent.Algorithm.handle =
    {
      info = { Ccp_agent.Algorithm.flow = 1; mss; init_cwnd };
      install = (fun p -> installs := p :: !installs);
      install_text = (fun s -> installs := Ccp_lang.Parser.parse_program s :: !installs);
      set_cwnd = (fun b -> cwnds := b :: !cwnds);
      set_rate = (fun r -> rates := r :: !rates);
      now_us = (fun () -> !now);
    }
  in
  (handle, installs, cwnds, now)

let report fields : Ccp_ipc.Message.report =
  { flow = 1; names = Array.of_list (List.map fst fields); values = Array.of_list (List.map snd fields) }

let std_report ?(acked = 14_480.0) ?(marked = 0.0) ?(srtt = 10_000.0) () =
  report
    [
      ("acked", acked); ("marked", marked); ("pkts", acked /. 1448.0);
      ("maxrate", 1e6); ("minrtt", 10_000.0); ("lastrtt", srtt); ("sumrtt", srtt *. 10.0);
      ("_cwnd", 14_480.0); ("_rate", 0.0); ("_mss", 1448.0); ("_srtt_us", srtt);
      ("_rtt_us", srtt); ("_minrtt_us", 10_000.0); ("_inflight_bytes", 14_480.0);
      ("_send_rate", 1e6); ("_recv_rate", 9e5); ("_now_us", 10_000.0); ("_packets", 10.0);
    ]

let program_cwnd (p : Ccp_lang.Ast.program) =
  List.find_map
    (function Ccp_lang.Ast.Cwnd (Ccp_lang.Ast.Const f) -> Some (int_of_float f) | _ -> None)
    p.Ccp_lang.Ast.prims

(* Reno installs one measurement program with no [Cwnd] at join, and
   sends every window with [set_cwnd]. *)
let check_reno_installs installs =
  Alcotest.(check int) "one install" 1 (List.length !installs);
  Alcotest.(check bool) "install sets no window" false
    (List.exists
       (function Ccp_lang.Ast.Cwnd _ -> true | _ -> false)
       (List.hd !installs).Ccp_lang.Ast.prims)

let test_ccp_reno_report_growth () =
  let handle, installs, cwnds, _ = fake_handle () in
  let algo = Ccp_reno.create () in
  let handlers = algo.Ccp_agent.Algorithm.make handle in
  handlers.Ccp_agent.Algorithm.on_ready ();
  Alcotest.(check (list int)) "initial cwnd sent on ready" [ 14_480 ] !cwnds;
  (* Slow start: the window doubles per report. *)
  handlers.Ccp_agent.Algorithm.on_report (std_report ());
  Alcotest.(check (list int)) "doubled" [ 28_960; 14_480 ] !cwnds;
  check_reno_installs installs

let test_ccp_reno_urgent_halves () =
  let handle, installs, cwnds, _ = fake_handle ~init_cwnd:100_000 () in
  let handlers = (Ccp_reno.create ()).Ccp_agent.Algorithm.make handle in
  handlers.Ccp_agent.Algorithm.on_ready ();
  handlers.Ccp_agent.Algorithm.on_urgent
    { flow = 1; kind = Ccp_ipc.Message.Dup_ack_loss; cwnd_at_event = 100_000; inflight_at_event = 0 };
  Alcotest.(check (list int)) "halved" [ 50_000; 100_000 ] !cwnds;
  handlers.Ccp_agent.Algorithm.on_urgent
    { flow = 1; kind = Ccp_ipc.Message.Timeout; cwnd_at_event = 50_000; inflight_at_event = 0 };
  Alcotest.(check (list int)) "timeout -> 1 mss" [ 1448; 50_000; 100_000 ] !cwnds;
  check_reno_installs installs

let test_ccp_cubic_uses_float_math () =
  let handle, installs, _, now = fake_handle ~init_cwnd:100_000 () in
  let handlers = (Ccp_cubic.create ()).Ccp_agent.Algorithm.make handle in
  handlers.Ccp_agent.Algorithm.on_ready ();
  (* Loss establishes WlastMax = ~69 segments. *)
  handlers.Ccp_agent.Algorithm.on_urgent
    { flow = 1; kind = Ccp_ipc.Message.Dup_ack_loss; cwnd_at_event = 100_000; inflight_at_event = 0 };
  let after_cut = Option.get (program_cwnd (List.hd !installs)) in
  Alcotest.(check int) "beta=0.7 cut" 70_000 after_cut;
  (* Reports over time climb the cubic curve but never jump past Wmax fast. *)
  let last = ref after_cut in
  for i = 1 to 30 do
    now := float_of_int i *. 10_000.0;
    handlers.Ccp_agent.Algorithm.on_report (std_report ~acked:(float_of_int !last) ());
    let c = Option.get (program_cwnd (List.hd !installs)) in
    Alcotest.(check bool) "monotone before Wmax" true (c >= !last);
    last := c
  done;
  Alcotest.(check bool)
    (Printf.sprintf "grew (final %d)" !last)
    true (!last > after_cut)

let test_ccp_vegas_fold_program_shape () =
  let handle, installs, _, _ = fake_handle () in
  let handlers = (Ccp_vegas.create `Fold).Ccp_agent.Algorithm.make handle in
  handlers.Ccp_agent.Algorithm.on_ready ();
  match (List.hd !installs).Ccp_lang.Ast.prims with
  | Ccp_lang.Ast.Measure (Ccp_lang.Ast.Fold def) :: _ ->
    Alcotest.(check bool) "has basertt" true (List.mem_assoc "basertt" def.Ccp_lang.Ast.init);
    Alcotest.(check bool) "has delta" true (List.mem_assoc "delta" def.Ccp_lang.Ast.init);
    (* The program must typecheck. *)
    (match Ccp_lang.Typecheck.check (List.hd !installs) with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "vegas fold program invalid")
  | _ -> Alcotest.fail "expected fold measure"

let test_ccp_vegas_vector_program_shape () =
  let handle, installs, _, _ = fake_handle () in
  let handlers = (Ccp_vegas.create `Vector).Ccp_agent.Algorithm.make handle in
  handlers.Ccp_agent.Algorithm.on_ready ();
  match (List.hd !installs).Ccp_lang.Ast.prims with
  | Ccp_lang.Ast.Measure (Ccp_lang.Ast.Vector fields) :: _ ->
    Alcotest.(check (list string)) "vector fields" [ "rtt_us"; "bytes_acked" ] fields
  | _ -> Alcotest.fail "expected vector measure"

let test_ccp_bbr_probe_cycle () =
  let handle, installs, _, _ = fake_handle () in
  let handlers = (Ccp_bbr.create ()).Ccp_agent.Algorithm.make handle in
  handlers.Ccp_agent.Algorithm.on_ready ();
  (* Startup: growing delivery rates keep doubling. *)
  let bw i = report [ ("maxrate", float_of_int i *. 1e6); ("minrtt", 10_000.0) ] in
  handlers.Ccp_agent.Algorithm.on_report (bw 2);
  handlers.Ccp_agent.Algorithm.on_report (bw 4);
  (* Stall the delivery rate: three flat reports end startup. *)
  handlers.Ccp_agent.Algorithm.on_report (bw 4);
  handlers.Ccp_agent.Algorithm.on_report (bw 4);
  handlers.Ccp_agent.Algorithm.on_report (bw 4);
  (* The installed program must now carry the paper's pulse pattern:
     three Rate prims with gains 1.25/0.75/1.0 and waits 1/1/6. *)
  let program = List.hd !installs in
  let rates =
    List.filter_map
      (function Ccp_lang.Ast.Rate (Ccp_lang.Ast.Const f) -> Some f | _ -> None)
      program.Ccp_lang.Ast.prims
  in
  (match rates with
  | [ up; down; cruise ] ->
    Alcotest.(check (float 1.0)) "pulse up" (1.25 *. cruise) up;
    Alcotest.(check (float 1.0)) "drain" (0.75 *. cruise) down
  | _ -> Alcotest.fail "expected three Rate prims");
  let waits =
    List.filter_map
      (function Ccp_lang.Ast.Wait_rtts (Ccp_lang.Ast.Const f) -> Some f | _ -> None)
      program.Ccp_lang.Ast.prims
  in
  Alcotest.(check (list (float 1e-9))) "waits 1/1/6" [ 1.0; 1.0; 6.0 ] waits

let test_ccp_dctcp_alpha () =
  let handle, installs, _, _ = fake_handle ~init_cwnd:100_000 () in
  let handlers = (Ccp_dctcp.create_with ~g:1.0 ~initial_alpha:0.0 ()).Ccp_agent.Algorithm.make handle in
  handlers.Ccp_agent.Algorithm.on_ready ();
  (* Fully marked window with g=1: alpha jumps to 1, cut by half. *)
  handlers.Ccp_agent.Algorithm.on_report (std_report ~acked:100_000.0 ~marked:100_000.0 ());
  Alcotest.(check (option int)) "alpha=1 cut" (Some 50_000) (program_cwnd (List.hd !installs));
  (* Unmarked window afterwards: growth resumes (slow start doubles). *)
  handlers.Ccp_agent.Algorithm.on_report (std_report ~acked:50_000.0 ());
  Alcotest.(check bool) "grows again" true
    (Option.get (program_cwnd (List.hd !installs)) > 50_000)

let test_ccp_timely_gradient () =
  let handle, installs, _, _ = fake_handle () in
  ignore installs;
  let handlers = (Ccp_timely.create ()).Ccp_agent.Algorithm.make handle in
  handlers.Ccp_agent.Algorithm.on_ready ();
  let rate_of_program () =
    List.find_map
      (function Ccp_lang.Ast.Rate (Ccp_lang.Ast.Const f) -> Some f | _ -> None)
      (List.hd !installs).Ccp_lang.Ast.prims
  in
  let tr ~rtt = report [ ("pkts", 10.0); ("sumrtt", rtt *. 10.0); ("minrtt", 10_000.0) ] in
  (* Two low-RTT reports: additive increase. *)
  handlers.Ccp_agent.Algorithm.on_report (tr ~rtt:10_100.0);
  let r1 = Option.get (rate_of_program ()) in
  handlers.Ccp_agent.Algorithm.on_report (tr ~rtt:10_100.0);
  let r2 = Option.get (rate_of_program ()) in
  Alcotest.(check bool) "additive increase below t_low" true (r2 > r1);
  (* A big RTT spike (above t_high) forces a multiplicative decrease. *)
  handlers.Ccp_agent.Algorithm.on_report (tr ~rtt:40_000.0);
  let r3 = Option.get (rate_of_program ()) in
  Alcotest.(check bool) "decrease above t_high" true (r3 < r2)

(* Measurement-noise hardening: perturbed RTT samples clamp at 1 ns, so
   reports can carry near-zero rtt aggregates. Timely must ignore them
   outright — feeding them into the gradient divides by ~0. *)
let test_ccp_timely_ignores_near_zero_rtt () =
  let handle, installs, _, _ = fake_handle () in
  let handlers = (Ccp_timely.create ()).Ccp_agent.Algorithm.make handle in
  handlers.Ccp_agent.Algorithm.on_ready ();
  let rate_of_program () =
    Option.get
      (List.find_map
         (function Ccp_lang.Ast.Rate (Ccp_lang.Ast.Const f) -> Some f | _ -> None)
         (List.hd !installs).Ccp_lang.Ast.prims)
  in
  let tr ~rtt ~minrtt = report [ ("pkts", 10.0); ("sumrtt", rtt *. 10.0); ("minrtt", minrtt) ] in
  handlers.Ccp_agent.Algorithm.on_report (tr ~rtt:10_100.0 ~minrtt:10_000.0);
  handlers.Ccp_agent.Algorithm.on_report (tr ~rtt:10_100.0 ~minrtt:10_000.0);
  let before = rate_of_program () in
  (* A 1 ns-floor report (0.001 us per packet): must not move the rate,
     poison min_rtt, or leave a bogus prev_rtt behind. *)
  handlers.Ccp_agent.Algorithm.on_report (tr ~rtt:0.001 ~minrtt:0.001);
  Alcotest.(check (float 1e-9)) "near-zero report is a no-op" before (rate_of_program ());
  handlers.Ccp_agent.Algorithm.on_report (tr ~rtt:40_000.0 ~minrtt:10_000.0);
  let after_spike = rate_of_program () in
  Alcotest.(check bool) "spike still decreases sanely" true
    (Float.is_finite after_spike && after_spike > 0.0 && after_spike < before)

(* PCC's monitor-interval length comes from the perturbable srtt; the
   100 us floor must make all sub-floor values indistinguishable, or a
   1 ns srtt inflates measured throughput (and utility) a million-fold. *)
let test_ccp_pcc_floors_tiny_interval () =
  let handle, installs, _, _ = fake_handle () in
  let handlers = (Ccp_pcc.create ()).Ccp_agent.Algorithm.make handle in
  handlers.Ccp_agent.Algorithm.on_ready ();
  let pcc_report ~acked ~srtt_us ~now_us =
    report [ ("acked", acked); ("_now_us", now_us); ("_srtt_us", srtt_us) ]
  in
  let count_reports () =
    List.length
      (List.filter
         (function Ccp_lang.Ast.Report -> true | _ -> false)
         (List.hd !installs).Ccp_lang.Ast.prims)
  in
  (* Two startup cycles whose srtt values both sit under the floor: with
     the clamp the second (more acked bytes per interval) shows higher
     utility, so startup keeps doubling. Without it the first interval
     is 1 ns, its utility dwarfs the second, and PCC wrongly bails into
     probing (a two-report program at a backed-off rate). *)
  handlers.Ccp_agent.Algorithm.on_report (pcc_report ~acked:14_480.0 ~srtt_us:0.001 ~now_us:10_000.0);
  handlers.Ccp_agent.Algorithm.on_report (pcc_report ~acked:28_960.0 ~srtt_us:50.0 ~now_us:20_000.0);
  Alcotest.(check int) "still in startup (one-report program)" 1 (count_reports ());
  let rate =
    Option.get
      (List.find_map
         (function Ccp_lang.Ast.Rate (Ccp_lang.Ast.Const f) -> Some f | _ -> None)
         (List.hd !installs).Ccp_lang.Ast.prims)
  in
  Alcotest.(check (float 1.0)) "doubled twice" (4.0 *. (14_480.0 /. 0.010)) rate

let test_ccp_aimd_tiny () =
  let handle, installs, _, _ = fake_handle () in
  let handlers = (Ccp_aimd.create ()).Ccp_agent.Algorithm.make handle in
  handlers.Ccp_agent.Algorithm.on_ready ();
  handlers.Ccp_agent.Algorithm.on_report (std_report ());
  Alcotest.(check (option int)) "+1 mss" (Some (14_480 + 1448)) (program_cwnd (List.hd !installs));
  handlers.Ccp_agent.Algorithm.on_urgent
    { flow = 1; kind = Ccp_ipc.Message.Dup_ack_loss; cwnd_at_event = 0; inflight_at_event = 0 };
  Alcotest.(check (option int)) "halved" (Some ((14_480 + 1448) / 2))
    (program_cwnd (List.hd !installs))

let test_all_ccp_programs_typecheck () =
  (* Whatever any bundled algorithm installs must be statically valid. *)
  let algorithms =
    [
      Ccp_reno.create (); Ccp_cubic.create (); Ccp_vegas.create `Fold; Ccp_vegas.create `Vector;
      Ccp_bbr.create (); Ccp_dctcp.create (); Ccp_timely.create (); Ccp_pcc.create ();
      Ccp_aimd.create ();
    ]
  in
  List.iter
    (fun (algo : Ccp_agent.Algorithm.t) ->
      let handle, installs, _, _ = fake_handle () in
      let handle =
        {
          handle with
          Ccp_agent.Algorithm.install =
            (fun p ->
              (match Ccp_lang.Typecheck.check p with
              | Ok _ -> ()
              | Error (e :: _) ->
                Alcotest.failf "%s installs invalid program: %a" algo.Ccp_agent.Algorithm.name
                  Ccp_lang.Typecheck.pp_error e
              | Error [] -> assert false);
              installs := p :: !installs);
        }
      in
      let handlers = algo.Ccp_agent.Algorithm.make handle in
      handlers.Ccp_agent.Algorithm.on_ready ();
      Alcotest.(check bool)
        (algo.Ccp_agent.Algorithm.name ^ " installs on ready")
        true (!installs <> []))
    algorithms

let suite =
  [
    ( "algorithms.cubic_math",
      [
        Alcotest.test_case "known cubes" `Quick test_int_cbrt_known_values;
        Alcotest.test_case "accuracy vs float" `Quick test_int_cbrt_accuracy;
        Alcotest.test_case "negative rejected" `Quick test_int_cbrt_rejects_negative;
        Alcotest.test_case "float cbrt" `Quick test_float_cbrt;
      ] );
    ( "algorithms.table1", [ Alcotest.test_case "contents" `Quick test_table1_contents ] );
    ( "algorithms.native",
      [
        Alcotest.test_case "reno slow start + loss" `Quick test_native_reno_slow_start_and_loss;
        Alcotest.test_case "reno congestion avoidance" `Quick
          test_native_reno_congestion_avoidance;
        Alcotest.test_case "reno ecn" `Quick test_native_reno_ecn_reaction;
        Alcotest.test_case "cubic epoch" `Quick test_native_cubic_grows_toward_wmax;
        Alcotest.test_case "vegas growth" `Quick test_native_vegas_steady;
        Alcotest.test_case "htcp alpha over time" `Quick test_native_htcp_alpha_grows_with_time;
        Alcotest.test_case "htcp adaptive backoff" `Quick test_native_htcp_adaptive_backoff;
        Alcotest.test_case "illinois delay-scaled increase" `Quick
          test_native_illinois_delay_scales_increase;
        Alcotest.test_case "illinois delay-scaled backoff" `Quick
          test_native_illinois_delay_scales_backoff;
        Alcotest.test_case "dctcp proportional cut" `Quick test_native_dctcp_proportional_cut;
      ] );
    ( "algorithms.ccp",
      [
        Alcotest.test_case "reno growth per report" `Quick test_ccp_reno_report_growth;
        Alcotest.test_case "reno urgent" `Quick test_ccp_reno_urgent_halves;
        Alcotest.test_case "cubic float math" `Quick test_ccp_cubic_uses_float_math;
        Alcotest.test_case "vegas fold program" `Quick test_ccp_vegas_fold_program_shape;
        Alcotest.test_case "vegas vector program" `Quick test_ccp_vegas_vector_program_shape;
        Alcotest.test_case "bbr probe cycle" `Quick test_ccp_bbr_probe_cycle;
        Alcotest.test_case "dctcp alpha" `Quick test_ccp_dctcp_alpha;
        Alcotest.test_case "timely gradient" `Quick test_ccp_timely_gradient;
        Alcotest.test_case "timely near-zero rtt" `Quick test_ccp_timely_ignores_near_zero_rtt;
        Alcotest.test_case "pcc tiny interval floor" `Quick test_ccp_pcc_floors_tiny_interval;
        Alcotest.test_case "aimd" `Quick test_ccp_aimd_tiny;
        Alcotest.test_case "all programs typecheck" `Quick test_all_ccp_programs_typecheck;
      ] );
  ]
