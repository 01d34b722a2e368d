(* Datapath self-protection tests: static admission control
   ({!Ccp_lang.Limits}), the typecheck and evaluator hardening that rides
   along with it, the runtime guard envelope (clamps + incident
   accounting), and the quarantine-to-native-CC lifecycle — both against
   a fake controller harness and end-to-end through {!Experiment} with
   the one-active-controller invariant sampled mid-run. *)

open Ccp_util
open Ccp_eventsim
open Ccp_net
open Ccp_datapath
open Ccp_core
open Ccp_lang

let reason = Alcotest.testable Limits.pp_reason Limits.equal_reason

let check_reason what expected p =
  match Limits.check p with
  | Ok () -> Alcotest.failf "%s: admitted, expected %s" what (Limits.reason_to_string expected)
  | Error (r, _) -> Alcotest.check reason what expected r

(* --- static admission limits --- *)

let rec deep n = if n = 0 then Ast.Const 1.0 else Ast.Neg (deep (n - 1))

let test_limits_rejections () =
  check_reason "too long" Limits.Program_too_long
    (Ast.program (List.init 300 (fun _ -> Ast.Cwnd (Ast.Const 1.0))));
  check_reason "too deep" Limits.Expr_too_deep
    (Ast.program [ Ast.Cwnd (deep 40); Ast.Wait_rtts (Ast.Const 1.0) ]);
  let wide_fold =
    let fields = List.init 70 (fun i -> (Printf.sprintf "f%d" i, Ast.Const 0.0)) in
    Ast.Measure (Ast.Fold { Ast.init = fields; update = fields })
  in
  check_reason "fold too large" Limits.Fold_too_large
    (Ast.program [ wide_fold; Ast.Wait_rtts (Ast.Const 1.0); Ast.Report ]);
  check_reason "vector too wide" Limits.Vector_too_wide
    (Ast.program
       [
         Ast.Measure (Ast.Vector (List.init 40 (fun _ -> "rtt_us")));
         Ast.Wait_rtts (Ast.Const 1.0);
         Ast.Report;
       ]);
  check_reason "constant wait below floor" Limits.Wait_too_short
    (Ast.program [ Ast.Cwnd (Ast.Const 14480.0); Ast.Wait (Ast.Const 10.0); Ast.Report ]);
  check_reason "constant wait_rtts below floor" Limits.Wait_too_short
    (Ast.program
       [ Ast.Cwnd (Ast.Const 14480.0); Ast.Wait_rtts (Ast.Const 0.05); Ast.Report ])

let test_admit_full_decision () =
  (* [admit] = typecheck + limits: an ill-typed program maps to
     [Invalid_program], and a sane one passes both layers. *)
  (match Limits.admit (Ast.program [ Ast.Cwnd (Ast.Var "no_such_var"); Ast.Wait_rtts (Ast.Const 1.0) ]) with
  | Ok () -> Alcotest.fail "ill-typed program admitted"
  | Error (r, _) -> Alcotest.check reason "ill-typed" Limits.Invalid_program r);
  match Limits.admit (Ccp_algorithms.Prog.window_program ~cwnd:14_480 ()) with
  | Ok () -> ()
  | Error (r, detail) ->
      Alcotest.failf "window program refused: %s (%s)" (Limits.reason_to_string r) detail

(* --- typecheck hardening satellites --- *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let check_typecheck_error what ~sub p =
  match Typecheck.check p with
  | Ok _ -> Alcotest.failf "%s: typechecked, expected an error" what
  | Error errs ->
      if not (List.exists (fun (e : Typecheck.error) -> contains ~sub e.message) errs) then
        Alcotest.failf "%s: no error mentions %S (got: %s)" what sub
          (String.concat " | " (List.map (fun (e : Typecheck.error) -> e.message) errs))

let test_typecheck_rejects_degenerate_prims () =
  check_typecheck_error "Wait(0)" ~sub:"not positive"
    (Ast.program [ Ast.Cwnd (Ast.Const 14480.0); Ast.Wait (Ast.Const 0.0); Ast.Report ]);
  check_typecheck_error "WaitRtts(-1)" ~sub:"not positive"
    (Ast.program [ Ast.Cwnd (Ast.Const 14480.0); Ast.Wait_rtts (Ast.Const (-1.0)); Ast.Report ]);
  check_typecheck_error "empty vector" ~sub:"no fields"
    (Ast.program
       [ Ast.Measure (Ast.Vector []); Ast.Cwnd (Ast.Const 14480.0);
         Ast.Wait_rtts (Ast.Const 1.0); Ast.Report ])

(* --- evaluator totality satellites --- *)

let const_env = { Eval.lookup_var = (fun _ -> None); Eval.lookup_pkt = (fun _ -> None) }

let test_eval_clamps_non_finite () =
  let incidents = Eval.fresh_counter () in
  (* pow overflows to infinity; the clamp must hide it and count it. *)
  let v = Eval.eval ~incidents const_env (Ast.Call ("pow", [ Ast.Const 1e300; Ast.Const 10.0 ])) in
  Alcotest.(check (float 0.0)) "pow overflow clamped" 0.0 v;
  Alcotest.(check bool) "pow overflow counted" true (incidents.Eval.non_finite >= 1);
  (* Division by a denormal overflows without tripping the div-by-zero
     branch — the finiteness clamp is the last line of defence. *)
  let incidents = Eval.fresh_counter () in
  let v = Eval.eval ~incidents const_env (Ast.Bin (Ast.Div, Ast.Const 1.0, Ast.Const 4.9e-324)) in
  Alcotest.(check (float 0.0)) "denormal division clamped" 0.0 v;
  Alcotest.(check int) "denormal division counted" 1 incidents.Eval.non_finite;
  (* Plain div-by-zero still lands in its own counter, not the clamp's. *)
  let incidents = Eval.fresh_counter () in
  let v = Eval.eval ~incidents const_env (Ast.Bin (Ast.Div, Ast.Const 1.0, Ast.Const 0.0)) in
  Alcotest.(check (float 0.0)) "div by zero yields 0" 0.0 v;
  Alcotest.(check int) "div by zero counted" 1 incidents.Eval.div_by_zero;
  Alcotest.(check int) "div by zero is not non-finite" 0 incidents.Eval.non_finite

(* --- datapath harness (no TCP, fake controller) --- *)

let fake_ctl sim ~flow =
  let cwnd = ref 14_480 and rate = ref 0.0 in
  let ctl : Congestion_iface.ctl =
    {
      flow;
      mss = 1448;
      now = (fun () -> Sim.now sim);
      get_cwnd = (fun () -> !cwnd);
      set_cwnd = (fun b -> cwnd := b);
      get_rate = (fun () -> !rate);
      set_rate = (fun r -> rate := r);
      srtt = (fun () -> Some (Time_ns.ms 10));
      latest_rtt = (fun () -> Some (Time_ns.ms 11));
      min_rtt = (fun () -> Some (Time_ns.ms 10));
      inflight = (fun () -> 0);
      send_rate_ewma = (fun () -> None);
      delivery_rate_ewma = (fun () -> None);
    }
  in
  (ctl, cwnd, rate)

let guard_env ?(config = Ccp_ext.default_config) ?obs () =
  let sim = Sim.create () in
  let channel =
    Ccp_ipc.Channel.create ~sim ~latency:(Ccp_ipc.Latency_model.Constant (Time_ns.us 20)) ()
  in
  let to_agent = ref [] in
  Ccp_ipc.Channel.on_receive channel Ccp_ipc.Channel.Agent_end (fun m ->
      to_agent := m :: !to_agent);
  let ext = Ccp_ext.create ~sim ~channel ~config ?obs () in
  let install program ~flow =
    Ccp_ipc.Channel.send channel ~from:Ccp_ipc.Channel.Agent_end
      (Ccp_ipc.Message.Install { flow; program })
  in
  (sim, channel, ext, to_agent, install)

let verdicts msgs =
  List.filter_map
    (function Ccp_ipc.Message.Install_result { verdict; _ } -> Some verdict | _ -> None)
    (List.rev msgs)

let sane_program = Ast.program
    [ Ast.Cwnd (Ast.Bin (Ast.Mul, Ast.Const 10.0, Ast.Var "mss"));
      Ast.Wait_rtts (Ast.Const 1.0); Ast.Report ]

let test_admission_answers_install () =
  let sim, _, ext, to_agent, install = guard_env () in
  let ctl, _, _ = fake_ctl sim ~flow:1 in
  (Ccp_ext.congestion_control ext).Congestion_iface.on_init ctl;
  install Scenarios.Hostile.wait_too_short ~flow:1;
  Sim.run ~until:(Time_ns.ms 1) sim;
  Alcotest.(check int) "rejected count" 1 (Ccp_ext.installs_rejected ext);
  Alcotest.(check bool) "nothing installed" true
    (Ccp_ext.installed_program ext ~flow:1 = None);
  (match verdicts !to_agent with
  | [ Ccp_ipc.Message.Rejected { reason = r; _ } ] ->
      Alcotest.check reason "rejection reason" Limits.Wait_too_short r
  | vs -> Alcotest.failf "expected one rejection, got %d verdicts" (List.length vs));
  install sane_program ~flow:1;
  Sim.run ~until:(Time_ns.ms 2) sim;
  Alcotest.(check int) "accepted count" 1 (Ccp_ext.installs_accepted ext);
  Alcotest.(check bool) "program installed" true
    (Ccp_ext.installed_program ext ~flow:1 <> None);
  match verdicts !to_agent with
  | [ _; Ccp_ipc.Message.Accepted ] -> ()
  | _ -> Alcotest.fail "expected a second, accepting verdict"

let test_guard_clamps_cwnd_and_rate () =
  let sim, _, ext, _, install = guard_env () in
  let ctl, cwnd, rate = fake_ctl sim ~flow:1 in
  (Ccp_ext.congestion_control ext).Congestion_iface.on_init ctl;
  install Scenarios.Hostile.zero_cwnd ~flow:1;
  Sim.run ~until:(Time_ns.ms 50) sim;
  Alcotest.(check int) "cwnd pinned at the 1-segment floor" 1448 !cwnd;
  let g = Ccp_ext.guard_incidents ext ~flow:1 in
  Alcotest.(check bool) "cwnd clamps counted" true (g Ccp_ipc.Message.Cwnd_clamped > 0);
  Alcotest.(check bool) "still under agent control" true
    (Ccp_ext.controller ext ~flow:1 = Some Ccp_ext.Agent_program);
  (* Same flow, new program: absurd rate and window both hit ceilings. *)
  install Scenarios.Hostile.huge_rate ~flow:1;
  Sim.run ~until:(Time_ns.ms 100) sim;
  let guard = Ccp_ext.default_guard in
  Alcotest.(check bool) "rate within ceiling" true
    (!rate <= guard.Ccp_ext.max_rate_bytes_per_sec);
  Alcotest.(check bool) "cwnd within the 1 GiB ceiling" true (!cwnd <= 1 lsl 30);
  let g = Ccp_ext.guard_incidents ext ~flow:1 in
  Alcotest.(check bool) "rate clamps counted" true (g Ccp_ipc.Message.Rate_clamped > 0);
  Alcotest.(check bool) "fresh window after accepted install" true
    (g Ccp_ipc.Message.Cwnd_clamped > 0)

(* The agent's direct commands pass the same envelope as a program's
   results: clamped, counted, and scored toward quarantine. *)
let test_direct_commands_clamped () =
  let direct ?config commands =
    let sim, channel, ext, _, _ = guard_env ?config () in
    let ctl, cwnd, rate = fake_ctl sim ~flow:1 in
    (Ccp_ext.congestion_control ext).Congestion_iface.on_init ctl;
    let seen = ref [] in
    List.iter
      (fun msg ->
        Ccp_ipc.Channel.send channel ~from:Ccp_ipc.Channel.Agent_end msg;
        Sim.run ~until:(Time_ns.add (Sim.now sim) (Time_ns.ms 1)) sim;
        seen := (!cwnd, !rate) :: !seen)
      commands;
    (ext, List.rev !seen)
  in
  let set_cwnd bytes = Ccp_ipc.Message.Set_cwnd { flow = 1; bytes } in
  let set_rate bytes_per_sec = Ccp_ipc.Message.Set_rate { flow = 1; bytes_per_sec } in
  let guard = Ccp_ext.default_guard in
  let ext, seen =
    direct [ set_cwnd 20_000; set_rate 1e6; set_cwnd 0; set_cwnd (1 lsl 40); set_rate nan; set_rate 1e300 ]
  in
  (match seen with
  | [ (c0, _); (_, r0); (c1, _); (c2, _); (_, r1); (_, r2) ] ->
    Alcotest.(check int) "in-envelope window as sent" 20_000 c0;
    Alcotest.(check (float 0.0)) "in-envelope rate as sent" 1e6 r0;
    Alcotest.(check int) "zero window floored at one segment" 1448 c1;
    Alcotest.(check int) "2^40 window capped at 1 GiB" (1 lsl 30) c2;
    Alcotest.(check (float 0.0)) "NaN rate becomes 0" 0.0 r1;
    Alcotest.(check (float 0.0)) "1e300 rate capped" guard.Ccp_ext.max_rate_bytes_per_sec r2
  | _ -> Alcotest.fail "one observation per command");
  let g = Ccp_ext.guard_incidents ext ~flow:1 in
  Alcotest.(check int) "window clamps counted" 2 (g Ccp_ipc.Message.Cwnd_clamped);
  Alcotest.(check int) "rate clamps counted" 2 (g Ccp_ipc.Message.Rate_clamped);
  Alcotest.(check int) "datapath-wide total" 4 (Ccp_ext.guard_incident_total ext);
  (* Armed, the same four commands quarantine the flow. *)
  let config =
    {
      Ccp_ext.default_config with
      guard =
        {
          guard with
          Ccp_ext.quarantine_after = 4;
          quarantine_mode = Some (Ccp_ext.Clamp { cwnd_segments = 2 });
        };
    }
  in
  let ext, _ = direct ~config [ set_cwnd 0; set_cwnd (1 lsl 40); set_rate nan; set_rate 1e300 ] in
  Alcotest.(check bool) "quarantined" true (Ccp_ext.in_quarantine ext ~flow:1);
  Alcotest.(check int) "one quarantine" 1 (Ccp_ext.quarantines_triggered ext)

let test_report_rate_limiter () =
  let sim, _, ext, to_agent, install = guard_env () in
  let ctl, _, _ = fake_ctl sim ~flow:1 in
  (Ccp_ext.congestion_control ext).Congestion_iface.on_init ctl;
  install Scenarios.Hostile.report_spam ~flow:1;
  Sim.run ~until:(Time_ns.ms 1) sim;
  (* The program asks for a report every ~1 us; the envelope allows one
     per 10 us, so at most ~100 fit in the first millisecond. *)
  let reports =
    List.length
      (List.filter (function Ccp_ipc.Message.Report _ -> true | _ -> false) !to_agent)
  in
  Alcotest.(check bool) "reports throttled" true (reports > 0 && reports <= 110);
  let g = Ccp_ext.guard_incidents ext ~flow:1 in
  Alcotest.(check bool) "throttling counted" true (g Ccp_ipc.Message.Report_throttled > 0)

let test_quarantine_lifecycle () =
  let config =
    {
      Ccp_ext.default_config with
      guard =
        {
          Ccp_ext.default_guard with
          quarantine_after = 5;
          quarantine_mode = Some (Ccp_ext.Clamp { cwnd_segments = 2 });
        };
    }
  in
  let sim, channel, ext, to_agent, install = guard_env ~config () in
  let ctl, cwnd, rate = fake_ctl sim ~flow:1 in
  (Ccp_ext.congestion_control ext).Congestion_iface.on_init ctl;
  install Scenarios.Hostile.zero_cwnd ~flow:1;
  (* One incident per ~5 ms loop: five loops trip the threshold. *)
  Sim.run ~until:(Time_ns.ms 100) sim;
  Alcotest.(check bool) "quarantined" true (Ccp_ext.in_quarantine ext ~flow:1);
  Alcotest.(check int) "one quarantine" 1 (Ccp_ext.quarantines_triggered ext);
  Alcotest.(check bool) "controller is the quarantine" true
    (Ccp_ext.controller ext ~flow:1 = Some Ccp_ext.Quarantined);
  Alcotest.(check bool) "offending program cancelled" true
    (Ccp_ext.installed_program ext ~flow:1 = None);
  Alcotest.(check int) "clamp window applied" (2 * 1448) !cwnd;
  Alcotest.(check (float 1e-9)) "pacing disabled" 0.0 !rate;
  (match
     List.find_opt
       (function Ccp_ipc.Message.Quarantined _ -> true | _ -> false)
       !to_agent
   with
  | Some (Ccp_ipc.Message.Quarantined q) ->
      Alcotest.(check bool) "reported incidents reach threshold" true
        (q.Ccp_ipc.Message.incidents >= 5);
      Alcotest.(check string) "dominant incident" "cwnd-clamped"
        (Ccp_ipc.Message.incident_kind_to_string q.Ccp_ipc.Message.dominant)
  | _ -> Alcotest.fail "agent never told about the quarantine");
  (* Knob commands must not release the flow. *)
  Ccp_ipc.Channel.send channel ~from:Ccp_ipc.Channel.Agent_end
    (Ccp_ipc.Message.Set_cwnd { flow = 1; bytes = 60_000 });
  Sim.run ~until:(Time_ns.ms 101) sim;
  Alcotest.(check bool) "set_cwnd ignored while quarantined" true
    (!cwnd = 2 * 1448 && Ccp_ext.in_quarantine ext ~flow:1);
  (* Neither must a re-install that fails admission. *)
  install Scenarios.Hostile.wait_too_short ~flow:1;
  Sim.run ~until:(Time_ns.ms 102) sim;
  Alcotest.(check bool) "rejected install keeps quarantine" true
    (Ccp_ext.in_quarantine ext ~flow:1);
  (* An accepted install atomically wins the flow back. *)
  install sane_program ~flow:1;
  Sim.run ~until:(Time_ns.ms 150) sim;
  Alcotest.(check bool) "quarantine lifted" false (Ccp_ext.in_quarantine ext ~flow:1);
  Alcotest.(check bool) "agent program back in control" true
    (Ccp_ext.controller ext ~flow:1 = Some Ccp_ext.Agent_program);
  Alcotest.(check int) "corrected window running" (10 * 1448) !cwnd;
  Alcotest.(check int) "still just the one quarantine" 1 (Ccp_ext.quarantines_triggered ext)

(* --- one owner per flow --- *)

let ack_event sim : Congestion_iface.ack_event =
  {
    now = Sim.now sim;
    bytes_acked = 1448;
    rtt_sample = Some (Time_ns.ms 10);
    ecn_echo = false;
    send_rate = None;
    delivery_rate = None;
    inflight_after = 0;
  }

(* A native stand-in that counts what it is handed and touches nothing. *)
type stand_in_calls = {
  mutable inits : int;
  mutable acks : int;
  mutable rtos : int;
  mutable dup_acks : int;
  mutable exits : int;
}

let stand_in calls () : Congestion_iface.t =
  {
    name = "stand-in";
    on_init = (fun _ -> calls.inits <- calls.inits + 1);
    on_ack = (fun _ _ -> calls.acks <- calls.acks + 1);
    on_loss =
      (fun _ loss ->
        match loss.Congestion_iface.kind with
        | Congestion_iface.Rto -> calls.rtos <- calls.rtos + 1
        | Congestion_iface.Dup_acks -> calls.dup_acks <- calls.dup_acks + 1);
    on_exit_recovery = (fun _ -> calls.exits <- calls.exits + 1);
  }

(* One flow driven into one owner state: the watchdog and quarantine
   modes it is armed with, the agent's messages at t = 0, and where the
   flow's events must then go. [`Ccp]: ACKs take the CCP path, losses send
   urgents and an RTO collapses the window. [`Stand_in]: the stand-in gets
   every ACK, loss and exit from recovery. [`Pinned]: ACKs are dropped,
   losses send nothing and an RTO still collapses the window. *)
type owner_row = {
  state : string;
  fallback : (stand_in_calls -> Ccp_ext.fallback) option;
  quarantine : (stand_in_calls -> Ccp_ext.fallback_mode) option;
  commands : Ccp_ipc.Message.t list;
  controller : Ccp_ext.controller;
  events : [ `Ccp | `Stand_in | `Pinned ];
  probes : int;  (* watchdog [Ready]s by 35 ms *)
}

let owner_rows =
  (* Watchdog ticks at 10, 20 and 30 ms. *)
  let after = Time_ns.ms 10 in
  let clamp _ = Ccp_ext.Clamp { cwnd_segments = 2 } in
  let native calls = Ccp_ext.Native (stand_in calls) in
  let clamp_fallback _ = Ccp_ext.clamp_fallback ~after ~cwnd_segments:2 in
  let native_fallback calls = Ccp_ext.native_fallback ~after (stand_in calls) in
  let install = Ccp_ipc.Message.Install { flow = 1; program = sane_program } in
  (* One clamp incident, and quarantine is armed at one. *)
  let zero_cwnd = Ccp_ipc.Message.Set_cwnd { flow = 1; bytes = 0 } in
  let row state ?fallback ?quarantine commands controller events probes =
    { state; fallback; quarantine; commands; controller; events; probes }
  in
  [
    row "agent program" [ install ] Ccp_ext.Agent_program `Ccp 0;
    row "clamp fallback" ~fallback:clamp_fallback [] Ccp_ext.Native_fallback `Ccp 3;
    row "native fallback" ~fallback:native_fallback [] Ccp_ext.Native_fallback `Stand_in 3;
    row "clamp quarantine" ~quarantine:clamp [ zero_cwnd ] Ccp_ext.Quarantined `Pinned 0;
    row "native quarantine" ~quarantine:native [ zero_cwnd ] Ccp_ext.Quarantined `Stand_in 0;
    (* The agent's last word is at 20 us, so the ticks at 20 and 30 ms
       find it silent; the watchdog probes but leaves the flow to the
       quarantine. *)
    row "quarantine, silent agent, watchdog armed" ~fallback:native_fallback ~quarantine:clamp
      [ zero_cwnd ] Ccp_ext.Quarantined `Pinned 2;
  ]

let check_owner_row row =
  let calls = { inits = 0; acks = 0; rtos = 0; dup_acks = 0; exits = 0 } in
  let guard =
    match row.quarantine with
    | None -> Ccp_ext.default_guard
    | Some mode ->
      { Ccp_ext.default_guard with quarantine_after = 1; quarantine_mode = Some (mode calls) }
  in
  let config =
    { Ccp_ext.default_config with fallback = Option.map (fun f -> f calls) row.fallback; guard }
  in
  let obs = Ccp_obs.Obs.create ~recorder:false () in
  let sim, channel, ext, to_agent, _ = guard_env ~config ~obs () in
  let ctl, cwnd, _ = fake_ctl sim ~flow:1 in
  let cc = Ccp_ext.congestion_control ext in
  cc.Congestion_iface.on_init ctl;
  List.iter (Ccp_ipc.Channel.send channel ~from:Ccp_ipc.Channel.Agent_end) row.commands;
  Sim.run ~until:(Time_ns.ms 35) sim;
  let what s = row.state ^ ": " ^ s in
  let count b = if b then 1 else 0 in
  let native = row.events = `Stand_in in
  Alcotest.(check bool) (what "controller") true
    (Ccp_ext.controller ext ~flow:1 = Some row.controller);
  Alcotest.(check bool) (what "in fallback") (row.controller = Ccp_ext.Native_fallback)
    (Ccp_ext.in_fallback ext ~flow:1);
  Alcotest.(check bool) (what "in quarantine") (row.controller = Ccp_ext.Quarantined)
    (Ccp_ext.in_quarantine ext ~flow:1);
  Alcotest.(check int) (what "fallbacks") (count (row.controller = Ccp_ext.Native_fallback))
    (Ccp_ext.fallbacks_triggered ext);
  Alcotest.(check int) (what "probes") row.probes (Ccp_ext.fallback_probes_sent ext);
  Alcotest.(check int) (what "Ready messages") (1 + row.probes)
    (List.length
       (List.filter (function Ccp_ipc.Message.Ready _ -> true | _ -> false) !to_agent));
  Alcotest.(check int) (what "stand-ins started") (count native) calls.inits;
  let acks_processed () =
    Ccp_obs.Metrics.counter_value
      (Ccp_obs.Metrics.counter obs.Ccp_obs.Obs.metrics "datapath.acks_processed")
  in
  let acks_before = acks_processed () in
  cc.Congestion_iface.on_ack ctl (ack_event sim);
  Alcotest.(check int) (what "ACK on the CCP path") (count (row.events = `Ccp))
    (acks_processed () - acks_before);
  Alcotest.(check int) (what "ACK to the stand-in") (count native) calls.acks;
  let loss kind expect_cwnd =
    cwnd := 20_000;
    let urgents = Ccp_ext.urgents_sent ext in
    cc.Congestion_iface.on_loss ctl
      { Congestion_iface.kind; at = Sim.now sim; bytes_lost_estimate = 1448 };
    Alcotest.(check int) (what "urgents") (count (row.events = `Ccp))
      (Ccp_ext.urgents_sent ext - urgents);
    Alcotest.(check int) (what "window after the loss") expect_cwnd !cwnd
  in
  loss Congestion_iface.Rto (if native then 20_000 else 1448);
  Alcotest.(check int) (what "RTO to the stand-in") (count native) calls.rtos;
  loss Congestion_iface.Dup_acks 20_000;
  Alcotest.(check int) (what "dup-ACK loss to the stand-in") (count native) calls.dup_acks;
  cc.Congestion_iface.on_exit_recovery ctl;
  Alcotest.(check int) (what "exit from recovery to the stand-in") (count native) calls.exits

let test_one_owner_routes_events () = List.iter check_owner_row owner_rows

(* --- the fixed bounds, each at its edge --- *)

(* Run [program] on a fresh flow at the default config, feed it [acks]
   ACKs once it runs, then let it run to 15 ms. *)
let run_bounded program ~acks =
  let sim, _, ext, to_agent, install = guard_env () in
  let ctl, _, _ = fake_ctl sim ~flow:1 in
  let cc = Ccp_ext.congestion_control ext in
  cc.Congestion_iface.on_init ctl;
  install program ~flow:1;
  Sim.run ~until:(Time_ns.ms 1) sim;
  for _ = 1 to acks do
    cc.Congestion_iface.on_ack ctl (ack_event sim)
  done;
  Sim.run ~until:(Time_ns.ms 15) sim;
  (Ccp_ext.guard_incidents ext ~flow:1, List.rev !to_agent)

let fold_of init update = Ast.Measure (Ast.Fold { Ast.init; update })
let then_report prims = Ast.program (prims @ [ Ast.Wait_rtts (Ast.Const 1.0); Ast.Report ])

(* Each bound with an input at its edge, which it lets through, and one
   just past it, which trips it. The per-tick budget of 10,000 program
   steps has no row: an admitted program blocks on a wait within at most
   256 primitives per tick (typecheck rejects a repeating program without
   a wait), so no admitted program can reach it. The 1 GiB window ceiling
   is pinned by "direct commands clamped to the envelope". *)
let bound_rows =
  let rejected expected p =
    match Limits.check p with
    | Ok () -> false
    | Error (r, _) ->
      Alcotest.check reason "rejection reason" expected r;
      true
  in
  let cwnd = Ast.Cwnd (Ast.Const 14480.0) in
  let prims n = rejected Limits.Program_too_long (Ast.program (List.init n (fun _ -> cwnd))) in
  let depth d = rejected Limits.Expr_too_deep (then_report [ Ast.Cwnd (deep (d - 1)) ]) in
  let fields n =
    let fs = List.init n (fun i -> (Printf.sprintf "f%d" i, Ast.Const 0.0)) in
    rejected Limits.Fold_too_large (then_report [ fold_of fs fs ])
  in
  let columns n =
    rejected Limits.Vector_too_wide
      (then_report [ Ast.Measure (Ast.Vector (List.init n (fun _ -> "rtt_us"))) ])
  in
  let wait us =
    rejected Limits.Wait_too_short (Ast.program [ cwnd; Ast.Wait (Ast.Const us); Ast.Report ])
  in
  let wait_rtts r =
    rejected Limits.Wait_too_short (Ast.program [ cwnd; Ast.Wait_rtts (Ast.Const r); Ast.Report ])
  in
  (* A wait computed as mss / (1448 / us): exactly [us] for these. *)
  let computed_wait us =
    let wait = Ast.Wait (Ast.Bin (Ast.Div, Ast.Var "mss", Ast.Const (1448.0 /. us))) in
    let g, _ = run_bounded ~acks:0 (Ast.program ~repeat:false [ wait; Ast.Report ]) in
    g Ccp_ipc.Message.Wait_clamped > 0
  in
  (* [n] divisions by zero, one per ACK: its [ecn] is 0. *)
  let divisions n =
    let q = [ ("q", Ast.Bin (Ast.Div, Ast.Pkt "bytes_acked", Ast.Pkt "ecn")) ] in
    let g, _ = run_bounded ~acks:n (then_report [ fold_of [ ("q", Ast.Const 0.0) ] q ]) in
    g Ccp_ipc.Message.Div_by_zero_storm > 0
  in
  let fold_state x =
    let fold = fold_of [ ("x", Ast.Const x) ] [ ("x", Ast.Var "x") ] in
    let g, _ = run_bounded ~acks:1 (then_report [ fold ]) in
    g Ccp_ipc.Message.Fold_divergence > 0
  in
  (* Whether a vector report drops any of [n] rows. *)
  let rows n =
    let _, msgs = run_bounded ~acks:n (then_report [ Ast.Measure (Ast.Vector [ "rtt_us" ]) ]) in
    match List.find_map (function Ccp_ipc.Message.Report_vector v -> Some v | _ -> None) msgs with
    | Some v -> Array.length v.Ccp_ipc.Message.rows < n
    | None -> Alcotest.fail "no vector report"
  in
  let row bound trips ~edge ~past = (bound, (fun () -> trips edge), fun () -> trips past) in
  [
    row "256 primitives" prims ~edge:256 ~past:257;
    row "expression depth 32" depth ~edge:32 ~past:33;
    row "64 fold fields" fields ~edge:64 ~past:65;
    row "32 vector columns" columns ~edge:32 ~past:33;
    row "100 us constant wait" wait ~edge:100.0 ~past:99.9;
    row "0.1 RTT constant wait" wait_rtts ~edge:0.1 ~past:0.099;
    row "1 us computed wait" computed_wait ~edge:1.0 ~past:0.5;
    row "50 divisions by zero per incident" divisions ~edge:49 ~past:50;
    row "1e18 fold state" fold_state ~edge:1e18 ~past:2e18;
    row "4,096 vector rows" rows ~edge:4096 ~past:4097;
  ]

let test_bounds_at_their_edges () =
  List.iter
    (fun (bound, at_edge, past_edge) ->
      Alcotest.(check bool) (bound ^ ": at the edge") false (at_edge ());
      Alcotest.(check bool) (bound ^ ": past the edge") true (past_edge ()))
    bound_rows

(* --- end to end through Experiment --- *)

let test_hostile_flow_end_to_end () =
  (* A hostile agent on a real dumbbell, with the one-active-controller
     invariant sampled every 100 ms: quarantine flags, fallback flags and
     the installed program must always agree with [controller]. *)
  let duration = Time_ns.sec 5 in
  let violations = ref [] in
  let base = Experiment.default_config ~rate_bps:48e6 ~base_rtt:(Time_ns.ms 20) ~duration in
  let config =
    {
      base with
      Experiment.flows =
        [
          Experiment.flow
            (Experiment.Ccp_cc (Scenarios.Hostile.attacker "zero-cwnd" Scenarios.Hostile.zero_cwnd));
        ];
      datapath =
        { Ccp_ext.default_config with guard = Scenarios.Hostile.armed_guard ~threshold:25 () };
      inspect =
        Some
          (fun { Experiment.h_sim; h_datapath; _ } ->
            let rec sample at =
              if Time_ns.compare at duration < 0 then
                ignore
                  (Sim.schedule h_sim ~at (fun () ->
                       (match Ccp_ext.controller h_datapath ~flow:0 with
                       | None -> ()
                       | Some c ->
                           let q = Ccp_ext.in_quarantine h_datapath ~flow:0 in
                           let fb = Ccp_ext.in_fallback h_datapath ~flow:0 in
                           let prog = Ccp_ext.installed_program h_datapath ~flow:0 <> None in
                           let consistent =
                             match c with
                             | Ccp_ext.Quarantined -> q && not prog
                             | Ccp_ext.Native_fallback -> fb && (not q) && not prog
                             | Ccp_ext.Agent_program -> prog && not q
                             | Ccp_ext.Awaiting_agent -> (not prog) && (not q) && not fb
                           in
                           if not consistent then
                             violations :=
                               Printf.sprintf
                                 "t=%s: controller disagrees (quarantine=%b fallback=%b program=%b)"
                                 (Time_ns.to_string at) q fb prog
                               :: !violations);
                       sample (Time_ns.add at (Time_ns.ms 100))))
            in
            sample (Time_ns.ms 100));
    }
  in
  let r = Experiment.run config in
  Alcotest.(check (list string)) "one active controller throughout" [] !violations;
  let stats = Option.get r.Experiment.agent_stats in
  Alcotest.(check int) "one quarantine" 1 stats.Experiment.quarantines;
  Alcotest.(check int) "hostile then corrected install" 2 stats.Experiment.installs_admitted;
  Alcotest.(check bool) "incidents scored" true (stats.Experiment.guard_incidents >= 25);
  List.iter
    (fun (at, v) ->
      if v < 1448.0 then
        Alcotest.failf "cwnd %.0f below the guard floor at %s" v (Time_ns.to_string at))
    (Trace.series r.Experiment.trace "cwnd.0");
  Alcotest.(check bool) "traffic kept flowing" true (r.Experiment.utilization > 0.05)

let test_unrecovered_attacker_stays_quarantined () =
  let p =
    Scenarios.Hostile.run_one ~duration:(Time_ns.sec 3) ~recover:false
      ("div-storm", Scenarios.Hostile.div_storm)
  in
  Alcotest.(check int) "quarantined once" 1 p.Scenarios.Hostile.quarantines;
  Alcotest.(check bool) "never recovered" false p.Scenarios.Hostile.recovered;
  Alcotest.(check bool) "native CC keeps the flow moving" true
    (p.Scenarios.Hostile.utilization > 0.2);
  Alcotest.(check bool) "cwnd floor held" true (p.Scenarios.Hostile.min_cwnd_seen >= 1448)

let suite =
  [
    ( "guard.admission",
      [
        Alcotest.test_case "limits reject oversized programs" `Quick test_limits_rejections;
        Alcotest.test_case "admit = typecheck + limits" `Quick test_admit_full_decision;
        Alcotest.test_case "typecheck rejects degenerate prims" `Quick
          test_typecheck_rejects_degenerate_prims;
        Alcotest.test_case "eval clamps non-finite results" `Quick test_eval_clamps_non_finite;
      ] );
    ( "guard.datapath",
      [
        Alcotest.test_case "install answered with a verdict" `Quick test_admission_answers_install;
        Alcotest.test_case "cwnd and rate clamped to the envelope" `Quick
          test_guard_clamps_cwnd_and_rate;
        Alcotest.test_case "direct commands clamped to the envelope" `Quick
          test_direct_commands_clamped;
        Alcotest.test_case "report rate limiter" `Quick test_report_rate_limiter;
        Alcotest.test_case "quarantine and recovery lifecycle" `Quick test_quarantine_lifecycle;
        Alcotest.test_case "each owner gets the flow's events" `Quick
          test_one_owner_routes_events;
        Alcotest.test_case "each fixed bound holds at its edge" `Quick
          test_bounds_at_their_edges;
      ] );
    ( "guard.e2e",
      [
        Alcotest.test_case "hostile flow: invariants and recovery" `Slow
          test_hostile_flow_end_to_end;
        Alcotest.test_case "unrecovered attacker stays quarantined" `Slow
          test_unrecovered_attacker_stays_quarantined;
      ] );
  ]
