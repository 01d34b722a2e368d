(* Tests for the CCP agent: dispatch, per-flow algorithm instances,
   policy enforcement (clamps and program rewriting), and handler-fault
   isolation. *)

open Ccp_util
open Ccp_eventsim
open Ccp_ipc
open Ccp_agent

(* Environment: a channel whose datapath end we script by hand. *)
let make_env ?policy ~algorithm () =
  let sim = Sim.create () in
  let channel = Channel.create ~sim ~latency:(Latency_model.Constant (Time_ns.us 20)) () in
  let to_datapath = ref [] in
  Channel.on_receive channel Channel.Datapath_end (fun msg -> to_datapath := msg :: !to_datapath);
  let agent = Agent.create ~sim ~channel ~choose:(fun _ -> algorithm) ?policy () in
  let from_datapath msg = Channel.send channel ~from:Channel.Datapath_end msg in
  (sim, agent, to_datapath, from_datapath)

let ready flow = Message.Ready { flow; mss = 1448; init_cwnd = 14_480 }

(* An algorithm that records what it sees and installs on ready. *)
let recording_algorithm events : Algorithm.t =
  let make (handle : Algorithm.handle) =
    let note tag = events := tag :: !events in
    {
      Algorithm.no_op_handlers with
      on_ready =
        (fun () ->
          note "ready";
          handle.Algorithm.install_text "Cwnd(20000).WaitRtts(1.0).Report()");
      on_report = (fun _ -> note "report");
      on_report_vector = (fun _ -> note "vector");
      on_urgent = (fun _ -> note "urgent");
    }
  in
  { Algorithm.name = "recorder"; make }

let test_agent_dispatch () =
  let events = ref [] in
  let sim, agent, to_datapath, from_datapath =
    make_env ~algorithm:(recording_algorithm events) ()
  in
  from_datapath (ready 1);
  Sim.run sim;
  Alcotest.(check (list string)) "ready handled" [ "ready" ] (List.rev !events);
  Alcotest.(check int) "flow registered" 1 (Agent.flow_count agent);
  Alcotest.(check (option string)) "algorithm name" (Some "recorder")
    (Agent.algorithm_name agent ~flow:1);
  (* The on_ready Install reached the datapath end. *)
  (match !to_datapath with
  | [ Message.Install { flow = 1; _ } ] -> ()
  | _ -> Alcotest.fail "expected Install");
  from_datapath (Message.Report { flow = 1; layout = Message.layout [||]; values = [||] });
  from_datapath
    (Message.Urgent
       { flow = 1; kind = Message.Dup_ack_loss; cwnd_at_event = 1; inflight_at_event = 1 });
  from_datapath (Message.Report_vector { flow = 1; columns = [||]; rows = [||] });
  Sim.run sim;
  Alcotest.(check (list string)) "all events" [ "ready"; "report"; "urgent"; "vector" ]
    (List.rev !events);
  Alcotest.(check int) "reports counted" 2 (Agent.reports_received agent);
  Alcotest.(check int) "urgents counted" 1 (Agent.urgents_received agent)

let test_agent_per_flow_instances () =
  (* Each flow gets its own closure state. *)
  let instances = ref 0 in
  let algorithm =
    {
      Algorithm.name = "counter";
      make =
        (fun _ ->
          incr instances;
          Algorithm.no_op_handlers);
    }
  in
  let sim, _, _, from_datapath = make_env ~algorithm () in
  from_datapath (ready 1);
  from_datapath (ready 2);
  from_datapath (ready 3);
  Sim.run sim;
  Alcotest.(check int) "three instances" 3 !instances

let test_agent_closed_removes_flow () =
  let events = ref [] in
  let sim, agent, _, from_datapath = make_env ~algorithm:(recording_algorithm events) () in
  from_datapath (ready 1);
  Sim.run sim;
  from_datapath (Message.Closed { flow = 1 });
  Sim.run sim;
  Alcotest.(check int) "flow removed" 0 (Agent.flow_count agent);
  (* Reports for a dead flow are dropped, not crashed on. *)
  from_datapath (Message.Report { flow = 1; layout = Message.layout [||]; values = [||] });
  Sim.run sim;
  Alcotest.(check bool) "no report event" true (not (List.mem "report" !events))

let test_agent_handler_errors_isolated () =
  let algorithm =
    {
      Algorithm.name = "buggy";
      make =
        (fun _ ->
          { Algorithm.no_op_handlers with on_report = (fun _ -> failwith "algorithm bug") });
    }
  in
  let sim, agent, _, from_datapath = make_env ~algorithm () in
  from_datapath (ready 1);
  from_datapath (Message.Report { flow = 1; layout = Message.layout [||]; values = [||] });
  from_datapath (Message.Report { flow = 1; layout = Message.layout [||]; values = [||] });
  Sim.run sim;
  Alcotest.(check int) "errors counted, agent alive" 2 (Agent.handler_errors agent);
  Alcotest.(check int) "flow still registered" 1 (Agent.flow_count agent)

let test_agent_rejects_invalid_install () =
  let algorithm =
    {
      Algorithm.name = "invalid-installer";
      make =
        (fun handle ->
          {
            Algorithm.no_op_handlers with
            on_ready = (fun () -> handle.Algorithm.install_text "Cwnd(unknown_variable).WaitRtts(1.0).Report()");
          });
    }
  in
  let sim, agent, to_datapath, from_datapath = make_env ~algorithm () in
  from_datapath (ready 1);
  Sim.run sim;
  (* install raised inside on_ready -> counted as handler error, nothing sent. *)
  Alcotest.(check int) "handler error" 1 (Agent.handler_errors agent);
  Alcotest.(check (list Alcotest.reject)) "nothing installed" [] !to_datapath

(* --- Policy --- *)

let test_policy_clamps () =
  let p = { Policy.max_rate_bps = Some 1e6; max_cwnd_bytes = Some 50_000; min_cwnd_bytes = Some 3000 } in
  Alcotest.(check (float 1e-9)) "rate clamped" 1e6 (Policy.clamp_rate p 5e6);
  Alcotest.(check (float 1e-9)) "rate below cap" 5e5 (Policy.clamp_rate p 5e5);
  Alcotest.(check int) "cwnd clamped" 50_000 (Policy.clamp_cwnd p 100_000);
  Alcotest.(check int) "cwnd floored" 3000 (Policy.clamp_cwnd p 10);
  Alcotest.(check int) "unrestricted" 100_000 (Policy.clamp_cwnd Policy.unrestricted 100_000)

let test_policy_rewrites_programs () =
  let p = Policy.with_max_rate 2e6 in
  let program = Ccp_lang.Parser.parse_program "Rate(1e9).WaitRtts(1.0).Report()" in
  let rewritten = Policy.apply_program p program in
  (* The rewritten Rate expression must evaluate to the cap. *)
  (match rewritten.Ccp_lang.Ast.prims with
  | Ccp_lang.Ast.Rate e :: _ ->
    let v =
      Ccp_lang.Eval.eval
        { Ccp_lang.Eval.lookup_var = (fun _ -> None); lookup_pkt = (fun _ -> None) }
        e
    in
    Alcotest.(check (float 1e-9)) "capped" 2e6 v
  | _ -> Alcotest.fail "expected Rate");
  (* Identity for unrestricted policies. *)
  Alcotest.(check bool) "unrestricted identity" true
    (Ccp_lang.Ast.equal_program program (Policy.apply_program Policy.unrestricted program))

let test_policy_applied_by_agent () =
  let algorithm =
    {
      Algorithm.name = "greedy";
      make =
        (fun handle ->
          {
            Algorithm.no_op_handlers with
            on_ready =
              (fun () ->
                handle.Algorithm.install_text "Rate(1e9).Cwnd(1e9).WaitRtts(1.0).Report()";
                handle.Algorithm.set_cwnd 1_000_000;
                handle.Algorithm.set_rate 1e9);
          });
    }
  in
  let policy _ = { Policy.max_rate_bps = Some 125_000.0; max_cwnd_bytes = Some 20_000; min_cwnd_bytes = None } in
  let sim, _, to_datapath, from_datapath = make_env ~algorithm ~policy () in
  from_datapath (ready 1);
  Sim.run sim;
  let eval e =
    Ccp_lang.Eval.eval
      { Ccp_lang.Eval.lookup_var = (fun _ -> None); lookup_pkt = (fun _ -> None) }
      e
  in
  List.iter
    (function
      | Message.Install { program; _ } ->
        List.iter
          (function
            | Ccp_lang.Ast.Rate e ->
              Alcotest.(check (float 1e-9)) "program rate capped" 125_000.0 (eval e)
            | Ccp_lang.Ast.Cwnd e ->
              Alcotest.(check (float 1e-9)) "program cwnd capped" 20_000.0 (eval e)
            | _ -> ())
          program.Ccp_lang.Ast.prims
      | Message.Set_cwnd { bytes; _ } -> Alcotest.(check int) "direct cwnd capped" 20_000 bytes
      | Message.Set_rate { bytes_per_sec; _ } ->
        Alcotest.(check (float 1e-9)) "direct rate capped" 125_000.0 bytes_per_sec
      | _ -> ())
    !to_datapath;
  Alcotest.(check int) "three messages" 3 (List.length !to_datapath)

(* --- Algorithm helpers --- *)

let test_field_helpers () =
  let report =
    { Message.flow = 1; layout = Message.layout [| "a"; "b"; "a" |]; values = [| 1.0; 2.0; 3.0 |] }
  in
  Alcotest.(check (option (float 1e-9))) "field" (Some 2.0) (Algorithm.field report "b");
  Alcotest.(check (option (float 1e-9))) "missing" None (Algorithm.field report "c");
  Alcotest.(check (float 1e-9)) "field_exn" 1.0 (Algorithm.field_exn report "a");
  (match Algorithm.field_exn report "zzz" with
  | _ -> Alcotest.fail "expected Missing_field"
  | exception Algorithm.Missing_field "zzz" -> ());
  let vector = { Message.flow = 1; columns = [| "x"; "y" |]; rows = [||] } in
  Alcotest.(check (option int)) "column" (Some 1) (Algorithm.column vector "y");
  Alcotest.(check (option int)) "missing column" None (Algorithm.column vector "z")

let suite =
  [
    ( "agent",
      [
        Alcotest.test_case "dispatch" `Quick test_agent_dispatch;
        Alcotest.test_case "per-flow instances" `Quick test_agent_per_flow_instances;
        Alcotest.test_case "closed removes flow" `Quick test_agent_closed_removes_flow;
        Alcotest.test_case "handler errors isolated" `Quick test_agent_handler_errors_isolated;
        Alcotest.test_case "invalid install rejected" `Quick test_agent_rejects_invalid_install;
      ] );
    ( "agent.policy",
      [
        Alcotest.test_case "clamps" `Quick test_policy_clamps;
        Alcotest.test_case "program rewriting" `Quick test_policy_rewrites_programs;
        Alcotest.test_case "applied by agent" `Quick test_policy_applied_by_agent;
      ] );
    ( "agent.helpers", [ Alcotest.test_case "report fields" `Quick test_field_helpers ] );
  ]
