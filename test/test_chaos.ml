(* Agent-side resilience tests: overload control (bounded queues,
   watermark shedding, budgeted round-robin dispatch), per-flow
   degradation with backed-off re-admission, checkpoint/warm-restore,
   and the composed Scenarios.Chaos regression (IPC faults x measurement
   noise x ~4x agent overload x crash/restart).

   The chaos scorecard here uses the scenario's defaults — 96 Mbit/s,
   12 s, seed 42, two cells (cold + warm restart) — which runs in about
   a second; bin/ci.sh drives the same composition through the CLI. *)

open Ccp_util
open Ccp_eventsim
open Ccp_ipc
open Ccp_agent
module Chaos = Ccp_core.Scenarios.Chaos

(* --- agent-level harness: a channel whose datapath end we script ------- *)

let make_env ?policy ?overload ?degrade ~algorithm () =
  let sim = Sim.create () in
  let channel = Channel.create ~sim ~latency:(Latency_model.Constant (Time_ns.us 20)) () in
  let to_datapath = ref [] in
  Channel.on_receive channel Channel.Datapath_end (fun msg -> to_datapath := msg :: !to_datapath);
  let agent =
    Agent.create ~sim ~channel ~choose:(fun _ -> algorithm) ?policy ?overload ?degrade ()
  in
  let from_datapath msg = Channel.send channel ~from:Channel.Datapath_end msg in
  (sim, agent, to_datapath, from_datapath)

let ready flow = Message.Ready { flow; mss = 1448; init_cwnd = 14_480 }
let report flow = Message.Report { flow; names = [||]; values = [||] }

(* An algorithm that logs which flow's handler ran, in order. *)
let flow_logger log : Algorithm.t =
  let make (handle : Algorithm.handle) =
    let flow = handle.Algorithm.info.Algorithm.flow in
    {
      Algorithm.no_op_handlers with
      on_report = (fun _ -> log := flow :: !log);
    }
  in
  { Algorithm.name = "flow-logger"; make }

(* --- overload: watermark shedding ------------------------------------- *)

let overload_tight =
  {
    Agent.queue_capacity = 4;
    high_watermark = 2;
    dispatch_budget = 1;
    dispatch_interval = Time_ns.ms 1;
  }

let test_overload_sheds_deepest_never_starves () =
  let log = ref [] in
  let sim, agent, _, from_datapath =
    make_env ~overload:overload_tight ~algorithm:(flow_logger log) ()
  in
  from_datapath (ready 1);
  from_datapath (ready 2);
  Sim.run sim;
  (* Flow 1 floods three reports; flow 2 sends its single update. The
     watermark (2) forces two sheds, both taken from flow 1 — the
     deepest backlog — and never flow 2's only queued report. *)
  from_datapath (report 1);
  from_datapath (report 1);
  from_datapath (report 1);
  from_datapath (report 2);
  Sim.run sim;
  Alcotest.(check int) "two reports shed" 2 (Agent.reports_shed agent);
  Alcotest.(check int) "queues drained" 0 (Agent.reports_queued agent);
  (* Both surviving reports dispatched: one of flow 1's, flow 2's only. *)
  Alcotest.(check (list int)) "flow 2's lone report survived" [ 1; 2 ]
    (List.sort compare !log);
  Alcotest.(check bool) "queue wait measured" true
    (Time_ns.compare (Agent.max_queue_wait agent) Time_ns.zero > 0)

let test_overload_round_robin_budget () =
  let log = ref [] in
  let roomy = { overload_tight with Agent.queue_capacity = 16; high_watermark = 16 } in
  let sim, agent, _, from_datapath = make_env ~overload:roomy ~algorithm:(flow_logger log) () in
  from_datapath (ready 1);
  from_datapath (ready 2);
  Sim.run sim;
  (* Two reports per flow, budget 1 per round: service must alternate
     1,2,1,2 over four rounds — no flow waits for the other's whole
     backlog. *)
  from_datapath (report 1);
  from_datapath (report 1);
  from_datapath (report 2);
  from_datapath (report 2);
  Sim.run sim;
  Alcotest.(check (list int)) "round-robin order" [ 1; 2; 1; 2 ] (List.rev !log);
  Alcotest.(check int) "one dispatch per round" 4 (Agent.dispatch_rounds agent);
  Alcotest.(check int) "nothing shed below watermark" 0 (Agent.reports_shed agent)

let test_overload_validates () =
  let sim = Sim.create () in
  let channel = Channel.create ~sim ~latency:(Latency_model.Constant (Time_ns.us 20)) () in
  let bad ov =
    match
      Agent.create ~sim ~channel ~choose:(fun _ -> flow_logger (ref [])) ~overload:ov ()
    with
    | _ -> Alcotest.fail "nonsensical overload accepted"
    | exception Invalid_argument _ -> ()
  in
  bad { overload_tight with Agent.queue_capacity = 0 };
  bad { overload_tight with Agent.high_watermark = 5 };
  bad { overload_tight with Agent.dispatch_budget = 0 };
  bad { overload_tight with Agent.dispatch_interval = Time_ns.zero }

(* --- degradation: trip, drop, back off, re-admit ----------------------- *)

let degrade_quick =
  {
    Agent.error_threshold = 2;
    backoff_initial = Time_ns.ms 10;
    backoff_max = Time_ns.ms 40;
  }

(* An algorithm whose on_report raises while [failing] is set; counts
   instance builds so re-admission's fresh-instance rule is visible. *)
let fragile_algorithm ~failing ~instances : Algorithm.t =
  let make (_ : Algorithm.handle) =
    incr instances;
    {
      Algorithm.no_op_handlers with
      on_report = (fun _ -> if !failing then failwith "handler bug");
    }
  in
  { Algorithm.name = "fragile"; make }

let test_degrade_trips_and_readmits () =
  let failing = ref true and instances = ref 0 in
  let sim, agent, _, from_datapath =
    make_env ~degrade:degrade_quick ~algorithm:(fragile_algorithm ~failing ~instances) ()
  in
  from_datapath (ready 1);
  Sim.run sim;
  (* Two consecutive failures trip the quarantine... *)
  from_datapath (report 1);
  from_datapath (report 1);
  Sim.run ~until:(Time_ns.ms 5) sim;
  Alcotest.(check bool) "flow degraded" true (Agent.flow_degraded agent ~flow:1);
  Alcotest.(check int) "one degradation" 1 (Agent.degradations agent);
  (* ...messages for the quarantined flow are dropped, not handled... *)
  from_datapath (report 1);
  Sim.run ~until:(Time_ns.ms 8) sim;
  Alcotest.(check bool) "degraded drops counted" true (Agent.degraded_drops agent >= 1);
  Alcotest.(check int) "handler untouched while degraded" 2 (Agent.handler_errors agent);
  (* ...and after backoff_initial the agent rebuilds a fresh instance. *)
  Sim.run ~until:(Time_ns.ms 15) sim;
  Alcotest.(check bool) "re-admitted" false (Agent.flow_degraded agent ~flow:1);
  Alcotest.(check int) "fresh instance built" 2 !instances;
  (* Still failing: the re-trip doubles the backoff (10 -> 20 ms), so the
     flow is back no earlier than t = 35 ms. *)
  from_datapath (report 1);
  from_datapath (report 1);
  Sim.run ~until:(Time_ns.ms 20) sim;
  Alcotest.(check bool) "re-tripped" true (Agent.flow_degraded agent ~flow:1);
  Sim.run ~until:(Time_ns.ms 30) sim;
  Alcotest.(check bool) "doubled backoff still pending" true
    (Agent.flow_degraded agent ~flow:1);
  failing := false;
  Sim.run ~until:(Time_ns.ms 40) sim;
  Alcotest.(check bool) "second re-admission" false (Agent.flow_degraded agent ~flow:1);
  from_datapath (report 1);
  Sim.run ~until:(Time_ns.ms 45) sim;
  (* A healthy handler run resets the consecutive-failure count. *)
  Alcotest.(check int) "healthy again" 4 (Agent.handler_errors agent);
  Alcotest.(check int) "two degradations total" 2 (Agent.degradations agent)

(* --- checkpoint codec and warm restore --------------------------------- *)

let sample_ckpt =
  {
    Checkpoint.taken_at = Time_ns.ms 1234;
    flows =
      [
        {
          Checkpoint.flow = 1;
          algorithm = "ccp-reno";
          cwnd = 57_920;
          rate = 0.0;
          registers = [| ("cwnd", 57_920.0); ("ssthresh", 120_000.0) |];
        };
        { Checkpoint.flow = 7; algorithm = "ccp-vegas"; cwnd = 0; rate = 3.5e6; registers = [||] };
      ];
  }

let test_checkpoint_round_trip () =
  let blob = Checkpoint.encode sample_ckpt in
  (match Checkpoint.decode blob with
  | Ok got -> Alcotest.(check bool) "round-trips" true (got = sample_ckpt)
  | Error e -> Alcotest.failf "decode failed: %s" e);
  Alcotest.(check string) "encoding deterministic" blob (Checkpoint.encode sample_ckpt)

let test_checkpoint_rejects_corruption () =
  let blob = Checkpoint.encode sample_ckpt in
  let expect_error what s =
    match Checkpoint.decode s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s accepted" what
  in
  expect_error "empty blob" "";
  expect_error "bad magic" ("\x00" ^ String.sub blob 1 (String.length blob - 1));
  expect_error "truncated" (String.sub blob 0 (String.length blob - 3));
  expect_error "trailing garbage" (blob ^ "x");
  (* A future-versioned blob must be refused, not misread. *)
  let bumped = Bytes.of_string blob in
  Bytes.set bumped 1 (Char.chr (Checkpoint.version + 1));
  expect_error "version mismatch" (Bytes.to_string bumped)

(* An algorithm with real registers: on_checkpoint dumps them, on_restore
   replays them, and what it saw is observable through [seen]. *)
let register_algorithm ~seen : Algorithm.t =
  let make (_ : Algorithm.handle) =
    let x = ref 1.5 in
    {
      Algorithm.no_op_handlers with
      on_checkpoint = (fun () -> [| ("x", !x) |]);
      on_restore =
        (fun regs ->
          Array.iter (fun (k, v) -> if k = "x" then x := v) regs;
          seen := Some !x);
    }
  in
  { Algorithm.name = "register-algo"; make }

let test_warm_restore_replays_registers () =
  let seen = ref None in
  let sim, agent, _, from_datapath = make_env ~algorithm:(register_algorithm ~seen) () in
  from_datapath (ready 1);
  Sim.run sim;
  let ckpt = Agent.checkpoint agent in
  (match ckpt.Checkpoint.flows with
  | [ { Checkpoint.flow = 1; algorithm = "register-algo"; registers = [| ("x", 1.5) |]; _ } ] -> ()
  | _ -> Alcotest.fail "checkpoint did not capture the register dump");
  (* Crash, restart warm, re-register: the fresh instance gets the
     registers back before serving traffic. *)
  Agent.reset agent;
  Alcotest.(check int) "flows gone after reset" 0 (Agent.flow_count agent);
  Agent.restore agent ckpt;
  from_datapath (ready 1);
  Sim.run sim;
  Alcotest.(check int) "one warm restore" 1 (Agent.warm_restores agent);
  Alcotest.(check (option (float 1e-9))) "registers replayed" (Some 1.5) !seen;
  (* The staged entry is consumed: a second Ready restarts cold. *)
  Agent.reset agent;
  from_datapath (ready 1);
  Sim.run sim;
  Alcotest.(check int) "snapshot consumed" 1 (Agent.warm_restores agent)

let test_warm_restore_nudges_registerless () =
  (* A register-less algorithm gets the last commanded cwnd/rate pushed
     back instead of a register replay. *)
  let algorithm =
    {
      Algorithm.name = "plain";
      make =
        (fun handle ->
          {
            Algorithm.no_op_handlers with
            on_ready = (fun () -> handle.Algorithm.set_cwnd 50_000);
          });
    }
  in
  let sim, agent, to_datapath, from_datapath = make_env ~algorithm () in
  from_datapath (ready 1);
  Sim.run sim;
  let ckpt = Agent.checkpoint agent in
  Agent.reset agent;
  Agent.restore agent ckpt;
  to_datapath := [];
  from_datapath (ready 1);
  Sim.run sim;
  let cwnds =
    List.filter_map
      (function Message.Set_cwnd { bytes; _ } -> Some bytes | _ -> None)
      !to_datapath
  in
  (* on_ready's own 50_000 plus the warm nudge to the same value. *)
  Alcotest.(check (list int)) "nudged to last commanded cwnd" [ 50_000; 50_000 ] cwnds;
  Alcotest.(check int) "counted as warm" 1 (Agent.warm_restores agent)

let test_restore_mismatched_algorithm_discarded () =
  let seen = ref None in
  let sim, agent, _, from_datapath = make_env ~algorithm:(register_algorithm ~seen) () in
  let stale =
    {
      Checkpoint.taken_at = Time_ns.zero;
      flows =
        [ { Checkpoint.flow = 1; algorithm = "someone-else"; cwnd = 99; rate = 0.0; registers = [| ("x", 9.0) |] } ];
    }
  in
  Agent.restore agent stale;
  from_datapath (ready 1);
  Sim.run sim;
  Alcotest.(check int) "stale snapshot not applied" 0 (Agent.warm_restores agent);
  Alcotest.(check (option (float 1e-9))) "no register replay" None !seen

let test_reset_sheds_queued_spans () =
  let log = ref [] in
  let roomy = { overload_tight with Agent.queue_capacity = 16; high_watermark = 16 } in
  let sim, agent, _, from_datapath = make_env ~overload:roomy ~algorithm:(flow_logger log) () in
  from_datapath (ready 1);
  Sim.run sim;
  from_datapath (report 1);
  from_datapath (report 1);
  (* Let the reports arrive (20 us IPC) but crash before the first 1 ms
     dispatch round fires. *)
  Sim.run ~until:(Time_ns.us 100) sim;
  Alcotest.(check int) "two queued" 2 (Agent.reports_queued agent);
  Agent.reset agent;
  Alcotest.(check int) "queue loss counted as shed" 2 (Agent.reports_shed agent);
  Alcotest.(check int) "queue empty" 0 (Agent.reports_queued agent);
  Sim.run sim;
  Alcotest.(check (list int)) "nothing dispatched after crash" [] !log

(* --- the composed chaos scenario --------------------------------------- *)

(* Forced once, inspected by every scenario-level test below: seed-42
   defaults, one cold and one warm cell (~a second of wall clock). *)
let chaos_scorecard = lazy (Chaos.run ())

let scorecard_line sc = Ccp_obs.Json.to_string (Chaos.to_json sc)

let golden_path () =
  if Sys.file_exists "golden_chaos.expected" then "golden_chaos.expected"
  else "test/golden_chaos.expected"

let test_golden_chaos () =
  let sc = Lazy.force chaos_scorecard in
  Alcotest.(check int) "cold + warm" 2 (List.length sc.Chaos.cells);
  let actual = scorecard_line sc in
  (* Regenerate with CCP_REGEN_CHAOS=path/to/golden_chaos.expected after
     an intentional schema or dynamics change. *)
  match Sys.getenv_opt "CCP_REGEN_CHAOS" with
  | Some path ->
    let oc = open_out path in
    output_string oc (actual ^ "\n");
    close_out oc;
    Printf.printf "regenerated %s\n" path
  | None ->
    let ic = open_in (golden_path ()) in
    let expected = input_line ic in
    close_in ic;
    if not (String.equal expected actual) then begin
      let n = min (String.length expected) (String.length actual) in
      let rec first_diff i =
        if i >= n then n else if expected.[i] <> actual.[i] then i else first_diff (i + 1)
      in
      let i = first_diff 0 in
      let ctx s = String.sub s (max 0 (i - 40)) (min 80 (String.length s - max 0 (i - 40))) in
      Alcotest.failf "golden chaos scorecard diverges at byte %d:\n  expected ...%s...\n  actual   ...%s..."
        i (ctx expected) (ctx actual)
    end

let test_chaos_schema () =
  let sc = Lazy.force chaos_scorecard in
  match Chaos.validate_scorecard (Chaos.to_json sc) with
  | Ok n -> Alcotest.(check int) "both cells validate" 2 n
  | Error e -> Alcotest.failf "chaos scorecard fails its own schema: %s" e

let cells_by_mode mode =
  let sc = Lazy.force chaos_scorecard in
  List.filter (fun (c : Chaos.cell) -> c.mode = mode) sc.Chaos.cells

(* The tentpole's recovery envelope: warm restart brings every flow back
   within 20 % of its pre-crash cwnd in at most 5 RTTs, and is never
   slower than the cold restart measured in the same run. *)
let test_warm_recovery_envelope () =
  let warm = cells_by_mode "warm" and cold = cells_by_mode "cold" in
  Alcotest.(check bool) "have warm cells" true (warm <> []);
  List.iter
    (fun (c : Chaos.cell) ->
      List.iter
        (fun (r : Chaos.recovery) ->
          match r.recovery_rtts with
          | Some rtts when rtts <= 5.0 -> ()
          | Some rtts ->
            Alcotest.failf "warm seed %d flow %d recovered in %.1f RTTs (> 5)" c.seed
              r.flow_id rtts
          | None ->
            Alcotest.failf "warm seed %d flow %d never recovered" c.seed r.flow_id)
        c.recoveries;
      match c.mean_recovery_rtts with
      | Some m ->
        (* Cold recovery in the same run must be no faster. A cold flow
           that never recovers only strengthens the comparison. *)
        List.iter
          (fun (k : Chaos.cell) ->
            if k.seed = c.seed then
              match k.mean_recovery_rtts with
              | Some cold_m when cold_m +. 1e-9 < m ->
                Alcotest.failf "seed %d: warm mean %.1f RTTs slower than cold %.1f" c.seed
                  m cold_m
              | Some _ | None -> ())
          cold
      | None -> Alcotest.failf "warm seed %d has no recovery mean" c.seed)
    warm

(* The overload envelope: the 4x report overload is real (sheds happen)
   yet no flow's service gap exceeds 2 RTTs — the budgeted round-robin
   plus never-shed-the-last-report rule at work. *)
let test_no_starvation_under_overload () =
  let sc = Lazy.force chaos_scorecard in
  List.iter
    (fun (c : Chaos.cell) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s seed %d: overload engaged" c.mode c.seed)
        true (c.reports_shed > 0);
      if c.max_queue_wait_rtts > 2.0 then
        Alcotest.failf "%s seed %d: a report waited %.2f RTTs (> 2)" c.mode c.seed
          c.max_queue_wait_rtts)
    sc.Chaos.cells

(* Utilization floor: resilience features keep the link busy through
   faults, noise, overload, and a 10-RTT agent outage. *)
let test_chaos_utilization_floor () =
  let sc = Lazy.force chaos_scorecard in
  List.iter
    (fun (c : Chaos.cell) ->
      if c.utilization < 0.8 then
        Alcotest.failf "%s seed %d: utilization %.3f below 0.8 floor" c.mode c.seed
          c.utilization)
    sc.Chaos.cells;
  List.iter
    (fun (w : Chaos.cell) ->
      List.iter
        (fun (k : Chaos.cell) ->
          if k.seed = w.seed && w.utilization +. 0.02 < k.utilization then
            Alcotest.failf "seed %d: warm utilization %.3f well below cold %.3f" w.seed
              w.utilization k.utilization)
        (cells_by_mode "cold"))
    (cells_by_mode "warm")

(* Mode bookkeeping: cold cells must not silently checkpoint, and warm
   cells must actually restore every flow after the crash. *)
let test_chaos_mode_bookkeeping () =
  List.iter
    (fun (c : Chaos.cell) ->
      Alcotest.(check int)
        (Printf.sprintf "cold seed %d: no checkpoints" c.seed)
        0 c.checkpoints_taken;
      Alcotest.(check int)
        (Printf.sprintf "cold seed %d: no warm restores" c.seed)
        0 c.warm_restores)
    (cells_by_mode "cold");
  List.iter
    (fun (c : Chaos.cell) ->
      Alcotest.(check bool)
        (Printf.sprintf "warm seed %d: checkpoints taken" c.seed)
        true (c.checkpoints_taken > 0);
      Alcotest.(check int)
        (Printf.sprintf "warm seed %d: every flow restored warm" c.seed)
        Chaos.flow_count c.warm_restores)
    (cells_by_mode "warm")

let suite =
  [
    ( "chaos.agent",
      [
        Alcotest.test_case "shed deepest, never starve" `Quick
          test_overload_sheds_deepest_never_starves;
        Alcotest.test_case "round-robin budgeted dispatch" `Quick
          test_overload_round_robin_budget;
        Alcotest.test_case "overload config validated" `Quick test_overload_validates;
        Alcotest.test_case "degrade trips and re-admits" `Quick test_degrade_trips_and_readmits;
        Alcotest.test_case "reset sheds queued spans" `Quick test_reset_sheds_queued_spans;
      ] );
    ( "chaos.checkpoint",
      [
        Alcotest.test_case "codec round-trip" `Quick test_checkpoint_round_trip;
        Alcotest.test_case "corruption rejected" `Quick test_checkpoint_rejects_corruption;
        Alcotest.test_case "warm restore replays registers" `Quick
          test_warm_restore_replays_registers;
        Alcotest.test_case "register-less warm nudge" `Quick
          test_warm_restore_nudges_registerless;
        Alcotest.test_case "mismatched algorithm discarded" `Quick
          test_restore_mismatched_algorithm_discarded;
      ] );
    ( "chaos.scenario",
      [
        Alcotest.test_case "golden scorecard" `Quick test_golden_chaos;
        Alcotest.test_case "scorecard schema" `Quick test_chaos_schema;
        Alcotest.test_case "warm recovery envelope" `Quick test_warm_recovery_envelope;
        Alcotest.test_case "no starvation under overload" `Quick
          test_no_starvation_under_overload;
        Alcotest.test_case "utilization floor" `Quick test_chaos_utilization_floor;
        Alcotest.test_case "mode bookkeeping" `Quick test_chaos_mode_bookkeeping;
      ] );
  ]
