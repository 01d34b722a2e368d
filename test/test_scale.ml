(* The flow-multiplexed control plane: the generation-checked slot pool
   (unit + churn property), the agent's registry (stale handles dropped,
   exhaustion counted, uncapped growth), open-loop batching determinism
   (same commands, fewer frames), and the N-member aggregate splitting
   one window across an incast fleet. *)

open Ccp_util
open Ccp_eventsim
open Ccp_ipc
open Ccp_agent

(* --- Flow_table unit tests --- *)

let test_pool_lifecycle () =
  let pool = Flow_table.create ~capacity:3 () in
  Alcotest.(check int) "capacity rounds to pow2" 4 (Flow_table.capacity pool);
  let tok =
    match Flow_table.register pool ~flow:7 "seven" with
    | Ok t -> t
    | Error `Pool_exhausted -> Alcotest.fail "empty pool rejected a registration"
  in
  Alcotest.(check (option string)) "get via token" (Some "seven") (Flow_table.get pool tok);
  Alcotest.(check (option string)) "find via flow id" (Some "seven")
    (Flow_table.find pool ~flow:7);
  Alcotest.(check (option int)) "token_of" (Some tok) (Flow_table.token_of pool ~flow:7);
  Alcotest.(check bool) "is_live" true (Flow_table.is_live pool tok);
  Alcotest.(check int) "live" 1 (Flow_table.live pool);
  Alcotest.(check bool) "release" true (Flow_table.release pool ~flow:7);
  Alcotest.(check bool) "double release" false (Flow_table.release pool ~flow:7);
  Alcotest.(check bool) "token went stale" false (Flow_table.is_live pool tok);
  Alcotest.(check (option string)) "stale deref refused" None (Flow_table.get pool tok);
  let s = Flow_table.stats pool in
  Alcotest.(check int) "stale counted" 1 s.Flow_table.stale_refs;
  Alcotest.(check int) "lifetime registered" 1 s.Flow_table.registered;
  Alcotest.(check int) "lifetime released" 1 s.Flow_table.released;
  (* no_token derefs silently — it is the well-known sentinel. *)
  Alcotest.(check (option string)) "no_token" None (Flow_table.get pool Flow_table.no_token);
  Alcotest.(check int) "no_token not counted stale" 1
    (Flow_table.stats pool).Flow_table.stale_refs

let test_pool_replacement_and_exhaustion () =
  let pool = Flow_table.create ~capacity:2 () in
  let reg flow v =
    match Flow_table.register pool ~flow v with
    | Ok t -> t
    | Error `Pool_exhausted -> Alcotest.fail "unexpected exhaustion"
  in
  let t1 = reg 1 "a" and _t2 = reg 2 "b" in
  (* Full pool: a third flow is refused, structurally. *)
  (match Flow_table.register pool ~flow:3 "c" with
  | Ok _ -> Alcotest.fail "exhausted pool accepted a registration"
  | Error `Pool_exhausted -> ());
  Alcotest.(check int) "rejection counted" 1 (Flow_table.stats pool).Flow_table.rejected;
  (* Re-registering a present flow replaces: never refused by a full
     pool, and the old token goes stale. *)
  let t1' = reg 1 "a2" in
  Alcotest.(check bool) "replacement minted a fresh token" true (t1 <> t1');
  Alcotest.(check (option string)) "old token stale" None (Flow_table.get pool t1);
  Alcotest.(check (option string)) "new token live" (Some "a2") (Flow_table.get pool t1');
  Flow_table.clear pool;
  Alcotest.(check int) "clear releases all" 0 (Flow_table.live pool);
  Alcotest.(check (option string)) "clear staled tokens" None (Flow_table.get pool t1')

let test_pool_iter_order () =
  let pool = Flow_table.create ~capacity:4 () in
  List.iter
    (fun f -> ignore (Flow_table.register pool ~flow:f (string_of_int f)))
    [ 30; 10; 20 ];
  ignore (Flow_table.release pool ~flow:10 : bool);
  ignore (Flow_table.register pool ~flow:40 "40");
  (* Slot order, not hash order: 10's freed slot was reused by 40. *)
  let seen = ref [] in
  Flow_table.iter pool (fun flow _ -> seen := flow :: !seen);
  Alcotest.(check (list int)) "deterministic slot order" [ 30; 40; 20 ] (List.rev !seen);
  Alcotest.(check int) "fold agrees" 3
    (Flow_table.fold pool ~init:0 ~f:(fun _ _ acc -> acc + 1))

(* --- churn property: the pool against a model registry --- *)

type churn_op = Op_register of int | Op_release of int | Op_deref of int

let show_churn ops =
  String.concat "; "
    (List.map
       (function
         | Op_register f -> Printf.sprintf "reg %d" f
         | Op_release f -> Printf.sprintf "rel %d" f
         | Op_deref f -> Printf.sprintf "deref %d" f)
       ops)

let gen_churn rng =
  Prop.list rng ~min:1 ~max:80 (fun rng ->
      let flow = Rng.int rng 8 in
      match Rng.int rng 4 with
      | 0 | 1 -> Op_register flow
      | 2 -> Op_release flow
      | _ -> Op_deref flow)

let slot_of (tok : Flow_table.token) = tok land ((1 lsl 30) - 1)

(* Invariants, against a hashtable model: a live slot is never handed
   out twice; stale tokens are counted, never honored; exhaustion is a
   structured rejection exactly when a capped pool is full of other
   flows, and never happens uncapped; live tokens still dereference at
   the end, however many times the table grew since they were minted;
   iteration visits slots in order; and the stats ledger balances.
   [grow_by] extra flows (ids from 1000, never released) join before
   every op. *)
let churn_against_model ?capacity ~grow_by ops =
  let pool = Flow_table.create ?capacity () in
  let model : (int, Flow_table.token * int) Hashtbl.t = Hashtbl.create 8 in
  let dead = ref [] in
  let stale_derefs = ref 0 in
  let next_extra = ref 1000 in
  List.iteri
    (fun i op ->
      for _ = 1 to grow_by do
        let flow = !next_extra in
        incr next_extra;
        match Flow_table.register pool ~flow flow with
        | Ok tok -> Hashtbl.replace model flow (tok, flow)
        | Error `Pool_exhausted -> Prop.fail "uncapped table refused a registration"
      done;
      match op with
      | Op_register flow -> (
        let was = Hashtbl.find_opt model flow in
        match Flow_table.register pool ~flow i with
        | Ok tok ->
          (match was with
          | Some (old, _) ->
            dead := old :: !dead;
            Prop.require "replacement mints a fresh token" (old <> tok)
          | None -> ());
          Hashtbl.remove model flow;
          Hashtbl.iter
            (fun _ (live_tok, _) ->
              Prop.require "live slot never handed out twice" (live_tok <> tok))
            model;
          Hashtbl.replace model flow (tok, i)
        | Error `Pool_exhausted ->
          (* Replacement releases first, so only a genuinely new flow
             can see a full pool. *)
          Prop.require "exhaustion only when full of other flows"
            (was = None && Some (Hashtbl.length model) = capacity))
      | Op_release flow ->
        let was = Hashtbl.find_opt model flow in
        let released = Flow_table.release pool ~flow in
        Prop.check_eq ~what:"release reflects registry" string_of_bool (was <> None)
          released;
        (match was with
        | Some (tok, _) ->
          dead := tok :: !dead;
          Hashtbl.remove model flow
        | None -> ())
      | Op_deref flow ->
        (match Hashtbl.find_opt model flow with
        | Some (tok, v) -> (
          match Flow_table.get pool tok with
          | Some v' -> Prop.check_eq ~what:"live deref value" string_of_int v v'
          | None -> Prop.fail "live token failed the generation check")
        | None -> ());
        (match !dead with
        | tok :: _ ->
          incr stale_derefs;
          (match Flow_table.get pool tok with
          | None -> ()
          | Some _ -> Prop.fail "stale token honored")
        | [] -> ()))
    ops;
  Hashtbl.iter
    (fun _ (tok, v) ->
      match Flow_table.get pool tok with
      | Some v' -> Prop.check_eq ~what:"token survives growth" string_of_int v v'
      | None -> Prop.fail "live token failed the generation check at the end")
    model;
  let slots =
    List.rev
      (Flow_table.fold pool ~init:[] ~f:(fun flow _ acc ->
           slot_of (fst (Hashtbl.find model flow)) :: acc))
  in
  Prop.require "iteration visits every live flow once"
    (List.length slots = Hashtbl.length model);
  Prop.require "iteration in slot order" (slots = List.sort_uniq compare slots);
  let s = Flow_table.stats pool in
  Prop.check_eq ~what:"live count" string_of_int (Hashtbl.length model) s.Flow_table.live;
  Prop.check_eq ~what:"ledger: registered - released = live" string_of_int
    s.Flow_table.live
    (s.Flow_table.registered - s.Flow_table.released);
  Prop.check_eq ~what:"stale refs counted exactly" string_of_int !stale_derefs
    s.Flow_table.stale_refs;
  s

(* Capped at 4 slots, then uncapped with enough extra flows mixed into
   the churn to take the table from 16 slots through three doublings. *)
let prop_pool_churn ops =
  ignore (churn_against_model ~capacity:4 ~grow_by:0 ops : Flow_table.stats);
  let s = churn_against_model ~grow_by:(1 + (64 / List.length ops)) ops in
  Prop.require "uncapped table doubled at least three times" (s.Flow_table.capacity >= 128);
  Prop.check_eq ~what:"uncapped rejections" string_of_int 0 s.Flow_table.rejected

(* --- the agent's registry --- *)

let recorded_handles : Algorithm.handle list ref = ref []

let sink_algorithm : Algorithm.t =
  {
    Algorithm.name = "test-sink";
    make =
      (fun handle ->
        recorded_handles := handle :: !recorded_handles;
        Algorithm.no_op_handlers);
  }

let make_agent ?flow_pool () =
  recorded_handles := [];
  let sim = Sim.create () in
  let channel =
    Channel.create ~sim ~latency:(Latency_model.Constant (Time_ns.us 20)) ()
  in
  let to_datapath = ref [] in
  Channel.on_receive channel Channel.Datapath_end (fun msg ->
      to_datapath := msg :: !to_datapath);
  let agent = Agent.create ~sim ~channel ~choose:(fun _ -> sink_algorithm) ?flow_pool () in
  (sim, channel, agent, to_datapath)

let ready flow = Message.Ready { flow; mss = 1448; init_cwnd = 14_480 }
let acked_layout = Message.layout [| "acked" |]

let test_agent_pool_exhaustion () =
  let sim, channel, agent, _ = make_agent ~flow_pool:2 () in
  List.iter (fun f -> Channel.send channel ~from:Channel.Datapath_end (ready f)) [ 1; 2; 3 ];
  Sim.run sim;
  Alcotest.(check int) "pool-sized fleet registered" 2 (Agent.flow_count agent);
  Alcotest.(check int) "overflow refused, counted" 1 (Agent.registrations_rejected agent);
  Alcotest.(check (option string)) "refused flow not served" None
    (Agent.algorithm_name agent ~flow:3);
  (* Teardown frees the slot; the refused flow's watchdog re-handshake
     then succeeds. *)
  Channel.send channel ~from:Channel.Datapath_end (Message.Closed { flow = 1 });
  Channel.send channel ~from:Channel.Datapath_end (ready 3);
  Sim.run sim;
  Alcotest.(check int) "slot recycled" 2 (Agent.flow_count agent);
  Alcotest.(check (option string)) "late flow served after churn" (Some "test-sink")
    (Agent.algorithm_name agent ~flow:3);
  Alcotest.(check int) "pool ledger" 1 (Agent.pool_stats agent).Flow_table.rejected

(* Capped and uncapped alike: the algorithm closure outlived its flow, so
   its actions must be dropped and counted, not applied to whoever
   reuses the slot. *)
let test_agent_stale_handle_dropped () =
  List.iter
    (fun flow_pool ->
      let sim, channel, agent, to_datapath = make_agent ?flow_pool () in
      Channel.send channel ~from:Channel.Datapath_end (ready 1);
      Sim.run sim;
      let handle =
        match !recorded_handles with [ h ] -> h | _ -> Alcotest.fail "no handle"
      in
      handle.Algorithm.set_cwnd 20_000;
      Sim.run sim;
      Alcotest.(check int) "live handle acts" 1 (List.length !to_datapath);
      Channel.send channel ~from:Channel.Datapath_end (Message.Closed { flow = 1 });
      Sim.run sim;
      Channel.send channel ~from:Channel.Datapath_end (ready 2);
      Sim.run sim;
      handle.Algorithm.set_cwnd 99_999;
      handle.Algorithm.set_rate 1e6;
      Sim.run sim;
      Alcotest.(check int) "stale actions dropped" 1 (List.length !to_datapath);
      Alcotest.(check bool) "stale refs counted" true
        ((Agent.pool_stats agent).Flow_table.stale_refs >= 2))
    [ Some 4; None ]

let test_agent_uncapped_growth () =
  let sim, channel, agent, _ = make_agent () in
  Alcotest.(check int) "16-slot start" 16 (Agent.pool_stats agent).Flow_table.capacity;
  for f = 1 to 5_000 do
    Channel.send channel ~from:Channel.Datapath_end (ready f)
  done;
  Sim.run sim;
  Alcotest.(check int) "every flow registered" 5_000 (Agent.flow_count agent);
  Alcotest.(check int) "none rejected" 0 (Agent.registrations_rejected agent);
  let s = Agent.pool_stats agent in
  Alcotest.(check int) "grown by doubling" 8192 s.Flow_table.capacity;
  Alcotest.(check int) "ledger" 5_000 s.Flow_table.registered;
  List.iter
    (fun flow ->
      Alcotest.(check (option string))
        (Printf.sprintf "flow %d served" flow)
        (Some "test-sink") (Agent.algorithm_name agent ~flow))
    [ 1; 16; 17; 4_096; 5_000 ]

let test_agent_reset_clears_pool () =
  let sim, channel, agent, _ = make_agent ~flow_pool:2 () in
  List.iter (fun f -> Channel.send channel ~from:Channel.Datapath_end (ready f)) [ 1; 2 ];
  Sim.run sim;
  Agent.reset agent;
  Alcotest.(check int) "reset empties the registry" 0 (Agent.flow_count agent);
  (* Every slot is free again: a full fleet re-registers cleanly. *)
  List.iter (fun f -> Channel.send channel ~from:Channel.Datapath_end (ready f)) [ 3; 4 ];
  Sim.run sim;
  Alcotest.(check int) "fresh fleet after reset" 2 (Agent.flow_count agent);
  Alcotest.(check int) "no spurious rejections" 0 (Agent.registrations_rejected agent)

(* --- open-loop batching determinism --- *)

(* A deterministic echo algorithm: each report sets cwnd to a value
   computed from the report alone. Feeding the same report script with
   batching on and off must yield the identical command sequence at the
   datapath end — batching may only change the wire framing. *)
let echo_algorithm : Algorithm.t =
  {
    Algorithm.name = "test-echo";
    make =
      (fun handle ->
        {
          Algorithm.no_op_handlers with
          Algorithm.on_report =
            (fun r ->
              handle.Algorithm.set_cwnd
                (int_of_float (Algorithm.field_exn r "acked") * 2));
        });
  }

let run_echo_script ~batching =
  let sim = Sim.create () in
  let channel =
    Channel.create ~sim ~latency:(Latency_model.Constant (Time_ns.us 20))
      ?batching:
        (if batching then
           Some
             {
               Channel.max_count = 8;
               max_bytes = 1 lsl 16;
               deadline = Time_ns.us 200;
             }
         else None)
      ()
  in
  let commands = ref [] in
  Channel.on_receive channel Channel.Datapath_end (fun msg ->
      match msg with
      | Message.Set_cwnd { flow; bytes } -> commands := (flow, bytes) :: !commands
      | _ -> ());
  let _agent = Agent.create ~sim ~channel ~choose:(fun _ -> echo_algorithm) () in
  for f = 0 to 3 do
    Channel.send channel ~from:Channel.Datapath_end (ready f)
  done;
  Sim.run sim;
  for i = 1 to 100 do
    Channel.send channel ~from:Channel.Datapath_end
      (Message.Report
         { flow = i mod 4; layout = acked_layout; values = [| float_of_int (100 * i) |] });
    if i mod 10 = 0 then Sim.run sim
  done;
  Channel.flush channel;
  Sim.run sim;
  (List.rev !commands, Channel.messages_sent channel Channel.Datapath_end,
   Channel.batches_sent channel)

let test_batching_open_loop_determinism () =
  let on, frames_on, batches_on = run_echo_script ~batching:true in
  let off, frames_off, batches_off = run_echo_script ~batching:false in
  Alcotest.(check (list (pair int int))) "identical command sequence" off on;
  Alcotest.(check int) "100 commands" 100 (List.length on);
  Alcotest.(check int) "unbatched never frames" 0 batches_off;
  Alcotest.(check bool) "batching coalesced frames" true (batches_on > 0);
  Alcotest.(check bool)
    (Printf.sprintf "fewer wire frames batched (%d) than unbatched (%d)" frames_on
       frames_off)
    true (frames_on < frames_off)

(* --- the N-member aggregate on an incast fleet --- *)

(* The aggregate installs one measurement-only program per member and
   steers shares with [Set_cwnd]: each flow's share is its newest
   [Set_cwnd] (the capture list is newest-first). *)
let latest_shares captured =
  let tbl = Hashtbl.create 8 in
  List.iter
    (function
      | Message.Set_cwnd { flow; bytes } ->
        if not (Hashtbl.mem tbl flow) then Hashtbl.add tbl flow bytes
      | _ -> ())
    captured;
  tbl

let count_captured captured pred = List.length (List.filter pred !captured)

let make_aggregate_fleet ?initial_segments ?(init_cwnd = 14_480) ~n () =
  let sim = Sim.create () in
  let channel =
    Channel.create ~sim ~latency:(Latency_model.Constant (Time_ns.us 20)) ()
  in
  let captured = ref [] in
  Channel.on_receive channel Channel.Datapath_end (fun msg -> captured := msg :: !captured);
  let agg = Ccp_algorithms.Ccp_aggregate.create ?initial_segments () in
  let algo = Ccp_algorithms.Ccp_aggregate.algorithm agg in
  let _agent =
    Agent.create ~sim ~channel ~choose:(fun _ -> algo) ~flow_pool:(max 16 n) ()
  in
  for f = 1 to n do
    Channel.send channel ~from:Channel.Datapath_end
      (Message.Ready { flow = f; mss = 1448; init_cwnd })
  done;
  Sim.run sim;
  (sim, channel, agg, captured)

(* One report from every member, in flow order. Growth and join-time
   re-division reach a member at its own next report. *)
let report_round sim channel ~n ~acked =
  for f = 1 to n do
    Channel.send channel ~from:Channel.Datapath_end
      (Message.Report { flow = f; layout = acked_layout; values = [| acked |] })
  done;
  Sim.run sim

let check_conservation ~what agg ~n captured =
  let shares = latest_shares !captured in
  Alcotest.(check int) (what ^ ": every member steered") n (Hashtbl.length shares);
  let cwnd = Ccp_algorithms.Ccp_aggregate.aggregate_cwnd agg in
  let equal_split = max 1448 (cwnd / n) in
  let sum = Hashtbl.fold (fun _ s acc -> acc + s) shares 0 in
  Hashtbl.iter
    (fun flow s ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: flow %d share %d within one segment of split %d" what flow s
           equal_split)
        true
        (abs (s - equal_split) <= 1448))
    shares;
  (* Window conserved across re-division: the shares re-sum to the
     aggregate (integer division slack at most one segment per member),
     except under the per-member floor, where the floor wins. *)
  if cwnd >= n * 1448 then
    Alcotest.(check bool)
      (Printf.sprintf "%s: shares %d re-sum to aggregate %d" what sum cwnd)
      true
      (sum <= cwnd && cwnd - sum <= n * 1448)
  else Alcotest.(check int) (what ^ ": floored shares") (n * 1448) sum

let is_install = function Message.Install _ -> true | _ -> false

let test_aggregate_membership_and_split () =
  let n = 8 in
  let sim, channel, agg, captured = make_aggregate_fleet ~n () in
  Alcotest.(check int) "all members joined" n
    (Ccp_algorithms.Ccp_aggregate.member_count agg);
  Alcotest.(check int) "one install per member" n (count_captured captured is_install);
  report_round sim channel ~n ~acked:0.0;
  check_conservation ~what:"after each member's next report" agg ~n captured;
  (* Additive increase: a round of reports grows the aggregate, each
     reporter takes the share of the moment, and none is re-installed. *)
  let before = Ccp_algorithms.Ccp_aggregate.aggregate_cwnd agg in
  let frames_before = List.length !captured in
  report_round sim channel ~n ~acked:1448.0;
  Alcotest.(check bool) "additive increase grew the aggregate" true
    (Ccp_algorithms.Ccp_aggregate.aggregate_cwnd agg > before);
  check_conservation ~what:"after increase" agg ~n captured;
  Alcotest.(check int) "still one install per member" n (count_captured captured is_install);
  Alcotest.(check bool) "at most one frame per report" true
    (List.length !captured - frames_before <= n)

let test_aggregate_floor_and_decrease () =
  let n = 8 in
  (* Aggregate smaller than n segments: every member gets the one-MSS
     floor rather than a sub-segment share. *)
  let sim, channel, agg, captured =
    make_aggregate_fleet ~initial_segments:2 ~init_cwnd:2896 ~n ()
  in
  Alcotest.(check int) "tiny aggregate" 2896
    (Ccp_algorithms.Ccp_aggregate.aggregate_cwnd agg);
  report_round sim channel ~n ~acked:0.0;
  check_conservation ~what:"floored split" agg ~n captured;
  (* Multiplicative decrease fires once per guessed RTT, not once per
     member loss: two urgents inside the window halve only once. A big
     aggregate keeps the halving above the 2-segments-per-member floor,
     so a second (wrong) halving would be visible. *)
  let sim2, channel2, agg2, captured2 = make_aggregate_fleet ~initial_segments:40 ~n () in
  report_round sim2 channel2 ~n ~acked:0.0;
  let urgent flow =
    Channel.send channel2 ~from:Channel.Datapath_end
      (Message.Urgent
         { flow; kind = Message.Dup_ack_loss; cwnd_at_event = 1448; inflight_at_event = 0 })
  in
  let before = Ccp_algorithms.Ccp_aggregate.aggregate_cwnd agg2 in
  Sim.schedule sim2 ~at:(Time_ns.ms 20) (fun () -> urgent 1) |> ignore;
  Sim.schedule sim2 ~at:(Time_ns.ms 21) (fun () -> urgent 2) |> ignore;
  Sim.run sim2;
  let after = Ccp_algorithms.Ccp_aggregate.aggregate_cwnd agg2 in
  Alcotest.(check int) "one decrease for one loss event"
    (max (2 * 1448 * n) (before / 2))
    after;
  Alcotest.(check bool) "halving dominated the per-member floor" true
    (before / 2 > 2 * 1448 * n);
  (* A decrease reaches every member above the new share at once, with
     no report in between. *)
  check_conservation ~what:"after decrease" agg2 ~n captured2;
  report_round sim2 channel2 ~n ~acked:0.0;
  check_conservation ~what:"after each member's next report" agg2 ~n captured2

(* Below its floor of two segments per member (one after a timeout), a
   decrease leaves the aggregate alone: a loss never raises it. *)
let test_aggregate_decrease_never_raises () =
  let n = 8 in
  let sim, channel, agg, _ = make_aggregate_fleet ~initial_segments:2 ~init_cwnd:2896 ~n () in
  let urgent at kind =
    Sim.schedule sim ~at (fun () ->
        Channel.send channel ~from:Channel.Datapath_end
          (Message.Urgent { flow = 1; kind; cwnd_at_event = 1448; inflight_at_event = 0 }))
    |> ignore
  in
  let aggregate () = Ccp_algorithms.Ccp_aggregate.aggregate_cwnd agg in
  urgent (Time_ns.ms 20) Message.Dup_ack_loss;
  Sim.run sim;
  Alcotest.(check int) "dup-ack below the floor" 2896 (aggregate ());
  urgent (Time_ns.ms 40) Message.Timeout;
  Sim.run sim;
  Alcotest.(check int) "timeout below the floor" 2896 (aggregate ())

(* A flow that joins again (a watchdog probe, a re-admission, a warm
   restart) stays one member, and every share stays the aggregate over
   the distinct flows. *)
let test_aggregate_rejoin_counted_once () =
  let sim = Sim.create () in
  let channel = Channel.create ~sim ~latency:(Latency_model.Constant (Time_ns.us 20)) () in
  let captured = ref [] in
  Channel.on_receive channel Channel.Datapath_end (fun msg -> captured := msg :: !captured);
  let agg = Ccp_algorithms.Ccp_aggregate.create () in
  let algo = Ccp_algorithms.Ccp_aggregate.algorithm agg in
  let _agent = Agent.create ~sim ~channel ~choose:(fun _ -> algo) () in
  List.iter
    (fun flow ->
      Channel.send channel ~from:Channel.Datapath_end
        (Message.Ready { flow; mss = 1448; init_cwnd = 14_480 });
      Sim.run sim)
    [ 0; 0; 1 ];
  Alcotest.(check int) "two members" 2 (Ccp_algorithms.Ccp_aggregate.member_count agg);
  let shares = latest_shares !captured in
  Alcotest.(check (option int)) "flow 1 sent half the aggregate"
    (Some (Ccp_algorithms.Ccp_aggregate.aggregate_cwnd agg / 2))
    (Hashtbl.find_opt shares 1)

(* Liveness: steering never stops a member measuring. On a staggered
   fleet, the incast scenario's N=64 staggered cell with the aggregate,
   every member delivers at least 0.3 reports per base RTT of its
   lifetime (a member's program reports once per RTT, and the RTT
   exceeds the base RTT under load). *)
let test_aggregate_liveness () =
  let module Incast = Ccp_core.Scenarios.Incast in
  let module Experiment = Ccp_core.Experiment in
  let n = 64 and duration = Time_ns.ms 500 in
  let rate_bps = Incast.default_rate_bps and base_rtt = Incast.default_base_rtt in
  let reports = Array.make n 0 in
  let algo = Ccp_algorithms.Ccp_aggregate.algorithm (Ccp_algorithms.Ccp_aggregate.create ()) in
  let counting =
    {
      algo with
      Algorithm.make =
        (fun handle ->
          let h = algo.Algorithm.make handle in
          let flow = handle.Algorithm.info.Algorithm.flow in
          {
            h with
            Algorithm.on_report =
              (fun r ->
                reports.(flow) <- reports.(flow) + 1;
                h.Algorithm.on_report r);
          });
    }
  in
  let start_at i = Time_ns.scale duration (0.25 *. float_of_int i /. float_of_int n) in
  let bdp_bytes = rate_bps *. Time_ns.to_float_sec base_rtt /. 8.0 in
  let base = Experiment.default_config ~rate_bps ~base_rtt ~duration in
  ignore
    (Experiment.run
       {
         base with
         Experiment.seed = 42;
         buffer_bytes = max 9000 (int_of_float (bdp_bytes /. 4.0));
         warmup = Time_ns.scale duration 0.1;
         flows =
           List.init n (fun i -> Experiment.flow ~start_at:(start_at i) (Experiment.Ccp_cc counting));
         ipc_batching = Some Incast.default_batching;
         agent_flow_pool = Some n;
         datapath = { Ccp_datapath.Ccp_ext.default_config with flow_capacity = n };
       }
      : Experiment.result);
  let slowest = ref (infinity, -1) in
  Array.iteri
    (fun i count ->
      let lifetime_rtts =
        Time_ns.to_float_sec (Time_ns.sub duration (start_at i)) /. Time_ns.to_float_sec base_rtt
      in
      let per_rtt = float_of_int count /. lifetime_rtts in
      if per_rtt < fst !slowest then slowest := (per_rtt, i))
    reports;
  let per_rtt, flow = !slowest in
  let silent = Array.fold_left (fun acc c -> if c = 0 then acc + 1 else acc) 0 reports in
  Alcotest.(check int) "members that never reported" 0 silent;
  Alcotest.(check bool)
    (Printf.sprintf "slowest member (flow %d) reports %.2f per base RTT, floor 0.3" flow per_rtt)
    true (per_rtt >= 0.3)

let suite =
  [
    ( "scale.pool",
      [
        Alcotest.test_case "lifecycle" `Quick test_pool_lifecycle;
        Alcotest.test_case "replacement and exhaustion" `Quick
          test_pool_replacement_and_exhaustion;
        Alcotest.test_case "deterministic iteration" `Quick test_pool_iter_order;
        Prop.test_case ~cases:200 ~name:"churn invariants vs model registry"
          ~gen:gen_churn ~show:show_churn prop_pool_churn;
      ] );
    ( "scale.agent",
      [
        Alcotest.test_case "pool exhaustion refuses, churn recycles" `Quick
          test_agent_pool_exhaustion;
        Alcotest.test_case "stale handle dropped and counted" `Quick
          test_agent_stale_handle_dropped;
        Alcotest.test_case "reset clears the pool" `Quick test_agent_reset_clears_pool;
        Alcotest.test_case "uncapped registry grows to 5000 flows" `Quick
          test_agent_uncapped_growth;
      ] );
    ( "scale.batching",
      [
        Alcotest.test_case "open-loop determinism" `Quick
          test_batching_open_loop_determinism;
      ] );
    ( "scale.aggregate",
      [
        Alcotest.test_case "membership and equal split" `Quick
          test_aggregate_membership_and_split;
        Alcotest.test_case "floor and single decrease" `Quick
          test_aggregate_floor_and_decrease;
        Alcotest.test_case "every member keeps reporting" `Quick test_aggregate_liveness;
        Alcotest.test_case "a decrease never raises" `Quick test_aggregate_decrease_never_raises;
        Alcotest.test_case "a re-join is counted once" `Quick test_aggregate_rejoin_counted_once;
      ] );
  ]
