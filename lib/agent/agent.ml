open Ccp_util
open Ccp_eventsim
open Ccp_ipc

(* Overload control: with [overload] armed, reports are parked in bounded
   per-flow FIFO queues and drained in budgeted round-robin rounds instead
   of being dispatched synchronously. Above the high watermark the agent
   sheds deterministically — always the oldest report of the
   deepest-backlog flow (ties to the lowest flow id), and never a flow's
   only queued report — so a hot flow absorbs its own overload and a quiet
   flow is never starved of its one pending update. *)
type overload = {
  queue_capacity : int;
  high_watermark : int;
  dispatch_budget : int;
  dispatch_interval : Time_ns.t;
}

(* Per-flow degradation: [error_threshold] consecutive handler failures
   quarantine that flow agent-side; the agent stops serving it, the
   datapath watchdog takes the flow to native CC, and after an
   exponentially backed-off pause the agent rebuilds a fresh algorithm
   instance and tries to win the flow back. *)
type degrade = {
  error_threshold : int;
  backoff_initial : Time_ns.t;
  backoff_max : Time_ns.t;
}

type flow_state = Active | Degraded of { until : Time_ns.t }

type flow_entry = {
  info : Algorithm.flow_info;
  mutable algorithm_name : string;
  mutable handlers : Algorithm.handlers;
  mutable consec_errors : int;
  mutable state : flow_state;
  mutable backoff : Time_ns.t;  (* next quarantine duration *)
  mutable last_cwnd : int;  (* last commanded via set_cwnd, bytes; 0 = never *)
  mutable last_rate : float;  (* last commanded via set_rate; 0 = never *)
}

(* Each queued element remembers its arrival time, so dispatch can report
   how long reports sat waiting — the scenario-level starvation metric. *)
type flow_queue = { fq : (Message.t * int * Time_ns.t) Queue.t; mutable in_rr : bool }

type t = {
  sim : Sim.t;
  channel : Channel.t;
  choose : Algorithm.flow_info -> Algorithm.t;
  policy : Algorithm.flow_info -> Policy.t;
  (* The per-flow registry: a generation-checked slot table, so a handle
     that outlives its flow is detected (counted stale) instead of
     steering the slot's next occupant. Capped by [flow_pool], it
     refuses registrations past the cap; uncapped, it grows. It keeps
     the stale-deref and rejected-registration counts. *)
  flows : flow_entry Flow_table.t;
  overload : overload option;
  degrade : degrade option;
  queues : (int, flow_queue) Hashtbl.t;
  rr : int Queue.t;  (* flows with queued reports, each at most once *)
  mutable queued_total : int;
  mutable round_scheduled : bool;
  pending_restore : (int, Checkpoint.flow_snapshot) Hashtbl.t;
  mutable max_queue_wait : Time_ns.t;
  mutable typechecked : Ccp_lang.Ast.program option;
      (* the last program the typecheck passed, for any flow *)
  (* One store per counted fact: a counter in the obs bundle's registry,
     or a private one without a bundle ({!Ccp_obs.Obs.counter}). *)
  typechecks : Ccp_obs.Metrics.counter;
  reports_received : Ccp_obs.Metrics.counter;
  urgents_received : Ccp_obs.Metrics.counter;
  installs_sent : Ccp_obs.Metrics.counter;
  handler_errors : Ccp_obs.Metrics.counter;
  install_rejects : Ccp_obs.Metrics.counter;
  quarantines_seen : Ccp_obs.Metrics.counter;
  reports_shed : Ccp_obs.Metrics.counter;
  dispatch_rounds : Ccp_obs.Metrics.counter;
  degradations : Ccp_obs.Metrics.counter;
  degraded_drops : Ccp_obs.Metrics.counter;
  warm_restores : Ccp_obs.Metrics.counter;
  obs : agent_obs option;
  tracer : Ccp_obs.Tracer.t option;
}

and agent_obs = {
  o_queue_depth : Ccp_obs.Metrics.gauge;
  o_pool_occupancy : Ccp_obs.Metrics.gauge;
  (* Per-flow heavy-hitter sketches; [None] when telemetry is off. *)
  tk_sheds : Ccp_obs.Topk.sketch option;
  tk_queue_wait : Ccp_obs.Topk.sketch option;
}

let make_agent_obs obs =
  let open Ccp_obs in
  let m = obs.Obs.metrics in
  {
    o_queue_depth = Metrics.gauge m ~unit_:"msgs" "agent.queue_depth";
    o_pool_occupancy = Metrics.gauge m ~unit_:"flows" "agent.pool.occupancy";
    tk_sheds = Obs.flow_sketch obs "flow.sheds";
    tk_queue_wait = Obs.flow_sketch obs "flow.queue_wait_us";
  }

let note_queue_depth t =
  match t.obs with
  | Some h -> Ccp_obs.Metrics.set h.o_queue_depth (float_of_int t.queued_total)
  | None -> ()

(* Republish the flow pool's occupancy as a gauge after any registry
   mutation, so the windowed sampler can see it. *)
let note_pool t =
  match t.obs with
  | Some h -> Ccp_obs.Metrics.set h.o_pool_occupancy (float_of_int (Flow_table.live t.flows))
  | None -> ()

let is_degraded entry = match entry.state with Degraded _ -> true | Active -> false

(* ---- overload queue ----------------------------------------------------- *)

let shed_span t span =
  match t.tracer with
  | Some tr when span >= 0 -> Ccp_obs.Tracer.shed tr span ~now:(Sim.now t.sim)
  | _ -> ()

let count_shed t ~flow span =
  Ccp_obs.Metrics.incr t.reports_shed;
  (match t.obs with
  | Some { tk_sheds = Some s; _ } -> Ccp_obs.Topk.touch s flow
  | _ -> ());
  shed_span t span

(* Shed the oldest report of the deepest-backlog flow (ties to the lowest
   flow id) until the total depth is back at [limit]. [floor] is the depth
   below which a flow is exempt: 1 for the watermark pass (never take a
   flow's only queued report), 0 for the hard capacity cap. *)
let shed_to t ~limit ~floor =
  let continue_ = ref true in
  while t.queued_total > limit && !continue_ do
    let victim = ref (-1) and depth = ref floor in
    Hashtbl.iter
      (fun flow q ->
        let d = Queue.length q.fq in
        if d > !depth || (d = !depth && d > floor && (!victim < 0 || flow < !victim))
        then begin
          victim := flow;
          depth := d
        end)
      t.queues;
    match !victim with
    | -1 -> continue_ := false
    | flow ->
      let q = Hashtbl.find t.queues flow in
      let _, span, _ = Queue.pop q.fq in
      t.queued_total <- t.queued_total - 1;
      count_shed t ~flow span
  done

let purge_queue t flow =
  match Hashtbl.find_opt t.queues flow with
  | None -> ()
  | Some q ->
    while not (Queue.is_empty q.fq) do
      let _, span, _ = Queue.pop q.fq in
      t.queued_total <- t.queued_total - 1;
      count_shed t ~flow span
    done;
    note_queue_depth t

(* ---- handler isolation -------------------------------------------------- *)

(* The typecheck of an install, run once per program for the whole
   agent: a program bit-identical ({!Ccp_lang.Ast.identical_program}) to
   the last one that passed, on whichever flow, passes without another
   check. Reno and the aggregate install the same program on every flow.
   A program that fails is never remembered, so it fails again. *)
let typecheck t program =
  match t.typechecked with
  | Some ok when Ccp_lang.Ast.identical_program ok program -> Ok ()
  | Some _ | None -> (
    Ccp_obs.Metrics.incr t.typechecks;
    match Ccp_lang.Typecheck.check program with
    | Ok _ ->
      t.typechecked <- Some program;
      Ok ()
    | Error (first :: _) -> Error first
    | Error [] -> assert false)

(* Run one flow's handler [f] on [x] with failure isolation: an exception
   is counted and, with [degrade] armed, [error_threshold] consecutive
   failures quarantine the flow agent-side with a backed-off
   re-admission. *)
let rec guard_flow : 'a. t -> flow_entry -> ('a -> unit) -> 'a -> unit =
 fun t entry f x ->
  match f x with
  | () ->
    if entry.consec_errors > 0 then begin
      entry.consec_errors <- 0;
      match t.degrade with
      | Some d -> entry.backoff <- d.backoff_initial
      | None -> ()
    end
  | exception exn ->
    Ccp_obs.Metrics.incr t.handler_errors;
    entry.consec_errors <- entry.consec_errors + 1;
    Logs.warn (fun m ->
        m "agent: flow %d handler raised %s" entry.info.Algorithm.flow
          (Printexc.to_string exn));
    trip_degrade t entry

and trip_degrade t entry =
  match t.degrade with
  | None -> ()
  | Some d ->
    if entry.consec_errors >= d.error_threshold && not (is_degraded entry) then begin
      let flow = entry.info.Algorithm.flow in
      let until = Time_ns.add (Sim.now t.sim) entry.backoff in
      entry.state <- Degraded { until };
      Ccp_obs.Metrics.incr t.degradations;
      Logs.warn (fun m ->
          m "agent: flow %d degraded after %d consecutive errors; re-admission at %s"
            flow entry.consec_errors (Time_ns.to_string until));
      purge_queue t flow;
      entry.backoff <- Time_ns.min d.backoff_max (Time_ns.scale entry.backoff 2.0);
      ignore
        (Sim.schedule t.sim ~at:until (fun () -> readmit t entry flow))
    end

(* Re-admission after backoff: rebuild a fresh algorithm instance for the
   flow (the old one's state is suspect) and run its [on_ready] under the
   same isolation, so an immediately-failing re-admission re-trips with a
   doubled backoff. The physical-equality check drops stale timers left
   behind by [reset]/restart or a [Closed]. *)
and readmit t entry flow =
  match Flow_table.find t.flows ~flow with
  | Some e when e == entry && is_degraded entry ->
    let algorithm = t.choose entry.info in
    let policy = t.policy entry.info in
    let tok = Option.value ~default:Flow_table.no_token (Flow_table.token_of t.flows ~flow) in
    let handle = make_handle t entry.info policy ~tok in
    entry.handlers <- algorithm.Algorithm.make handle;
    entry.algorithm_name <- algorithm.Algorithm.name;
    entry.consec_errors <- 0;
    entry.state <- Active;
    Logs.info (fun m -> m "agent: flow %d re-admitted" flow);
    guard_flow t entry entry.handlers.Algorithm.on_ready ()
  | _ -> ()

and make_handle t (info : Algorithm.flow_info) policy ~tok : Algorithm.handle =
  let flow = info.Algorithm.flow in
  (* Every action goes through one generation-checked deref of [tok]: a
     handle captured by a closure that outlives its flow fails the check
     (the table counts it stale) and the action is dropped — never
     applied to, or sent on behalf of, whatever flow reused the slot. *)
  let action ~update go =
    match Flow_table.get t.flows tok with
    | Some entry ->
      update entry;
      go ()
    | None -> ()
  in
  (* The last program this handle installed, with the [Install] frame
     that carries it (the policy applied). Vegas re-sends it on most of
     its installs and BBR on most of its few; Cubic, DCTCP, Timely, AIMD
     and PCC almost never do, since each install carries a new window or
     rate (the measured counts are at [Ccp_ext.install_program]; this
     memo hits exactly as often as the datapath's own-program match). Reno
     and the aggregate install once. A bit-identical program
     ({!Ccp_lang.Ast.identical_program}) cannot fail where it passed, nor
     encode differently: the policy is fixed per handle. Invalid programs
     are never remembered. *)
  let checked = ref None in
  let install program =
    let frame =
      match !checked with
      | Some (ok, frame) when Ccp_lang.Ast.identical_program ok program -> frame
      | Some _ | None -> (
        match typecheck t program with
        | Ok () ->
          let frame =
            Codec.encode (Message.Install { flow; program = Policy.apply_program policy program })
          in
          checked := Some (program, frame);
          frame
        | Error first ->
          invalid_arg
            (Format.asprintf "Agent.install: invalid program: %a" Ccp_lang.Typecheck.pp_error
               first))
    in
    match Flow_table.get t.flows tok with
    | Some _ ->
      Ccp_obs.Metrics.incr t.installs_sent;
      Channel.send_install_frame t.channel frame
    | None -> ()
  in
  {
    info;
    install;
    install_text = (fun text -> install (Ccp_lang.Parser.parse_program text));
    set_cwnd =
      (fun bytes ->
        let bytes = Policy.clamp_cwnd policy bytes in
        action
          ~update:(fun entry -> entry.last_cwnd <- bytes)
          (fun () ->
            Channel.send t.channel ~from:Channel.Agent_end
              (Message.Set_cwnd { flow; bytes })));
    set_rate =
      (fun rate ->
        let bytes_per_sec = Policy.clamp_rate policy rate in
        action
          ~update:(fun entry -> entry.last_rate <- bytes_per_sec)
          (fun () ->
            Channel.send t.channel ~from:Channel.Agent_end
              (Message.Set_rate { flow; bytes_per_sec })));
    now_us = (fun () -> Time_ns.to_float_us (Sim.now t.sim));
  }

let on_ready t ~flow ~mss ~init_cwnd =
  match Flow_table.find t.flows ~flow with
  | Some entry when is_degraded entry ->
    (* The watchdog's Ready probes keep arriving while the flow is
       quarantined agent-side; re-admission is owned by the backoff
       timer, not the probe. *)
    ()
  | _ ->
    let info = { Algorithm.flow; mss; init_cwnd } in
    let algorithm = t.choose info in
    let policy = t.policy info in
    let backoff =
      match t.degrade with Some d -> d.backoff_initial | None -> Time_ns.ms 100
    in
    let entry =
      {
        info;
        algorithm_name = algorithm.Algorithm.name;
        handlers = Algorithm.no_op_handlers;
        consec_errors = 0;
        state = Active;
        backoff;
        last_cwnd = 0;
        last_rate = 0.0;
      }
    in
    (* The slot is taken before the algorithm instance is built so the
       handle's token is live during [make] — aggregates install to
       sibling members from there. *)
    let registered = Flow_table.register t.flows ~flow entry in
    note_pool t;
    match registered with
    | Error `Pool_exhausted ->
      (* Structured rejection: the flow simply stays unserved (its
         datapath watchdog keeps native CC) and the refusal is counted,
         instead of a capped table quietly growing. *)
      Logs.warn (fun m ->
          m "agent: flow %d registration rejected: flow pool exhausted (capacity %d)" flow
            (Flow_table.capacity t.flows))
    | Ok tok ->
      let handle = make_handle t info policy ~tok in
      entry.handlers <- algorithm.Algorithm.make handle;
      (* Warm restart: replay the checkpointed registers into the fresh
         instance before [on_ready] runs, so the program it installs starts
         from the pre-crash operating point. Register-less algorithms get a
         generic nudge to the last commanded cwnd/rate instead. *)
      (match Hashtbl.find_opt t.pending_restore flow with
      | Some snap when String.equal snap.Checkpoint.algorithm algorithm.Algorithm.name ->
        Hashtbl.remove t.pending_restore flow;
        Ccp_obs.Metrics.incr t.warm_restores;
        if Array.length snap.Checkpoint.registers > 0 then
          guard_flow t entry entry.handlers.Algorithm.on_restore snap.Checkpoint.registers;
        guard_flow t entry entry.handlers.Algorithm.on_ready ();
        if Array.length snap.Checkpoint.registers = 0 then begin
          if snap.Checkpoint.cwnd > 0 then handle.Algorithm.set_cwnd snap.Checkpoint.cwnd;
          if snap.Checkpoint.rate > 0.0 then handle.Algorithm.set_rate snap.Checkpoint.rate
        end
      | Some _ ->
        (* A snapshot from a different algorithm is stale, not restorable. *)
        Hashtbl.remove t.pending_restore flow;
        guard_flow t entry entry.handlers.Algorithm.on_ready ()
      | None -> guard_flow t entry entry.handlers.Algorithm.on_ready ())

(* Hand [x] to one of [flow]'s handlers, picked by [handler]: nothing
   for an unknown flow, a counted drop for a degraded one, and otherwise
   the call under [guard_flow]. *)
let to_flow t ~flow handler x =
  match Flow_table.find t.flows ~flow with
  | Some entry when is_degraded entry -> Ccp_obs.Metrics.incr t.degraded_drops
  | Some entry -> guard_flow t entry (handler entry.handlers) x
  | None -> ()

let dispatch t (msg : Message.t) =
  match msg with
  | Message.Ready { flow; mss; init_cwnd } -> on_ready t ~flow ~mss ~init_cwnd
  | Message.Report report ->
    Ccp_obs.Metrics.incr t.reports_received;
    to_flow t ~flow:report.Message.flow (fun h -> h.Algorithm.on_report) report
  | Message.Report_vector report ->
    Ccp_obs.Metrics.incr t.reports_received;
    to_flow t ~flow:report.Message.flow (fun h -> h.Algorithm.on_report_vector) report
  | Message.Urgent urgent ->
    Ccp_obs.Metrics.incr t.urgents_received;
    to_flow t ~flow:urgent.Message.flow (fun h -> h.Algorithm.on_urgent) urgent
  | Message.Install_result result ->
    (match result.Message.verdict with
    | Message.Accepted -> ()
    | Message.Rejected { reason; detail } ->
      Ccp_obs.Metrics.incr t.install_rejects;
      Logs.warn (fun m ->
          m "agent: datapath rejected install for flow %d: %s (%s)" result.Message.flow
            (Ccp_lang.Limits.reason_to_string reason)
            detail));
    to_flow t ~flow:result.Message.flow (fun h -> h.Algorithm.on_install_result) result
  | Message.Quarantined q ->
    Ccp_obs.Metrics.incr t.quarantines_seen;
    Logs.warn (fun m ->
        m "agent: flow %d quarantined after %d incidents (dominant %s)" q.Message.flow
          q.Message.incidents
          (Message.incident_kind_to_string q.Message.dominant));
    to_flow t ~flow:q.Message.flow (fun h -> h.Algorithm.on_quarantine) q
  | Message.Closed { flow } ->
    purge_queue t flow;
    ignore (Flow_table.release t.flows ~flow : bool);
    note_pool t
  | Message.Install _ | Message.Set_cwnd _ | Message.Set_rate _ ->
    (* Datapath-bound traffic is never delivered to the agent end. *)
    ()

(* Handler dispatch runs inside the message's span (when it carries one):
   [handler_begin] arms the span so control messages the algorithm sends
   attach to it, and [handler_end] times the handler and finalizes spans
   that produced no action. *)
let dispatch_with_span t msg span =
  match t.tracer with
  | Some tr when span >= 0 ->
    Ccp_obs.Tracer.handler_begin tr span;
    dispatch t msg;
    Ccp_obs.Tracer.handler_end tr span ~now:(Sim.now t.sim)
  | _ -> dispatch t msg

(* ---- budgeted round-robin dispatch rounds ------------------------------- *)

let rec schedule_round t ov =
  t.round_scheduled <- true;
  ignore
    (Sim.schedule_after t.sim ~delay:ov.dispatch_interval (fun () -> run_round t ov))

and run_round t ov =
  t.round_scheduled <- false;
  Ccp_obs.Metrics.incr t.dispatch_rounds;
  let budget = ref ov.dispatch_budget in
  while !budget > 0 && not (Queue.is_empty t.rr) do
    let flow = Queue.pop t.rr in
    match Hashtbl.find_opt t.queues flow with
    | None -> ()
    | Some q ->
      if Queue.is_empty q.fq then q.in_rr <- false
      else begin
        let msg, span, enq_at = Queue.pop q.fq in
        t.queued_total <- t.queued_total - 1;
        let wait = Time_ns.sub (Sim.now t.sim) enq_at in
        if Time_ns.compare wait t.max_queue_wait > 0 then t.max_queue_wait <- wait;
        (match t.obs with
        | Some { tk_queue_wait = Some s; _ } ->
          (* Weighted by waited microseconds, so the sketch ranks flows
             by total queueing imposed, not report count. *)
          Ccp_obs.Topk.add s flow (int_of_float (Time_ns.to_float_us wait))
        | _ -> ());
        decr budget;
        dispatch_with_span t msg span;
        if Queue.is_empty q.fq then q.in_rr <- false else Queue.push flow t.rr
      end
  done;
  note_queue_depth t;
  note_pool t;
  if t.queued_total > 0 then schedule_round t ov

let enqueue t ov ~flow msg =
  let span = Channel.rx_span t.channel in
  let q =
    match Hashtbl.find_opt t.queues flow with
    | Some q -> q
    | None ->
      let q = { fq = Queue.create (); in_rr = false } in
      Hashtbl.replace t.queues flow q;
      q
  in
  Queue.push (msg, span, Sim.now t.sim) q.fq;
  t.queued_total <- t.queued_total + 1;
  if not q.in_rr then begin
    q.in_rr <- true;
    Queue.push flow t.rr
  end;
  shed_to t ~limit:ov.high_watermark ~floor:1;
  shed_to t ~limit:ov.queue_capacity ~floor:0;
  note_queue_depth t;
  if not t.round_scheduled then schedule_round t ov

let queueable t flow =
  match Flow_table.find t.flows ~flow with
  | Some entry -> not (is_degraded entry)
  | None -> false

let on_message t (msg : Message.t) =
  match (t.overload, msg) with
  | Some ov, (Message.Report { flow; _ } | Message.Report_vector { flow; _ })
    when queueable t flow ->
    (* Only reports queue; Ready/Urgent/Install_result/Quarantined/Closed
       stay synchronous — the urgent path must bypass batching (§2.4), and
       control-plane verdicts are rare and cheap. Reports for unknown or
       degraded flows fall through to [dispatch], which drops and counts
       them as before. *)
    enqueue t ov ~flow msg
  | _ -> dispatch_with_span t msg (Channel.rx_span t.channel)

(* ---- checkpoint / warm restore ------------------------------------------ *)

let checkpoint t =
  let flows =
    Flow_table.fold t.flows ~init:[]
      ~f:(fun flow entry acc ->
        let registers =
          try entry.handlers.Algorithm.on_checkpoint () with _ -> [||]
        in
        {
          Checkpoint.flow;
          algorithm = entry.algorithm_name;
          cwnd = entry.last_cwnd;
          rate = entry.last_rate;
          registers;
        }
        :: acc)
    |> List.sort (fun a b -> compare a.Checkpoint.flow b.Checkpoint.flow)
  in
  { Checkpoint.taken_at = Sim.now t.sim; flows }

let restore t (ckpt : Checkpoint.t) =
  List.iter
    (fun snap -> Hashtbl.replace t.pending_restore snap.Checkpoint.flow snap)
    ckpt.Checkpoint.flows

let create ~sim ~channel ~choose ?(policy = fun _ -> Policy.unrestricted) ?overload
    ?degrade ?flow_pool ?obs () =
  let counter unit_ name = Ccp_obs.Obs.counter obs ~unit_ name in
  Option.iter
    (fun ov ->
      if ov.queue_capacity <= 0 then invalid_arg "Agent: queue_capacity must be > 0";
      if ov.high_watermark <= 0 || ov.high_watermark > ov.queue_capacity then
        invalid_arg "Agent: high_watermark must be in (0, queue_capacity]";
      if ov.dispatch_budget <= 0 then invalid_arg "Agent: dispatch_budget must be > 0";
      if not (Time_ns.is_positive ov.dispatch_interval) then
        invalid_arg "Agent: dispatch_interval must be positive")
    overload;
  Option.iter
    (fun d ->
      if d.error_threshold <= 0 then invalid_arg "Agent: error_threshold must be > 0";
      if not (Time_ns.is_positive d.backoff_initial) then
        invalid_arg "Agent: backoff_initial must be positive";
      if Time_ns.compare d.backoff_max d.backoff_initial < 0 then
        invalid_arg "Agent: backoff_max must be >= backoff_initial")
    degrade;
  let t =
    {
      sim;
      channel;
      choose;
      policy;
      flows = Flow_table.create ?capacity:flow_pool ?obs ();
      overload;
      degrade;
      queues = Hashtbl.create 8;
      rr = Queue.create ();
      queued_total = 0;
      round_scheduled = false;
      pending_restore = Hashtbl.create 4;
      max_queue_wait = Time_ns.zero;
      typechecked = None;
      typechecks = counter "programs" "agent.typechecks";
      reports_received = counter "msgs" "agent.reports_received";
      urgents_received = counter "msgs" "agent.urgents_received";
      installs_sent = counter "msgs" "agent.installs_sent";
      handler_errors = counter "errors" "agent.handler_errors";
      install_rejects = counter "msgs" "agent.install_rejects";
      quarantines_seen = counter "msgs" "agent.quarantines_seen";
      reports_shed = counter "msgs" "agent.reports_shed";
      dispatch_rounds = counter "rounds" "agent.dispatch_rounds";
      degradations = counter "events" "agent.degradations";
      degraded_drops = counter "msgs" "agent.degraded_drops";
      warm_restores = counter "events" "agent.warm_restores";
      obs = Option.map make_agent_obs obs;
      tracer = (match obs with Some o -> o.Ccp_obs.Obs.tracer | None -> None);
    }
  in
  Channel.on_receive channel Channel.Agent_end (on_message t);
  t

let reset t =
  (* Clearing bumps every slot's generation, so handles and timers from
     before the crash come back stale, not aimed at new tenants. *)
  Flow_table.clear t.flows;
  (* A crashed process loses its report queues too; the spans parked
     there are finalized as shed so the tracer pool cannot leak across a
     restart. *)
  Hashtbl.iter
    (fun flow q ->
      while not (Queue.is_empty q.fq) do
        let _, span, _ = Queue.pop q.fq in
        t.queued_total <- t.queued_total - 1;
        count_shed t ~flow span
      done)
    t.queues;
  Hashtbl.reset t.queues;
  Queue.clear t.rr;
  t.queued_total <- 0;
  note_queue_depth t;
  note_pool t;
  Hashtbl.reset t.pending_restore

let flow_count t = Flow_table.live t.flows

let algorithm_name t ~flow =
  Option.map (fun e -> e.algorithm_name) (Flow_table.find t.flows ~flow)

let flow_degraded t ~flow =
  match Flow_table.find t.flows ~flow with
  | Some entry -> is_degraded entry
  | None -> false

let value = Ccp_obs.Metrics.counter_value
let reports_received t = value t.reports_received
let urgents_received t = value t.urgents_received
let installs_sent t = value t.installs_sent
let handler_errors t = value t.handler_errors
let reports_shed t = value t.reports_shed
let reports_queued t = t.queued_total
let max_queue_wait t = t.max_queue_wait
let dispatch_rounds t = value t.dispatch_rounds
let degradations t = value t.degradations
let degraded_drops t = value t.degraded_drops
let warm_restores t = value t.warm_restores
let registrations_rejected t = (Flow_table.stats t.flows).Flow_table.rejected
let typechecks t = value t.typechecks
let pool_stats t = Flow_table.stats t.flows
