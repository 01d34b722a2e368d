(* Causal span tracing across the control loop.

   A span is minted in the datapath when a report or urgent event leaves
   for the agent, rides the wire as a small integer token (slot | gen),
   is re-armed at the agent end while the handler runs, follows the
   resulting control message back, and is finalized when the datapath
   applies (or refuses) the control. All per-span state lives in
   preallocated parallel arrays indexed by pool slot, so the traced hot
   path stores ints and floats into existing arrays; the only allocation
   happens at finalization, when the completed span is recorded into the
   flight-recorder ring.

   Tokens are [slot lor (gen lsl bits)]. Freeing a slot bumps its
   generation, so a stale token — a duplicate delivery after the original
   finalized, a reordered straggler — fails the generation check and is
   counted in [trace.stale_refs] instead of corrupting a reused slot.
   There is no ID table to leak: liveness is the [busy] bit. *)

type disposition = Actuated | No_action | Rejected | Orphaned | Shed

let disposition_to_string = function
  | Actuated -> "actuated"
  | No_action -> "no_action"
  | Rejected -> "rejected"
  | Orphaned -> "orphaned"
  | Shed -> "shed"

type span_kind = Report_span | Urgent_span

let span_kind_to_string = function Report_span -> "report" | Urgent_span -> "urgent"

type t = {
  cap : int;
  mask : int;
  bits : int;
  (* Parallel per-slot state. Sim timestamps are int nanoseconds, -1 when
     the stage was never reached; wall-clock stage costs are floats in
     dedicated float arrays (unboxed stores). *)
  gen : int array;
  busy : bool array;
  serial : int array;
  s_flow : int array;
  s_kind : int array;
  started_at : int array;
  sent_at : int array;
  agent_at : int array;
  action_at : int array;
  wall0 : float array;
  summ_ns : float array;
  hand0 : float array;
  hand_ns : float array;
  free : int array;
  mutable free_top : int;
  mutable live : int;
  mutable next_serial : int;
  (* The span whose agent handler is currently running (-1 none), and
     whether an outgoing control message already claimed it. Single
     threaded, like the simulator. *)
  mutable active : int;
  mutable active_consumed : bool;
  (* The active span when something finalized it while its handler still
     ran (-1 none): a fault destroyed the reply that carried it. Its
     [handler_end] ends quietly; the span is recorded already. *)
  mutable ended_in_handler : int;
  clock : unit -> float;
  recorder : Recorder.t option;
  tk_orphans : Topk.sketch option;
  c_started : Metrics.counter;
  c_actuated : Metrics.counter;
  c_no_action : Metrics.counter;
  c_rejected : Metrics.counter;
  c_orphaned : Metrics.counter;
  c_shed : Metrics.counter;
  c_dropped : Metrics.counter;
  c_stale : Metrics.counter;
  h_reaction : Metrics.histogram;
  h_ipc_out : Metrics.histogram;
  h_ipc_back : Metrics.histogram;
  h_summ : Metrics.histogram;
  h_hand : Metrics.histogram;
  h_apply : Metrics.histogram;
}

let rec pow2_at_least n acc = if acc >= n then acc else pow2_at_least n (acc * 2)

let create ?(capacity = 1024) ~metrics ?recorder ?tk_orphans ~clock () =
  if capacity <= 0 then invalid_arg "Tracer.create: capacity must be > 0";
  let cap = pow2_at_least capacity 1 in
  let bits =
    let rec go b = if 1 lsl b >= cap then b else go (b + 1) in
    go 0
  in
  {
    cap;
    mask = cap - 1;
    bits;
    gen = Array.make cap 0;
    busy = Array.make cap false;
    serial = Array.make cap 0;
    s_flow = Array.make cap 0;
    s_kind = Array.make cap 0;
    started_at = Array.make cap (-1);
    sent_at = Array.make cap (-1);
    agent_at = Array.make cap (-1);
    action_at = Array.make cap (-1);
    wall0 = Array.make cap 0.0;
    summ_ns = Array.make cap 0.0;
    hand0 = Array.make cap 0.0;
    hand_ns = Array.make cap 0.0;
    free = Array.init cap (fun i -> cap - 1 - i);
    free_top = cap;
    live = 0;
    next_serial = 0;
    active = -1;
    active_consumed = false;
    ended_in_handler = -1;
    clock;
    recorder;
    tk_orphans;
    c_started = Metrics.counter metrics ~unit_:"spans" "trace.spans_started";
    c_actuated = Metrics.counter metrics ~unit_:"spans" "trace.spans_actuated";
    c_no_action = Metrics.counter metrics ~unit_:"spans" "trace.spans_no_action";
    c_rejected = Metrics.counter metrics ~unit_:"spans" "trace.spans_rejected";
    c_orphaned = Metrics.counter metrics ~unit_:"spans" "trace.spans_orphaned";
    c_shed = Metrics.counter metrics ~unit_:"spans" "trace.spans_shed";
    c_dropped = Metrics.counter metrics ~unit_:"spans" "trace.spans_dropped";
    c_stale = Metrics.counter metrics ~unit_:"refs" "trace.stale_refs";
    h_reaction = Metrics.histogram metrics ~unit_:"us" "trace.reaction_us";
    h_ipc_out = Metrics.histogram metrics ~unit_:"us" "trace.ipc_out_us";
    h_ipc_back = Metrics.histogram metrics ~unit_:"us" "trace.ipc_back_us";
    h_summ = Metrics.histogram metrics ~unit_:"ns" "trace.summarize_ns";
    h_hand = Metrics.histogram metrics ~unit_:"ns" "trace.handler_ns";
    h_apply = Metrics.histogram metrics ~unit_:"ns" "trace.apply_ns";
  }

let no_span = -1

let slot_of t token = token land t.mask

let is_live t token =
  token >= 0
  &&
  let slot = token land t.mask in
  t.busy.(slot) && t.gen.(slot) = token lsr t.bits

(* A negative token means "no span" and is silently ignored everywhere; a
   nonnegative token that fails the liveness check is a stale reference. *)
let stale t token = if token >= 0 then Metrics.incr t.c_stale

let start t ~now ~flow ~kind =
  if t.free_top = 0 then begin
    Metrics.incr t.c_dropped;
    no_span
  end
  else begin
    t.free_top <- t.free_top - 1;
    let slot = t.free.(t.free_top) in
    t.busy.(slot) <- true;
    t.serial.(slot) <- t.next_serial;
    t.next_serial <- t.next_serial + 1;
    t.s_flow.(slot) <- flow;
    t.s_kind.(slot) <- (match kind with Report_span -> 0 | Urgent_span -> 1);
    t.started_at.(slot) <- now;
    t.sent_at.(slot) <- -1;
    t.agent_at.(slot) <- -1;
    t.action_at.(slot) <- -1;
    t.wall0.(slot) <- t.clock ();
    t.summ_ns.(slot) <- 0.0;
    t.hand0.(slot) <- 0.0;
    t.hand_ns.(slot) <- 0.0;
    t.live <- t.live + 1;
    Metrics.incr t.c_started;
    slot lor (t.gen.(slot) lsl t.bits)
  end

let sent t token ~now =
  if is_live t token then begin
    let slot = slot_of t token in
    t.sent_at.(slot) <- now;
    let d = t.clock () -. t.wall0.(slot) in
    let d = if d > 0.0 then d else 0.0 in
    t.summ_ns.(slot) <- d;
    Metrics.observe t.h_summ d
  end
  else stale t token

let arrived t token ~now =
  if is_live t token then begin
    let slot = slot_of t token in
    if t.agent_at.(slot) < 0 then t.agent_at.(slot) <- now
  end
  else stale t token

let handler_begin t token =
  t.ended_in_handler <- no_span;
  if is_live t token then begin
    t.hand0.(slot_of t token) <- t.clock ();
    t.active <- token;
    t.active_consumed <- false
  end
  else begin
    stale t token;
    t.active <- no_span
  end

let active t = if t.active >= 0 && not t.active_consumed then t.active else no_span

let note_send t token ~now =
  if is_live t token then begin
    let slot = slot_of t token in
    if t.action_at.(slot) < 0 then t.action_at.(slot) <- now;
    if t.active = token then t.active_consumed <- true
  end
  else stale t token

let release t slot =
  t.busy.(slot) <- false;
  t.gen.(slot) <- t.gen.(slot) + 1;
  t.free.(t.free_top) <- slot;
  t.free_top <- t.free_top + 1;
  t.live <- t.live - 1

let us_of_span a b = float_of_int (b - a) /. 1e3

let finish t token ~now ~disposition ~apply_ns =
  if is_live t token then begin
    let slot = slot_of t token in
    (match disposition with
    | Actuated ->
      Metrics.incr t.c_actuated;
      Metrics.observe t.h_reaction (us_of_span t.started_at.(slot) now);
      if t.action_at.(slot) >= 0 then
        Metrics.observe t.h_ipc_back (us_of_span t.action_at.(slot) now)
    | No_action -> Metrics.incr t.c_no_action
    | Rejected -> Metrics.incr t.c_rejected
    | Orphaned ->
      Metrics.incr t.c_orphaned;
      (* Only the tracer knows which flow an orphaned message belonged
         to, so the per-flow orphan sketch is fed here. *)
      (match t.tk_orphans with
      | Some s -> Topk.touch s t.s_flow.(slot)
      | None -> ())
    | Shed -> Metrics.incr t.c_shed);
    if t.sent_at.(slot) >= 0 && t.agent_at.(slot) >= 0 then
      Metrics.observe t.h_ipc_out (us_of_span t.sent_at.(slot) t.agent_at.(slot));
    if apply_ns > 0.0 then Metrics.observe t.h_apply apply_ns;
    (match t.recorder with
    | None -> ()
    | Some r ->
      Recorder.record r ~at:now
        (Recorder.Span
           {
             id = t.serial.(slot);
             flow = t.s_flow.(slot);
             kind = span_kind_to_string (if t.s_kind.(slot) = 0 then Report_span else Urgent_span);
             disposition = disposition_to_string disposition;
             started_at = t.started_at.(slot);
             sent_at = t.sent_at.(slot);
             agent_at = t.agent_at.(slot);
             action_at = t.action_at.(slot);
             done_at = now;
             summarize_ns = t.summ_ns.(slot);
             handler_ns = t.hand_ns.(slot);
             apply_ns;
           }));
    if t.active = token then begin
      t.active <- no_span;
      t.active_consumed <- false;
      t.ended_in_handler <- token
    end;
    release t slot
  end
  else stale t token

let handler_end t token ~now =
  if is_live t token then begin
    let slot = slot_of t token in
    let d = t.clock () -. t.hand0.(slot) in
    let d = if d > 0.0 then d else 0.0 in
    t.hand_ns.(slot) <- d;
    Metrics.observe t.h_hand d;
    let consumed = t.action_at.(slot) >= 0 in
    if t.active = token then begin
      t.active <- no_span;
      t.active_consumed <- false
    end;
    (* A handler that produced no control message ends its span here. *)
    if not consumed then finish t token ~now ~disposition:No_action ~apply_ns:0.0
  end
  else begin
    if token <> t.ended_in_handler then stale t token;
    t.ended_in_handler <- no_span;
    t.active <- no_span
  end

let orphan t token ~now = finish t token ~now ~disposition:Orphaned ~apply_ns:0.0
let shed t token ~now = finish t token ~now ~disposition:Shed ~apply_ns:0.0

(* ---- accounting -------------------------------------------------------- *)

type stats = {
  started : int;
  actuated : int;
  no_action : int;
  rejected : int;
  orphaned : int;
  shed : int;
  dropped : int;
  stale_refs : int;
  live : int;
}

let stats t =
  {
    started = Metrics.counter_value t.c_started;
    actuated = Metrics.counter_value t.c_actuated;
    no_action = Metrics.counter_value t.c_no_action;
    rejected = Metrics.counter_value t.c_rejected;
    orphaned = Metrics.counter_value t.c_orphaned;
    shed = Metrics.counter_value t.c_shed;
    dropped = Metrics.counter_value t.c_dropped;
    stale_refs = Metrics.counter_value t.c_stale;
    live = t.live;
  }

let pool_capacity t = t.cap
let free_slots t = t.free_top
let live_spans (t : t) = t.live
let wall_clock (t : t) = t.clock

(* ---- Chrome trace_event export ----------------------------------------- *)

(* One complete ("X") event for the whole reaction and one per IPC leg,
   plus instants at the handler and apply points carrying the wall-clock
   stage costs. [ts]/[dur] are microseconds of simulation time; pid is
   always 1 and tid is the flow id, so Perfetto groups spans per flow. *)
let chrome_events_of_span ~at:_ (s : Recorder.span) =
  let us ns = float_of_int ns /. 1e3 in
  let num f = Json.Num f in
  let common_args extra =
    ( "args",
      Json.Obj
        ([
           ("id", num (float_of_int s.Recorder.id));
           ("disposition", Json.Str s.Recorder.disposition);
         ]
        @ extra) )
  in
  let x name ~ts ~dur args =
    Json.Obj
      [
        ("name", Json.Str name);
        ("cat", Json.Str s.Recorder.kind);
        ("ph", Json.Str "X");
        ("ts", num ts);
        ("dur", num dur);
        ("pid", num 1.0);
        ("tid", num (float_of_int s.Recorder.flow));
        args;
      ]
  in
  let i name ~ts args =
    Json.Obj
      [
        ("name", Json.Str name);
        ("cat", Json.Str s.Recorder.kind);
        ("ph", Json.Str "i");
        ("ts", num ts);
        ("s", Json.Str "t");
        ("pid", num 1.0);
        ("tid", num (float_of_int s.Recorder.flow));
        args;
      ]
  in
  let events = ref [] in
  let add e = events := e :: !events in
  add
    (x "reaction"
       ~ts:(us s.Recorder.started_at)
       ~dur:(us (s.Recorder.done_at - s.Recorder.started_at))
       (common_args [ ("summarize_ns", num s.Recorder.summarize_ns) ]));
  if s.Recorder.sent_at >= 0 && s.Recorder.agent_at >= 0 then
    add
      (x "ipc_out" ~ts:(us s.Recorder.sent_at)
         ~dur:(us (s.Recorder.agent_at - s.Recorder.sent_at))
         (common_args []));
  if s.Recorder.agent_at >= 0 then
    add
      (i "handler" ~ts:(us s.Recorder.agent_at)
         (common_args [ ("handler_ns", num s.Recorder.handler_ns) ]));
  if s.Recorder.action_at >= 0 then
    add
      (x "ipc_back"
         ~ts:(us s.Recorder.action_at)
         ~dur:(us (s.Recorder.done_at - s.Recorder.action_at))
         (common_args []));
  if String.equal s.Recorder.disposition "actuated" then
    add
      (i "apply" ~ts:(us s.Recorder.done_at)
         (common_args [ ("apply_ns", num s.Recorder.apply_ns) ]));
  List.rev !events

let chrome_of_recorder r =
  let events = ref [] in
  List.iter
    (fun (at, ev) ->
      match ev with
      | Recorder.Span s -> events := List.rev_append (chrome_events_of_span ~at s) !events
      | _ -> ())
    (Recorder.to_list r);
  Json.Obj [ ("traceEvents", Json.List (List.rev !events)) ]

let validate_chrome json =
  match Json.member "traceEvents" json with
  | None -> Error "missing traceEvents array"
  | Some (Json.List events) ->
    let rec check i = function
      | [] -> Ok i
      | Json.Obj fields :: rest -> (
        let str k = Option.bind (List.assoc_opt k fields) Json.to_str in
        let num k = Option.bind (List.assoc_opt k fields) Json.to_float in
        match (str "name", str "ph", num "ts", num "pid", num "tid") with
        | Some _, Some ph, Some _, Some _, Some _ ->
          if String.equal ph "X" && num "dur" = None then
            Error (Printf.sprintf "event %d: complete event without dur" i)
          else check (i + 1) rest
        | _ -> Error (Printf.sprintf "event %d: missing name/ph/ts/pid/tid" i))
      | _ :: _ -> Error (Printf.sprintf "event %d: not an object" i)
    in
    check 0 events
  | Some _ -> Error "traceEvents is not an array"
