open Ccp_util
open Ccp_eventsim

type endpoint = Datapath_end | Agent_end

type batching = { max_count : int; max_bytes : int; deadline : Time_ns.t }

(* A frame being filled. Each entry is appended to [body] already
   traced-encoded, as the frame will carry it, so a flush only puts the
   header in front: the per-message encode cost is paid exactly once
   whether or not the message waits. With batching on, each direction
   has one: reports toward the agent, replies toward the datapath. *)
type pending = {
  cfg : batching;
  body : Wire.Writer.t;  (* the pending entries, length-prefixed, in send order *)
  spans : Message.trace_context array;  (* [spans.(i)] rides entry [i]; [max_count] long *)
  mutable count : int;
  mutable pending_bytes : int;  (* the entries' encodings, length prefixes excluded *)
  mutable flush_serial : int;  (* bumped per flush; stale deadline timers no-op *)
}

type direction = {
  toward : endpoint;
  mutable handler : (Message.t -> unit) option;
  (* Every frame put on the wire toward [toward], and its bytes, including
     frames a fault destroys: [ipc.to_agent.*] or [ipc.to_datapath.*]. *)
  frames : Ccp_obs.Metrics.counter;
  wire_bytes : Ccp_obs.Metrics.counter;
  mutable last_delivery : Time_ns.t;  (* FIFO floor for this direction *)
  memo : Codec.memo option;
      (* what the receiving end already holds, stored as the option
         [Codec.decode_traced] takes so a decode boxes nothing: [Some]
         toward the datapath, whose [Install]s it matches, and [None]
         toward the agent, since reports need no memo *)
  pending : pending option;  (* [None] with batching off *)
}

type fault_stats = {
  dropped : int;
  duplicated : int;
  delayed : int;
  reordered : int;
  partition_dropped : int;
}

(* One counter per fault kind, both directions combined; [fault_stats]
   reads them. *)
type fault_counters = {
  c_dropped : Ccp_obs.Metrics.counter;
  c_duplicated : Ccp_obs.Metrics.counter;
  c_delayed : Ccp_obs.Metrics.counter;
  c_reordered : Ccp_obs.Metrics.counter;
  c_partition_dropped : Ccp_obs.Metrics.counter;
}

(* Pre-registered handles so the send path never does a name lookup. *)
type obs_handles = {
  obs : Ccp_obs.Obs.t;
  oneway_us : Ccp_obs.Metrics.histogram;
  pending_reports : Ccp_obs.Metrics.gauge;
}

let make_handles obs =
  let open Ccp_obs in
  {
    obs;
    oneway_us = Metrics.histogram obs.Obs.metrics ~unit_:"us" "ipc.oneway_latency_us";
    pending_reports = Metrics.gauge obs.Obs.metrics ~unit_:"reports" "ipc.pending_reports";
  }

type t = {
  sim : Sim.t;
  latency : Latency_model.t;
  rng : Rng.t;
  faults : Fault_plan.t;
  fault_rng : Rng.t;
      (* fault decisions, on their own stream so they never perturb
         latency draws. Split off the root only for a non-empty plan: the
         empty plan never draws, so it shares [rng] and a clean run stays
         byte-identical to one without fault injection. *)
  (* With batching off (the default) neither direction has a pending
     frame, and every send takes the one-frame-per-message path,
     byte-identical to a build without batching. *)
  to_agent : direction;
  to_datapath : direction;
  mutable replying : bool;
      (* a batch frame is being delivered to the agent: what the agent
         sends meanwhile waits in [to_datapath]'s pending frame *)
  mutable flush_replies : unit -> unit;
      (* puts that frame on the wire: set once by [create], so delivery
         reaches the send path without a recursive knot *)
  (* One store per counted fact: a counter in the obs bundle's registry,
     or a private one without a bundle ({!Ccp_obs.Obs.counter}). *)
  decode_failures : Ccp_obs.Metrics.counter;
  batches_sent : Ccp_obs.Metrics.counter;
  reports_batched : Ccp_obs.Metrics.counter;
  fault_counts : fault_counters;
  handles : obs_handles option;
  tracer : Ccp_obs.Tracer.t option;
  (* Span token of the message currently being delivered (-1 none): the
     receiving handler reads it via [rx_span]. Single threaded, so a
     plain register is enough. *)
  mutable rx_span : Message.trace_context;
}

let fresh_direction ?obs ~toward ~memo batching =
  let pending cfg =
    {
      cfg;
      body = Wire.Writer.create ();
      spans = Array.make cfg.max_count Message.no_trace;
      count = 0;
      pending_bytes = 0;
      flush_serial = 0;
    }
  in
  let prefix =
    match toward with Agent_end -> "ipc.to_agent." | Datapath_end -> "ipc.to_datapath."
  in
  {
    toward;
    handler = None;
    frames = Ccp_obs.Obs.counter obs ~unit_:"msgs" (prefix ^ "messages");
    wire_bytes = Ccp_obs.Obs.counter obs ~unit_:"bytes" (prefix ^ "bytes");
    last_delivery = Time_ns.zero;
    memo;
    pending = Option.map pending batching;
  }

let direction_toward t = function
  | Agent_end -> t.to_agent
  | Datapath_end -> t.to_datapath

let direction_from t = function Datapath_end -> t.to_agent | Agent_end -> t.to_datapath

let note_fault t counter kind =
  Ccp_obs.Metrics.incr counter;
  match t.handles with
  | None -> ()
  | Some h -> Ccp_obs.Obs.record h.obs ~at:(Sim.now t.sim) (Ccp_obs.Recorder.Ipc_fault { kind })

let note_delay t delay =
  match t.handles with
  | None -> ()
  | Some h -> Ccp_obs.Metrics.observe h.oneway_us (Time_ns.to_float_us delay)

let on_receive t endpoint handler = (direction_toward t endpoint).handler <- Some handler

let match_installs t ~kept lookup =
  Option.iter
    (fun memo ->
      Codec.set_running memo lookup;
      Codec.set_kept memo kept)
    t.to_datapath.memo

let rx_span t = t.rx_span

(* The span of a message that a fault destroyed is finalized as orphaned,
   so the tracer's pool accounting stays exact under any fault plan. A
   batch frame carries one span per batched report; a fault that destroys
   the frame orphans all of them. *)
let orphan_span t span =
  match t.tracer with
  | Some tr when span >= 0 -> Ccp_obs.Tracer.orphan tr span ~now:(Sim.now t.sim)
  | _ -> ()

let orphan_spans t spans = List.iter (orphan_span t) spans

let note_decode_failure t = Ccp_obs.Metrics.incr t.decode_failures

let deliver_one t handler ~toward decoded span =
  match t.tracer with
  | Some tr when span >= 0 ->
    if toward = Agent_end then Ccp_obs.Tracer.arrived tr span ~now:(Sim.now t.sim);
    t.rx_span <- span;
    handler decoded;
    t.rx_span <- Message.no_trace
  | _ -> handler decoded

let deliver_entries t handler ~toward entries =
  Array.iter (fun (msg, span) -> deliver_one t handler ~toward msg span) entries

let stamp_send t ~from span =
  match t.tracer with
  | Some tr when span >= 0 ->
    let now = Sim.now t.sim in
    (match from with
    | Datapath_end -> Ccp_obs.Tracer.sent tr span ~now
    | Agent_end -> Ccp_obs.Tracer.note_send tr span ~now)
  | _ -> ()

(* The live span tokens of entries [0..i], in send order: [] untraced. *)
let rec live_spans spans i acc =
  if i < 0 then acc
  else live_spans spans (i - 1) (if spans.(i) >= 0 then spans.(i) :: acc else acc)

(* Sends fail fast toward an end with no handler. A frame is delivered to
   the handler registered when it arrives. *)
let check_handler caller dir =
  if Option.is_none dir.handler then
    invalid_arg (caller ^ ": destination handler not registered")

let deliver t dir bytes =
  let handler = Option.get dir.handler and toward = dir.toward and memo = dir.memo in
  if Codec.is_batch bytes then
    (* Frame validation is atomic: a corrupt entry rejects the whole
       frame as one decode failure, never a decoded prefix of it. *)
    match Codec.decode_batch ?memo bytes with
    | entries -> (
      match toward with
      | Agent_end when Option.is_some t.to_datapath.pending && not t.replying ->
        (* The reply window: what the agent sends while it handles the
           frame's entries waits in one frame toward the datapath, which
           leaves when the last handler returns, or raises. *)
        t.replying <- true;
        (match deliver_entries t handler ~toward entries with
        | () ->
          t.replying <- false;
          t.flush_replies ()
        | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          t.replying <- false;
          t.flush_replies ();
          Printexc.raise_with_backtrace e bt)
      | Agent_end | Datapath_end -> deliver_entries t handler ~toward entries)
    | exception (Codec.Decode_error _ | Wire.Reader.Truncated | Wire.Reader.Malformed _) ->
      note_decode_failure t
  else
    match Codec.decode_traced ?memo bytes with
    | decoded, span -> deliver_one t handler ~toward decoded span
    | exception (Codec.Decode_error _ | Wire.Reader.Truncated | Wire.Reader.Malformed _) ->
      note_decode_failure t

(* Schedule one copy of [bytes]. [fifo] decides whether the arrival is
   clamped to (and advances) the direction's FIFO floor; reordered and
   duplicated copies skip the clamp so later sends may overtake them. *)
let schedule_copy t dir ~arrival ~fifo ~spans bytes =
  let arrival = if fifo then Time_ns.max arrival dir.last_delivery else arrival in
  if fifo then dir.last_delivery <- arrival;
  ignore
    (Sim.schedule t.sim ~at:arrival (fun () ->
         (* A crashed agent loses messages already in flight toward it. *)
         if dir.toward = Agent_end && Fault_plan.agent_down t.faults (Sim.now t.sim) then begin
           note_fault t t.fault_counts.c_partition_dropped "agent_down";
           orphan_spans t spans
         end
         else deliver t dir bytes))

(* A fault decision with probability [p], drawn from the fault stream.
   Every probability of the empty plan is 0, so it never draws. *)
let fires t p = p > 0.0 && Rng.float t.fault_rng 1.0 < p

(* Put one wire frame (single message or batch) on the channel: byte
   accounting, latency draw, fault plan, delivery scheduling. [spans] are
   the live span tokens riding the frame, orphaned if a fault eats it.
   Under the empty plan no fault fires and no fault draw is made. *)
let transmit t dir ~spans bytes =
  Ccp_obs.Metrics.incr dir.frames;
  Ccp_obs.Metrics.add dir.wire_bytes (String.length bytes);
  let now = Sim.now t.sim in
  let faults = t.faults and counts = t.fault_counts in
  if Fault_plan.in_partition faults now then begin
    note_fault t counts.c_partition_dropped "partition";
    orphan_spans t spans
  end
  else if fires t faults.Fault_plan.drop_probability then begin
    note_fault t counts.c_dropped "drop";
    orphan_spans t spans
  end
  else begin
    let delay = Latency_model.one_way t.latency t.rng in
    let delay =
      match faults.Fault_plan.spike with
      | Some s when fires t s.Fault_plan.probability ->
        note_fault t counts.c_delayed "spike";
        Time_ns.add delay s.Fault_plan.extra
      | _ -> delay
    in
    note_delay t delay;
    let arrival = Time_ns.add now delay in
    (match faults.Fault_plan.reorder with
    | Some r when fires t r.Fault_plan.probability ->
      (* Bounded reordering: push the message at most [window] past its
         FIFO slot without raising the floor, so later sends overtake. *)
      let slot = Time_ns.max arrival dir.last_delivery in
      (* Time_ns.t is integer nanoseconds, so the window bounds the draw. *)
      let lag = Rng.int t.fault_rng (max 1 (r.Fault_plan.window + 1)) in
      note_fault t counts.c_reordered "reorder";
      schedule_copy t dir ~arrival:(Time_ns.add slot (Time_ns.ns lag)) ~fifo:false ~spans bytes
    | _ -> schedule_copy t dir ~arrival ~fifo:true ~spans bytes);
    if fires t faults.Fault_plan.duplicate_probability then begin
      (* The duplicate pays its own latency draw and floats free of the
         FIFO floor, as a retransmitted datagram would. *)
      let dup_arrival = Time_ns.add now (Latency_model.one_way t.latency t.rng) in
      note_fault t counts.c_duplicated "duplicate";
      schedule_copy t dir ~arrival:dup_arrival ~fifo:false ~spans bytes
    end
  end

(* Put a pending frame on the wire, if it holds anything. *)
let flush_frame t dir p =
  if p.count > 0 then begin
    check_handler "Channel.flush" dir;
    let frame = Codec.seal_batch p.body ~count:p.count in
    let spans = live_spans p.spans (p.count - 1) [] in
    Wire.Writer.reset p.body;
    p.count <- 0;
    p.pending_bytes <- 0;
    p.flush_serial <- p.flush_serial + 1;
    (match dir.toward with
    | Agent_end ->
      Ccp_obs.Metrics.incr t.batches_sent;
      (match t.handles with
      | Some h -> Ccp_obs.Metrics.set h.pending_reports 0.0
      | None -> ());
      (* Batched datapath spans are stamped as sent when the frame
         actually hits the wire, not when the report was parked. *)
      List.iter (fun s -> stamp_send t ~from:Datapath_end s) spans
    | Datapath_end -> ());
    transmit t dir ~spans frame
  end

let flush t =
  Option.iter (flush_frame t t.to_agent) t.to_agent.pending;
  Option.iter (flush_frame t t.to_datapath) t.to_datapath.pending

(* Count an entry of [len] bytes just appended to [p]'s body: [true] once
   the frame has reached a watermark. *)
let add_entry p ~span len =
  p.spans.(p.count) <- span;
  p.count <- p.count + 1;
  p.pending_bytes <- p.pending_bytes + len;
  p.count >= p.cfg.max_count || p.pending_bytes >= p.cfg.max_bytes

let enqueue_report t dir p ~span msg =
  let full = add_entry p ~span (Codec.add_batch_entry p.body ~span msg) in
  Ccp_obs.Metrics.incr t.reports_batched;
  (match t.handles with
  | Some h -> Ccp_obs.Metrics.set h.pending_reports (float_of_int p.count)
  | None -> ());
  if full then flush_frame t dir p
  else if p.count = 1 then begin
    (* Arm the deadline as the frame opens. A watermark flush in the
       meantime bumps the serial, so the timer expires harmlessly; the
       count can only return to zero through a flush, so a matching
       serial implies there is still something to send. *)
    let serial = p.flush_serial in
    ignore
      (Sim.schedule t.sim
         ~at:(Time_ns.add (Sim.now t.sim) p.cfg.deadline)
         (fun () -> if p.flush_serial = serial then flush_frame t dir p))
  end

(* An agent message sent inside the reply window joins the reply frame.
   Its span is stamped now rather than at the flush: the handler that
   sent it must see the span consumed when it returns, and the frame
   leaves at this same simulated instant. *)
let park_reply t dir p ~span len =
  stamp_send t ~from:Agent_end span;
  if add_entry p ~span len then flush_frame t dir p

let send_frame t dir ~from ~span bytes =
  stamp_send t ~from span;
  transmit t dir ~spans:(if span >= 0 then [ span ] else []) bytes

let send_single t dir ~from ~span msg = send_frame t dir ~from ~span (Codec.encode_traced ~span msg)

(* Agent-side control messages attach to the span whose handler is
   running, so algorithm code needs no tracing awareness at all. *)
let outgoing_span t ~from span =
  match t.tracer with
  | None -> Message.no_trace
  | Some tr ->
    if span >= 0 then span
    else if from = Agent_end then Ccp_obs.Tracer.active tr
    else Message.no_trace

let send_install_frame t frame =
  let dir = t.to_datapath in
  check_handler "Channel.send" dir;
  let span = outgoing_span t ~from:Agent_end Message.no_trace in
  match dir.pending with
  | Some p when t.replying -> park_reply t dir p ~span (Codec.add_batch_encoded p.body ~span frame)
  | _ ->
    send_frame t dir ~from:Agent_end ~span (Codec.with_trace ~span frame)

let send t ~from ?(span = Message.no_trace) msg =
  let dir = direction_from t from in
  check_handler "Channel.send" dir;
  let span = outgoing_span t ~from span in
  match (from, dir.pending) with
  | Datapath_end, Some p -> (
    match msg with
    | Message.Report _ -> enqueue_report t dir p ~span msg
    | _ ->
      (* Non-report datapath traffic (Ready, Urgent, Closed, vectors)
         never waits on a watermark: flush what is queued — preserving
         send order on the wire — then go out immediately. *)
      flush_frame t dir p;
      send_single t dir ~from ~span msg)
  | Agent_end, Some p when t.replying ->
    park_reply t dir p ~span (Codec.add_batch_entry p.body ~span msg)
  | _ -> send_single t dir ~from ~span msg

let create ~sim ~latency ?(faults = Fault_plan.none) ?batching ?obs () =
  let rng = Rng.split (Sim.rng sim) in
  let fault_rng = if Fault_plan.is_none faults then rng else Rng.split (Sim.rng sim) in
  Option.iter
    (fun cfg ->
      if cfg.max_count <= 0 || cfg.max_bytes <= 0 then
        invalid_arg "Channel.create: batching watermarks must be positive";
      if cfg.max_count > Codec.max_batch_entries then
        invalid_arg
          (Printf.sprintf "Channel.create: batching max_count %d exceeds the frame limit %d"
             cfg.max_count Codec.max_batch_entries);
      if Time_ns.to_float_us cfg.deadline <= 0.0 then
        invalid_arg "Channel.create: batching deadline must be positive")
    batching;
  let counter unit_ name = Ccp_obs.Obs.counter obs ~unit_ name in
  let t =
    {
      sim;
      latency;
      rng;
      faults;
      fault_rng;
      to_agent = fresh_direction ?obs ~toward:Agent_end ~memo:None batching;
      to_datapath = fresh_direction ?obs ~toward:Datapath_end ~memo:(Some (Codec.memo ())) batching;
      replying = false;
      flush_replies = ignore;
      decode_failures = counter "errors" "ipc.decode_failures";
      batches_sent = counter "frames" "ipc.batches_sent";
      reports_batched = counter "reports" "ipc.reports_batched";
      fault_counts =
        {
          c_dropped = counter "frames" "ipc.faults.dropped";
          c_duplicated = counter "frames" "ipc.faults.duplicated";
          c_delayed = counter "frames" "ipc.faults.delayed";
          c_reordered = counter "frames" "ipc.faults.reordered";
          c_partition_dropped = counter "frames" "ipc.faults.partition_dropped";
        };
      handles = Option.map make_handles obs;
      tracer = (match obs with Some o -> o.Ccp_obs.Obs.tracer | None -> None);
      rx_span = Message.no_trace;
    }
  in
  Option.iter
    (fun p -> t.flush_replies <- (fun () -> flush_frame t t.to_datapath p))
    t.to_datapath.pending;
  t

let deliver_raw t ~toward bytes =
  let dir = direction_toward t toward in
  check_handler "Channel.deliver_raw" dir;
  deliver t dir bytes

let messages_sent t from = Ccp_obs.Metrics.counter_value (direction_from t from).frames
let bytes_sent t from = Ccp_obs.Metrics.counter_value (direction_from t from).wire_bytes

let decode_failures t = Ccp_obs.Metrics.counter_value t.decode_failures
let pending_reports t = match t.to_agent.pending with Some p -> p.count | None -> 0
let batches_sent t = Ccp_obs.Metrics.counter_value t.batches_sent
let reports_batched t = Ccp_obs.Metrics.counter_value t.reports_batched
let fault_plan t = t.faults
let fault_stats t =
  let c = t.fault_counts and v = Ccp_obs.Metrics.counter_value in
  {
    dropped = v c.c_dropped;
    duplicated = v c.c_duplicated;
    delayed = v c.c_delayed;
    reordered = v c.c_reordered;
    partition_dropped = v c.c_partition_dropped;
  }
