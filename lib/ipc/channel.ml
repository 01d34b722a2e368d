open Ccp_util
open Ccp_eventsim

type endpoint = Datapath_end | Agent_end

type direction = {
  mutable handler : (Message.t -> unit) option;
  mutable messages : int;
  mutable bytes : int;
  mutable last_delivery : Time_ns.t;  (* FIFO floor for this direction *)
  memo : Codec.memo option;
      (* what the receiving end already holds: always [Some], stored as
         the option [Codec.decode_traced] takes so a decode boxes nothing *)
}

type fault_stats = {
  dropped : int;
  duplicated : int;
  delayed : int;
  reordered : int;
  partition_dropped : int;
}

let no_faults_yet =
  { dropped = 0; duplicated = 0; delayed = 0; reordered = 0; partition_dropped = 0 }

type batching = { max_count : int; max_bytes : int; deadline : Time_ns.t }

(* Pending reports are kept already traced-encoded (newest first), so a
   flush only length-prefixes them into one frame — the per-report encode
   cost is paid exactly once whether or not the report is batched. *)
type batch_state = {
  cfg : batching;
  mutable entries : string list;
  mutable spans : Message.trace_context list;  (* parallel to [entries] *)
  mutable count : int;
  mutable pending_bytes : int;
  mutable flush_serial : int;  (* bumped per flush; stale deadline timers no-op *)
}

(* Pre-registered handles so the send path never does a name lookup. *)
type obs_handles = {
  obs : Ccp_obs.Obs.t;
  msg_to_agent : Ccp_obs.Metrics.counter;
  msg_to_datapath : Ccp_obs.Metrics.counter;
  bytes_to_agent : Ccp_obs.Metrics.counter;
  bytes_to_datapath : Ccp_obs.Metrics.counter;
  oneway_us : Ccp_obs.Metrics.histogram;
  faults_injected : Ccp_obs.Metrics.counter;
  pending_reports : Ccp_obs.Metrics.gauge;
}

let make_handles obs =
  let open Ccp_obs in
  {
    obs;
    msg_to_agent = Metrics.counter obs.Obs.metrics ~unit_:"msgs" "ipc.to_agent.messages";
    msg_to_datapath =
      Metrics.counter obs.Obs.metrics ~unit_:"msgs" "ipc.to_datapath.messages";
    bytes_to_agent = Metrics.counter obs.Obs.metrics ~unit_:"bytes" "ipc.to_agent.bytes";
    bytes_to_datapath =
      Metrics.counter obs.Obs.metrics ~unit_:"bytes" "ipc.to_datapath.bytes";
    oneway_us = Metrics.histogram obs.Obs.metrics ~unit_:"us" "ipc.oneway_latency_us";
    faults_injected = Metrics.counter obs.Obs.metrics ~unit_:"events" "ipc.faults_injected";
    pending_reports = Metrics.gauge obs.Obs.metrics ~unit_:"reports" "ipc.pending_reports";
  }

type t = {
  sim : Sim.t;
  latency : Latency_model.t;
  rng : Rng.t;
  faults : Fault_plan.t;
  (* Separate stream so fault decisions never perturb latency draws; only
     split when the plan is non-empty, keeping clean runs byte-identical. *)
  fault_rng : Rng.t option;
  to_agent : direction;
  to_datapath : direction;
  (* Datapath->agent report batching; [None] (the default) keeps every
     send on the one-frame-per-message path, byte-identical to a build
     without batching. *)
  batch : batch_state option;
  (* One store per counted fact: a counter in the obs bundle's registry,
     or a private one without a bundle ({!Ccp_obs.Obs.counter}). *)
  decode_failures : Ccp_obs.Metrics.counter;
  batches_sent : Ccp_obs.Metrics.counter;
  reports_batched : Ccp_obs.Metrics.counter;
  mutable fault_stats : fault_stats;
  handles : obs_handles option;
  tracer : Ccp_obs.Tracer.t option;
  (* Span token of the message currently being delivered (-1 none): the
     receiving handler reads it via [rx_span]. Single threaded, so a
     plain register is enough. *)
  mutable rx_span : Message.trace_context;
}

let fresh_direction () =
  {
    handler = None;
    messages = 0;
    bytes = 0;
    last_delivery = Time_ns.zero;
    memo = Some (Codec.memo ());
  }

let create ~sim ~latency ?(faults = Fault_plan.none) ?batching ?obs () =
  let rng = Rng.split (Sim.rng sim) in
  let fault_rng = if Fault_plan.is_none faults then None else Some (Rng.split (Sim.rng sim)) in
  let batch =
    match batching with
    | None -> None
    | Some cfg ->
      if cfg.max_count <= 0 || cfg.max_bytes <= 0 then
        invalid_arg "Channel.create: batching watermarks must be positive";
      if cfg.max_count > Codec.max_batch_entries then
        invalid_arg
          (Printf.sprintf "Channel.create: batching max_count %d exceeds the frame limit %d"
             cfg.max_count Codec.max_batch_entries);
      if Time_ns.to_float_us cfg.deadline <= 0.0 then
        invalid_arg "Channel.create: batching deadline must be positive";
      Some
        {
          cfg;
          entries = [];
          spans = [];
          count = 0;
          pending_bytes = 0;
          flush_serial = 0;
        }
  in
  let counter unit_ name = Ccp_obs.Obs.counter obs ~unit_ name in
  {
    sim;
    latency;
    rng;
    faults;
    fault_rng;
    to_agent = fresh_direction ();
    to_datapath = fresh_direction ();
    batch;
    decode_failures = counter "errors" "ipc.decode_failures";
    batches_sent = counter "frames" "ipc.batches_sent";
    reports_batched = counter "reports" "ipc.reports_batched";
    fault_stats = no_faults_yet;
    handles = Option.map make_handles obs;
    tracer = (match obs with Some o -> o.Ccp_obs.Obs.tracer | None -> None);
    rx_span = Message.no_trace;
  }

let direction_toward t = function
  | Agent_end -> t.to_agent
  | Datapath_end -> t.to_datapath

let note_fault t kind =
  match t.handles with
  | None -> ()
  | Some h ->
    Ccp_obs.Metrics.incr h.faults_injected;
    Ccp_obs.Obs.record h.obs ~at:(Sim.now t.sim) (Ccp_obs.Recorder.Ipc_fault { kind })

let note_send t toward ~bytes ~delay =
  match t.handles with
  | None -> ()
  | Some h ->
    let msgs, byts =
      match toward with
      | Agent_end -> (h.msg_to_agent, h.bytes_to_agent)
      | Datapath_end -> (h.msg_to_datapath, h.bytes_to_datapath)
    in
    Ccp_obs.Metrics.incr msgs;
    Ccp_obs.Metrics.add byts bytes;
    Ccp_obs.Metrics.observe h.oneway_us (Time_ns.to_float_us delay)

let on_receive t endpoint handler = (direction_toward t endpoint).handler <- Some handler

let match_installs t lookup =
  Option.iter (fun memo -> Codec.set_running memo lookup) t.to_datapath.memo

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

let deliver t handler ~toward bytes =
  let memo = (direction_toward t toward).memo in
  if Codec.is_batch bytes then
    (* Frame validation is atomic: a corrupt entry rejects the whole
       frame as one decode failure, never a decoded prefix of it. *)
    match Codec.decode_batch ?memo bytes with
    | entries ->
      Array.iter (fun (msg, span) -> deliver_one t handler ~toward msg span) entries
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
let schedule_copy t dir ~toward handler ~arrival ~fifo ~spans bytes =
  let arrival = if fifo then Time_ns.max arrival dir.last_delivery else arrival in
  if fifo then dir.last_delivery <- arrival;
  ignore
    (Sim.schedule t.sim ~at:arrival (fun () ->
         (* A crashed agent loses messages already in flight toward it. *)
         if toward = Agent_end && Fault_plan.agent_down t.faults (Sim.now t.sim) then begin
           t.fault_stats <-
             { t.fault_stats with partition_dropped = t.fault_stats.partition_dropped + 1 };
           note_fault t "agent_down";
           orphan_spans t spans
         end
         else deliver t handler ~toward bytes))

(* Put one wire frame (single message or batch) on the channel: byte
   accounting, latency draw, fault plan, delivery scheduling. [spans] are
   the live span tokens riding the frame, orphaned if a fault eats it. *)
let transmit t dir handler ~toward ~spans bytes =
  dir.messages <- dir.messages + 1;
  dir.bytes <- dir.bytes + String.length bytes;
  match t.fault_rng with
  | None ->
    (* Clean channel: the original delivery path, untouched. *)
    let delay = Latency_model.one_way t.latency t.rng in
    note_send t toward ~bytes:(String.length bytes) ~delay;
    let arrival = Time_ns.add (Sim.now t.sim) delay in
    (* Preserve per-direction FIFO ordering under random latency draws. *)
    let arrival = Time_ns.max arrival dir.last_delivery in
    dir.last_delivery <- arrival;
    ignore (Sim.schedule t.sim ~at:arrival (fun () -> deliver t handler ~toward bytes))
  | Some frng ->
    let now = Sim.now t.sim in
    let stats = t.fault_stats in
    if Fault_plan.in_partition t.faults now then begin
      t.fault_stats <- { stats with partition_dropped = stats.partition_dropped + 1 };
      note_fault t "partition";
      orphan_spans t spans
    end
    else if
      t.faults.Fault_plan.drop_probability > 0.0
      && Rng.float frng 1.0 < t.faults.Fault_plan.drop_probability
    then begin
      t.fault_stats <- { stats with dropped = stats.dropped + 1 };
      note_fault t "drop";
      orphan_spans t spans
    end
    else begin
      let delay = Latency_model.one_way t.latency t.rng in
      let delay =
        match t.faults.Fault_plan.spike with
        | Some s when s.Fault_plan.probability > 0.0 && Rng.float frng 1.0 < s.Fault_plan.probability ->
          t.fault_stats <- { t.fault_stats with delayed = t.fault_stats.delayed + 1 };
          note_fault t "spike";
          Time_ns.add delay s.Fault_plan.extra
        | _ -> delay
      in
      note_send t toward ~bytes:(String.length bytes) ~delay;
      let arrival = Time_ns.add now delay in
      (match t.faults.Fault_plan.reorder with
      | Some r
        when r.Fault_plan.probability > 0.0 && Rng.float frng 1.0 < r.Fault_plan.probability ->
        (* Bounded reordering: push the message at most [window] past its
           FIFO slot without raising the floor, so later sends overtake. *)
        let slot = Time_ns.max arrival dir.last_delivery in
        (* Time_ns.t is integer nanoseconds, so the window bounds the draw. *)
        let lag = Rng.int frng (max 1 (r.Fault_plan.window + 1)) in
        t.fault_stats <- { t.fault_stats with reordered = t.fault_stats.reordered + 1 };
        note_fault t "reorder";
        schedule_copy t dir ~toward handler ~arrival:(Time_ns.add slot (Time_ns.ns lag))
          ~fifo:false ~spans bytes
      | _ -> schedule_copy t dir ~toward handler ~arrival ~fifo:true ~spans bytes);
      if
        t.faults.Fault_plan.duplicate_probability > 0.0
        && Rng.float frng 1.0 < t.faults.Fault_plan.duplicate_probability
      then begin
        (* The duplicate pays its own latency draw and floats free of the
           FIFO floor, as a retransmitted datagram would. *)
        let dup_arrival = Time_ns.add now (Latency_model.one_way t.latency t.rng) in
        t.fault_stats <- { t.fault_stats with duplicated = t.fault_stats.duplicated + 1 };
        note_fault t "duplicate";
        schedule_copy t dir ~toward handler ~arrival:dup_arrival ~fifo:false ~spans bytes
      end
    end

let stamp_send t ~from span =
  match t.tracer with
  | Some tr when span >= 0 ->
    let now = Sim.now t.sim in
    (match from with
    | Datapath_end -> Ccp_obs.Tracer.sent tr span ~now
    | Agent_end -> Ccp_obs.Tracer.note_send tr span ~now)
  | _ -> ()

let flush t =
  match t.batch with
  | None -> ()
  | Some b when b.count = 0 -> ()
  | Some b ->
    let dir = t.to_agent in
    let handler =
      match dir.handler with
      | Some h -> h
      | None -> invalid_arg "Channel.flush: destination handler not registered"
    in
    let entries = List.rev b.entries in
    let spans = List.filter (fun s -> s >= 0) (List.rev b.spans) in
    b.entries <- [];
    b.spans <- [];
    b.count <- 0;
    b.pending_bytes <- 0;
    b.flush_serial <- b.flush_serial + 1;
    Ccp_obs.Metrics.incr t.batches_sent;
    (match t.handles with
    | Some h -> Ccp_obs.Metrics.set h.pending_reports 0.0
    | None -> ());
    let frame = Codec.frame_batch entries in
    (* Batched datapath spans are stamped as sent when the frame actually
       hits the wire, not when the report was parked. *)
    List.iter (fun s -> stamp_send t ~from:Datapath_end s) spans;
    transmit t dir handler ~toward:Agent_end ~spans frame

let enqueue_report t b ~span msg =
  let entry = Codec.encode_traced ~span msg in
  b.entries <- entry :: b.entries;
  b.spans <- span :: b.spans;
  b.count <- b.count + 1;
  b.pending_bytes <- b.pending_bytes + String.length entry;
  Ccp_obs.Metrics.incr t.reports_batched;
  (match t.handles with
  | Some h -> Ccp_obs.Metrics.set h.pending_reports (float_of_int b.count)
  | None -> ());
  if b.count >= b.cfg.max_count || b.pending_bytes >= b.cfg.max_bytes then flush t
  else if b.count = 1 then begin
    (* Arm the deadline as the frame opens. A watermark flush in the
       meantime bumps the serial, so the timer expires harmlessly; the
       count can only return to zero through a flush, so a matching
       serial implies there is still something to send. *)
    let serial = b.flush_serial in
    ignore
      (Sim.schedule t.sim
         ~at:(Time_ns.add (Sim.now t.sim) b.cfg.deadline)
         (fun () -> if b.flush_serial = serial then flush t))
  end

let send_frame t dir handler ~from ~toward ~span bytes =
  stamp_send t ~from span;
  transmit t dir handler ~toward ~spans:(if span >= 0 then [ span ] else []) bytes

let send_single t dir handler ~from ~toward ~span msg =
  send_frame t dir handler ~from ~toward ~span (Codec.encode_traced ~span msg)

let handler_toward dir =
  match dir.handler with
  | Some h -> h
  | None -> invalid_arg "Channel.send: destination handler not registered"

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
  let span = outgoing_span t ~from:Agent_end Message.no_trace in
  send_frame t dir (handler_toward dir) ~from:Agent_end ~toward:Datapath_end ~span
    (Codec.with_trace ~span frame)

let send t ~from ?(span = Message.no_trace) msg =
  let toward = match from with Datapath_end -> Agent_end | Agent_end -> Datapath_end in
  let dir = direction_toward t toward in
  let handler = handler_toward dir in
  let span = outgoing_span t ~from span in
  match t.batch with
  | Some b when from = Datapath_end -> (
    match msg with
    | Message.Report _ -> enqueue_report t b ~span msg
    | _ ->
      (* Non-report datapath traffic (Ready, Urgent, Closed, vectors)
         never waits on a watermark: flush what is queued — preserving
         send order on the wire — then go out immediately. *)
      if b.count > 0 then flush t;
      send_single t dir handler ~from ~toward ~span msg)
  | _ -> send_single t dir handler ~from ~toward ~span msg

let deliver_raw t ~toward bytes =
  let dir = direction_toward t toward in
  match dir.handler with
  | Some handler -> deliver t handler ~toward bytes
  | None -> invalid_arg "Channel.deliver_raw: destination handler not registered"

let messages_sent t = function
  | Datapath_end -> t.to_agent.messages
  | Agent_end -> t.to_datapath.messages

let bytes_sent t = function
  | Datapath_end -> t.to_agent.bytes
  | Agent_end -> t.to_datapath.bytes

let decode_failures t = Ccp_obs.Metrics.counter_value t.decode_failures
let pending_reports t = match t.batch with Some b -> b.count | None -> 0
let batches_sent t = Ccp_obs.Metrics.counter_value t.batches_sent
let reports_batched t = Ccp_obs.Metrics.counter_value t.reports_batched
let fault_plan t = t.faults
let fault_stats t = t.fault_stats
