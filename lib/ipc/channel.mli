(** The simulated IPC channel between a datapath and the CCP agent.

    Asynchronous and bidirectional. Every send encodes the message with
    {!Codec}, draws a one-way latency from the channel's {!Latency_model},
    and schedules decoding + delivery at the far end — so the control loop
    experiences exactly the asynchrony the paper's architecture implies,
    and the codec is on the hot path. Messages in each direction are
    delivered in FIFO order even when latency draws would reorder them
    (both Netlink and Unix sockets preserve ordering).

    A {!Fault_plan.t} degrades the channel on purpose: messages may be
    dropped, duplicated, delayed, reordered within a bounded window, or
    blackholed during partition/agent-crash intervals. Fault decisions come
    from a dedicated RNG stream split off the simulator root, so degraded
    runs stay deterministic — and the empty plan leaves the channel
    byte-for-byte identical to one without fault injection. *)

open Ccp_eventsim

type t

type endpoint = Datapath_end | Agent_end

(** Watermarks for datapath->agent report batching. A pending frame is
    flushed when it holds [max_count] reports, when its payload reaches
    [max_bytes], or [deadline] after the first report was parked —
    whichever comes first. All three must be positive, and [max_count]
    at most {!Codec.max_batch_entries}, the most one frame can carry. *)
type batching = {
  max_count : int;
  max_bytes : int;
  deadline : Ccp_util.Time_ns.t;
}

val create :
  sim:Sim.t ->
  latency:Latency_model.t ->
  ?faults:Fault_plan.t ->
  ?batching:batching ->
  ?obs:Ccp_obs.Obs.t ->
  unit ->
  t
(** The latency model is interpreted as a round-trip distribution; each
    message pays a one-way (half) draw. [faults] defaults to
    {!Fault_plan.none}. When [obs] is given the channel's counters
    (see Statistics) are rows of its registry, and it also publishes a
    one-way latency histogram ([ipc.oneway_latency_us]) and records an
    [Ipc_fault] trace event for every injected fault.

    [batching] (default off) turns on batch frames in both directions,
    one pending frame per direction, built and sent by the same code:
    - {e Report frames.} Datapath-side [Report] sends are parked and
      flushed as one {!Codec.seal_batch} wire frame at the watermarks,
      amortizing per-message channel overhead across every flow that
      reported in the flush window. Non-report datapath traffic
      (Ready/Urgent/Closed/vector reports) never waits: it flushes the
      pending frame first — wire order equals send order — and departs
      immediately, so loss signals keep their latency.
    - {e Reply frames.} Whatever the agent end sends while a batch frame
      is being delivered to it waits in one frame toward the datapath,
      in send order. That frame leaves when the last entry's handler
      returns (or raises), or earlier at the watermarks; the handlers
      answering one report frame share one frame back. Agent sends at
      any other time, such as replies to a single frame or sends from
      timers, leave at once, one frame each.

    What holds for the draws:
    - batching off: the channel is byte-for-byte identical to one built
      without batching, draws included;
    - batching on: every frame, single message or batch, in either
      direction, takes one latency draw and one set of fault decisions.
      So a frame that carries many messages takes fewer draws than they
      would alone, and enabling batching changes the draws every later
      message gets.

    Raises [Invalid_argument] on a watermark or deadline that is not
    positive, or a [max_count] above {!Codec.max_batch_entries}.

    The datapath end decodes through its own {!Codec.memo}
    ({!match_installs}). Reports carry their layout's id, not its names
    ({!Message.layout}), so an agent-bound report needs no memo and
    decodes without reading a name. *)

val on_receive : t -> endpoint -> (Message.t -> unit) -> unit
(** Register the handler that receives messages arriving {e at} the given
    endpoint. Must be set before traffic flows toward that endpoint. *)

val match_installs :
  t -> kept:(unit -> Codec.running option) -> (int -> Codec.running option) -> unit
(** Register the datapath's lookup of each flow's running program. An
    [Install] arriving for a flow whose running program bytes equal the
    frame's program bytes is delivered with the running AST itself
    (physically), and no AST is decoded. [kept] looks up the program the
    datapath admitted last, for any flow: an [Install] that misses its
    own flow's program but whose bytes equal that one's is delivered
    with its AST. Any other [Install] decodes as usual. The datapath end
    registers both once, beside its handler; neither may allocate. *)

val send : t -> from:endpoint -> ?span:Message.trace_context -> Message.t -> unit
(** Raises [Invalid_argument] if the destination handler is not set.

    With batching on, a datapath-side [Report] joins the pending report
    frame, and an agent-side send made while a batch frame is being
    delivered to the agent joins the pending reply frame ({!create});
    every other send is its own frame.

    When the channel's [obs] bundle carries a {!Ccp_obs.Tracer}, [span]
    attaches that span's token to the message (an extra trailing wire
    block; without a span the bytes are identical to the untraced
    format). Datapath-side sends stamp the span as sent; agent-side sends
    with no explicit [span] automatically attach the span whose handler
    is currently running ({!Ccp_obs.Tracer.active}), so algorithm code
    stays tracing-unaware. A parked report's span is stamped sent when
    its frame leaves; a reply's is stamped when it is parked, which is
    the simulated instant its frame leaves. Spans whose message is
    destroyed by a fault (drop, partition, crashed agent) are finalized
    as orphaned, each span of a batch frame once. *)

val send_install_frame : t -> string -> unit
(** [send_install_frame t (Codec.encode (Install { flow; program }))] is
    [send t ~from:Agent_end (Install { flow; program })] for an [Install]
    encoded earlier: the same bytes go on the wire, including the trace
    block of the span whose handler is running
    ({!Ccp_obs.Tracer.active}; see {!Codec.with_trace}), and byte
    accounting, the latency draw, the fault plan and joining a pending
    reply frame are the same. Untraced, a re-send allocates no frame. An agent that re-installs a
    program encodes it once. Raises [Invalid_argument] if the datapath
    end has no handler. *)

val rx_span : t -> Message.trace_context
(** The span token carried by the message currently being delivered to a
    handler, or {!Message.no_trace}. Valid only inside a handler call.
    Batched reports each carry their own span: the register is updated
    per entry as the frame unpacks. *)

val flush : t -> unit
(** Force out the pending report frame, then the pending reply frame,
    whichever holds anything. No-op with batching off or nothing
    pending. The watermarks and the end of each delivery make this
    unnecessary in steady state; it exists for drain-before-shutdown
    and tests. *)

val deliver_raw : t -> toward:endpoint -> string -> unit
(** Deliver arbitrary bytes to an endpoint's handler immediately, as a
    corrupted or hostile peer would produce them — no encode, no latency
    draw, no fault plan. Malformed bytes count a decode failure and are
    dropped without disturbing the channel. Test/fuzzing hook. *)

(** {1 Statistics}

    Each count is one counter, kept in the [obs] bundle's registry when
    there is one and as a private counter otherwise
    ({!Ccp_obs.Obs.counter}), and each accessor reads it:
    [messages_sent] and [bytes_sent] read [ipc.to_agent.messages] and
    [ipc.to_agent.bytes] (sent from the datapath end) or
    [ipc.to_datapath.*] (from the agent end); [decode_failures],
    [batches_sent] and [reports_batched] read [ipc.decode_failures],
    [ipc.batches_sent] and [ipc.reports_batched]; [fault_stats] reads
    the five [ipc.faults.*] counters. Frames count where they are put on
    the wire, including frames that a random drop or a partition
    destroys before any latency draw; [ipc.oneway_latency_us] counts the
    frames that got a draw. *)

val messages_sent : t -> endpoint -> int
(** Wire frames sent {e from} the given endpoint — with batching on, a
    flushed report frame or reply frame counts once however many
    messages it carries. *)

val bytes_sent : t -> endpoint -> int

val decode_failures : t -> int
(** Deliveries whose bytes failed to decode. A corrupt batch frame
    counts once, atomically: none of its entries are delivered. *)

val pending_reports : t -> int
(** Reports parked in the not-yet-flushed batch frame (0 with batching
    off). *)

val batches_sent : t -> int
(** Report frames flushed onto the wire since creation; reply frames
    count in {!messages_sent} only. *)

val reports_batched : t -> int
(** Reports that went through the batching path (parked then flushed),
    including frames of one. *)

(** Cumulative effect of the fault plan on this channel, both directions
    combined: a view of the [ipc.faults.dropped], [.duplicated],
    [.delayed], [.reordered] and [.partition_dropped] counters. All-zero
    when the plan is {!Fault_plan.none}. *)
type fault_stats = {
  dropped : int;  (** random per-message losses *)
  duplicated : int;  (** extra copies delivered *)
  delayed : int;  (** latency spikes applied *)
  reordered : int;  (** messages released from the FIFO floor *)
  partition_dropped : int;
      (** losses to partitions and agent outages, including in-flight
          messages that arrived at a crashed agent *)
}

val fault_plan : t -> Fault_plan.t
val fault_stats : t -> fault_stats
