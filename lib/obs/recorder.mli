(** Flight recorder: a bounded ring of typed events.

    Producers ([Tcp_flow], [Ccp_ext], [Channel], [Experiment]) record
    events with the simulation timestamp; when the ring is full the
    oldest event is overwritten and [dropped] counts exactly how many
    were lost. Memory is two preallocated arrays — recording an event
    stores into existing slots and allocates only the event value itself.

    Sinks: JSONL (one event object per line, oldest first) and a CSV of
    just the [Flow_sample] rows for plotting cwnd/rate/RTT traces. *)

(** A finalized control-loop span from {!Tracer}: all [*_at] fields are
    simulation nanoseconds, -1 when the span never reached that stage;
    [*_ns] fields are wall-clock stage costs (0 when unmeasured). *)
type span = {
  id : int;
  flow : int;
  kind : string; (* "report" | "urgent" *)
  disposition : string; (* "actuated" | "no_action" | "rejected" | "orphaned" | "shed" *)
  started_at : int;
  sent_at : int;
  agent_at : int;
  action_at : int;
  done_at : int;
  summarize_ns : float;
  handler_ns : float;
  apply_ns : float;
}

type event =
  | Flow_sample of {
      flow : int;
      cwnd : int; (* bytes *)
      rate : float; (* bytes/sec; 0 when unpaced *)
      srtt_us : float; (* 0 until first sample *)
      inflight : int; (* bytes outstanding *)
      delivery_rate : float; (* bytes/sec *)
    }
  | Queue_sample of { bytes : int }
  | Install of { flow : int; accepted : bool; detail : string }
  | Quarantine of { flow : int; incidents : int; dominant : string }
  | Fallback of { flow : int; entered : bool }
  | Report_sent of { flow : int; urgent : bool }
  | Ipc_fault of { kind : string }
  | Span of span
  | Alert of { slo : string; state : string; burn_short : float; burn_long : float }
      (** {!Health} burn-rate alert state transition (JSONL kind
          ["alert"]); [state] is ["firing"] or ["ok"]. *)
  | Custom of { name : string; value : float }

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 65536 events. *)

val capacity : t -> int

val record : t -> at:int -> event -> unit
(** [at] is the simulation timestamp in nanoseconds ([Time_ns.t]). *)

val length : t -> int
(** Events currently held (<= capacity). *)

val recorded : t -> int
(** Total events ever recorded, including dropped ones. *)

val dropped : t -> int
(** Events overwritten because the ring was full. *)

val to_list : t -> (int * event) list
(** Held events, oldest first. *)

val to_jsonl : t -> string
(** One JSON object per line, oldest first, trailing newline. *)

val flow_samples_csv : t -> string
(** Header + one row per [Flow_sample]:
    [time_s,flow,cwnd_bytes,rate_bps,srtt_us,inflight_bytes,delivery_rate_bps]. *)

val flow_series : t -> flow:int -> (float -> event -> float option) -> (float * float) array
(** Extract a (time_sec, value) series for one flow; the callback picks
    the value out of each event (returning [None] to skip). Used by the
    fidelity comparison. *)

val cwnd_of_event : flow:int -> float -> event -> float option
(** Selector for [flow_series]: cwnd in bytes of [Flow_sample]s. *)
