(** Messages exchanged between the datapath and the CCP agent.

    Datapath → agent: flow lifecycle, batched measurement reports (fold
    state or per-packet vectors, §2.4) and urgent events (§2.1).
    Agent → datapath: program installation and direct window/rate commands
    (the fallback the paper describes for datapaths that cannot run control
    programs). *)

type trace_context = int
(** A {!Ccp_obs.Tracer} span token riding alongside a message, or
    {!no_trace}. Encoded as an optional trailing wire block (see
    {!Codec.encode_traced}); messages encoded without one decode as
    {!no_trace}, so the field is wire-compatible in both directions. *)

val no_trace : trace_context
(** [-1]. *)

type urgent_kind =
  | Dup_ack_loss  (** triple duplicate ACK (fast-retransmit trigger) *)
  | Timeout  (** retransmission timeout *)
  | Ecn  (** ECN congestion-experienced echo *)

(** A fold-mode summary: [values.(i)] is the field named [names.(i)]. The
    datapath lays out the fold's fields in init order, then
    {!reserved_names}; on the wire each field is still a name/value
    pair.

    [names] is shared and read-only: the datapath builds one array per
    fold plan and every report of that plan carries it, and the
    agent-bound decoder hands out the previous report's array again when
    the names on the wire match it. Never mutate it. [values] is fresh
    per report. Both have the same length. *)
type report = { flow : int; names : string array; values : float array }

val reserved_names : string array
(** The eleven fields every report ends with: [_cwnd], [_rate], [_mss],
    [_srtt_us], [_rtt_us], [_minrtt_us], [_inflight_bytes], [_send_rate],
    [_recv_rate], [_now_us], [_packets]. Shared and read-only, like
    [report.names]. *)

type vector_report = {
  flow : int;
  columns : string array;
  rows : float array array;  (** one row per acknowledged packet *)
}

type urgent = {
  flow : int;
  kind : urgent_kind;
  cwnd_at_event : int;
  inflight_at_event : int;
}

(** Datapath's answer to an [Install]: admission control (§2.4) makes
    rejection observable instead of a silent drop. *)
type install_verdict =
  | Accepted
  | Rejected of { reason : Ccp_lang.Limits.reason; detail : string }

type install_result = { flow : int; verdict : install_verdict }

(** Runtime-guardrail incident classes the datapath counts per flow; the
    dominant kind is reported when a flow is quarantined. *)
type incident_kind =
  | Cwnd_clamped  (** Cwnd eval outside the guard envelope *)
  | Rate_clamped  (** Rate eval above the rate ceiling *)
  | Wait_clamped  (** computed wait below the runtime floor *)
  | Non_finite  (** NaN/±∞ clamped during evaluation *)
  | Div_by_zero_storm  (** sustained division by zero *)
  | Report_throttled  (** report sent faster than the rate limiter allows *)
  | Fold_divergence  (** fold state went non-finite or past the limit *)
  | Eval_budget_exhausted  (** per-tick eval-step budget hit *)

type quarantine = { flow : int; incidents : int; dominant : incident_kind }

type t =
  (* datapath -> agent *)
  | Ready of { flow : int; mss : int; init_cwnd : int }
  | Report of report
  | Report_vector of vector_report
  | Urgent of urgent
  | Closed of { flow : int }
  | Install_result of install_result
  | Quarantined of quarantine
      (** incidents crossed the threshold; the flow fell back to native CC
          and only an accepted re-[Install] wins it back *)
  (* agent -> datapath *)
  | Install of { flow : int; program : Ccp_lang.Ast.program }
  | Set_cwnd of { flow : int; bytes : int }
  | Set_rate of { flow : int; bytes_per_sec : float }

val flow : t -> int
val describe : t -> string
val incident_kind_to_string : incident_kind -> string
val all_incident_kinds : incident_kind list
val equal : t -> t -> bool
