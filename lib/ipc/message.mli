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

(** A report layout: the names of a fold report's fields, in order.
    Layouts are interned once per process by {!layout}, and a report
    carries only its layout's [id] on the wire, never a name. *)
type layout = private {
  id : int;
      (** a 62-bit content hash of [names] (64-bit FNV-1a, cut to 62
          bits): the same names get the same id in every process,
          whatever it interned before *)
  names : string array;  (** shared and read-only: never mutate it *)
}

val layout : string array -> layout
(** The interned layout of these names, interning it on first use; the
    array is copied, so the caller may reuse it. Safe from several
    domains. Raises [Failure] if other names already hold the same id, a
    hash collision (about one chance in [2^62 / k^2] with [k] layouts
    interned). *)

val find_layout : int -> layout
(** The interned layout with this id; never interns. Raises [Not_found]
    for an id nothing interned. A binary search: allocation-free, and
    safe from several domains. *)

val layouts_interned : unit -> int
(** Layouts interned so far in this process. *)

(** A fold-mode summary: [values.(i)] is the field named
    [layout.names.(i)]. The datapath lays out the fold's fields in init
    order, then {!reserved_names}, and builds one layout per fold plan;
    every report of the plan shares it. On the wire a report is its
    flow, its layout's id, its value count and its values; the receiving
    end finds the layout by id, so decoding reads no name. [values] is
    fresh per report and as long as [layout.names]. *)
type report = { flow : int; layout : layout; values : float array }

val reserved_names : string array
(** The eleven fields every report ends with: [_cwnd], [_rate], [_mss],
    [_srtt_us], [_rtt_us], [_minrtt_us], [_inflight_bytes], [_send_rate],
    [_recv_rate], [_now_us], [_packets]. Shared and read-only. *)

val reserved_layout : layout
(** {!reserved_names} alone: the layout of a report with no fold. *)

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

val incident_index : incident_kind -> int
(** The kind's position in {!all_incident_kinds}, from 0: an array index
    and the kind's wire tag. *)

val equal : t -> t -> bool
