type trace_context = int

let no_trace = -1

type urgent_kind = Dup_ack_loss | Timeout | Ecn

type layout = { id : int; names : string array }

(* --- the layout table ---

   One table per process: an immutable array of every interned layout,
   sorted by id, behind an [Atomic.t]. A lookup is a binary search of
   whatever array it reads, so it is safe from any domain and allocates
   nothing; an intern copies the array with the new layout in place and
   publishes it with a compare-and-set. Interns are rare (one per fold
   plan a datapath builds), lookups are per report.

   A layout's id is the 64-bit FNV-1a hash of its names (the count, then
   each name length-prefixed, lengths as LEB128 bytes), cut to 62 bits:
   a content hash, so the same names get the same id in every process,
   whatever was interned before. The hash runs on native ints, which
   wrap at 63 bits: the low 63 bits of a 64-bit product depend only on
   the factors' low 63 bits, so this is the 64-bit hash's low part, and
   it allocates nothing. *)

let table : layout array Atomic.t = Atomic.make [||]
let fnv_offset = Int64.to_int 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3
let hash_byte h b = (h lxor b) * fnv_prime

let rec hash_length h n =
  if n < 0x80 then hash_byte h n else hash_length (hash_byte h (0x80 lor (n land 0x7f))) (n lsr 7)

let rec hash_bytes h s i =
  if i = String.length s then h
  else hash_bytes (hash_byte h (Char.code (String.unsafe_get s i))) s (i + 1)

let hash_name h name = hash_bytes (hash_length h (String.length name)) name 0

let layout_id names =
  Array.fold_left hash_name (hash_length fnv_offset (Array.length names)) names land max_int

(* The index in [known] of the first layout whose id is [>= id]. *)
let rec search (known : layout array) id lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if (Array.unsafe_get known mid).id < id then search known id (mid + 1) hi
    else search known id lo mid

let rec intern id names =
  let known = Atomic.get table in
  let i = search known id 0 (Array.length known) in
  if i < Array.length known && known.(i).id = id then begin
    let l = known.(i) in
    if l.names = names then l
    else
      (* About one chance in 2^62 / k^2 with k layouts interned: fail
         loudly rather than let two layouts share an id. *)
      let show names = String.concat "; " (Array.to_list names) in
      failwith
        (Printf.sprintf "Message.layout: [%s] and [%s] share id %d" (show names) (show l.names) id)
  end
  else begin
    let l = { id; names = Array.copy names } in
    let grown =
      Array.init (Array.length known + 1) (fun j ->
          if j < i then known.(j) else if j = i then l else known.(j - 1))
    in
    if Atomic.compare_and_set table known grown then l else intern id names
  end

let layout names = intern (layout_id names) names

let find_layout id =
  let known = Atomic.get table in
  let i = search known id 0 (Array.length known) in
  if i < Array.length known && (Array.unsafe_get known i).id = id then Array.unsafe_get known i
  else raise Not_found

let layouts_interned () = Array.length (Atomic.get table)

type report = { flow : int; layout : layout; values : float array }

let reserved_names =
  [|
    "_cwnd"; "_rate"; "_mss"; "_srtt_us"; "_rtt_us"; "_minrtt_us"; "_inflight_bytes";
    "_send_rate"; "_recv_rate"; "_now_us"; "_packets";
  |]

let reserved_layout = layout reserved_names
type vector_report = { flow : int; columns : string array; rows : float array array }
type urgent = { flow : int; kind : urgent_kind; cwnd_at_event : int; inflight_at_event : int }

type install_verdict =
  | Accepted
  | Rejected of { reason : Ccp_lang.Limits.reason; detail : string }

type install_result = { flow : int; verdict : install_verdict }

type incident_kind =
  | Cwnd_clamped
  | Rate_clamped
  | Wait_clamped
  | Non_finite
  | Div_by_zero_storm
  | Report_throttled
  | Fold_divergence
  | Eval_budget_exhausted

type quarantine = { flow : int; incidents : int; dominant : incident_kind }

type t =
  | Ready of { flow : int; mss : int; init_cwnd : int }
  | Report of report
  | Report_vector of vector_report
  | Urgent of urgent
  | Closed of { flow : int }
  | Install_result of install_result
  | Quarantined of quarantine
  | Install of { flow : int; program : Ccp_lang.Ast.program }
  | Set_cwnd of { flow : int; bytes : int }
  | Set_rate of { flow : int; bytes_per_sec : float }

let flow = function
  | Ready { flow; _ }
  | Report { flow; _ }
  | Report_vector { flow; _ }
  | Urgent { flow; _ }
  | Closed { flow }
  | Install_result { flow; _ }
  | Quarantined { flow; _ }
  | Install { flow; _ }
  | Set_cwnd { flow; _ }
  | Set_rate { flow; _ } ->
    flow

let urgent_kind_to_string = function
  | Dup_ack_loss -> "dup-ack-loss"
  | Timeout -> "timeout"
  | Ecn -> "ecn"

let incident_kind_to_string = function
  | Cwnd_clamped -> "cwnd-clamped"
  | Rate_clamped -> "rate-clamped"
  | Wait_clamped -> "wait-clamped"
  | Non_finite -> "non-finite"
  | Div_by_zero_storm -> "div-by-zero-storm"
  | Report_throttled -> "report-throttled"
  | Fold_divergence -> "fold-divergence"
  | Eval_budget_exhausted -> "eval-budget-exhausted"

let incident_index = function
  | Cwnd_clamped -> 0
  | Rate_clamped -> 1
  | Wait_clamped -> 2
  | Non_finite -> 3
  | Div_by_zero_storm -> 4
  | Report_throttled -> 5
  | Fold_divergence -> 6
  | Eval_budget_exhausted -> 7

let all_incident_kinds =
  [
    Cwnd_clamped; Rate_clamped; Wait_clamped; Non_finite; Div_by_zero_storm; Report_throttled;
    Fold_divergence; Eval_budget_exhausted;
  ]

let describe = function
  | Ready { flow; mss; init_cwnd } ->
    Printf.sprintf "ready(flow=%d mss=%d cwnd=%d)" flow mss init_cwnd
  | Report { flow; layout; _ } ->
    Printf.sprintf "report(flow=%d fields=%d)" flow (Array.length layout.names)
  | Report_vector { flow; rows; _ } ->
    Printf.sprintf "report-vector(flow=%d rows=%d)" flow (Array.length rows)
  | Urgent { flow; kind; _ } -> Printf.sprintf "urgent(flow=%d %s)" flow (urgent_kind_to_string kind)
  | Closed { flow } -> Printf.sprintf "closed(flow=%d)" flow
  | Install_result { flow; verdict = Accepted } -> Printf.sprintf "install-result(flow=%d ok)" flow
  | Install_result { flow; verdict = Rejected { reason; _ } } ->
    Printf.sprintf "install-result(flow=%d rejected: %s)" flow
      (Ccp_lang.Limits.reason_to_string reason)
  | Quarantined { flow; incidents; dominant } ->
    Printf.sprintf "quarantined(flow=%d incidents=%d dominant=%s)" flow incidents
      (incident_kind_to_string dominant)
  | Install { flow; _ } -> Printf.sprintf "install(flow=%d)" flow
  | Set_cwnd { flow; bytes } -> Printf.sprintf "set-cwnd(flow=%d %d)" flow bytes
  | Set_rate { flow; bytes_per_sec } -> Printf.sprintf "set-rate(flow=%d %.0f)" flow bytes_per_sec

let equal a b =
  match (a, b) with
  | Ready r1, Ready r2 -> r1.flow = r2.flow && r1.mss = r2.mss && r1.init_cwnd = r2.init_cwnd
  | Report r1, Report r2 ->
    r1.flow = r2.flow && r1.layout.id = r2.layout.id && r1.values = r2.values
  | Report_vector v1, Report_vector v2 ->
    v1.flow = v2.flow && v1.columns = v2.columns && v1.rows = v2.rows
  | Urgent u1, Urgent u2 -> u1 = u2
  | Closed c1, Closed c2 -> c1.flow = c2.flow
  | Install_result r1, Install_result r2 ->
    r1.flow = r2.flow
    && (match (r1.verdict, r2.verdict) with
       | Accepted, Accepted -> true
       | Rejected a, Rejected b ->
         Ccp_lang.Limits.equal_reason a.reason b.reason && String.equal a.detail b.detail
       | (Accepted | Rejected _), _ -> false)
  | Quarantined q1, Quarantined q2 ->
    q1.flow = q2.flow && q1.incidents = q2.incidents && q1.dominant = q2.dominant
  | Install i1, Install i2 ->
    i1.flow = i2.flow && Ccp_lang.Ast.equal_program i1.program i2.program
  | Set_cwnd s1, Set_cwnd s2 -> s1.flow = s2.flow && s1.bytes = s2.bytes
  | Set_rate s1, Set_rate s2 -> s1.flow = s2.flow && Float.equal s1.bytes_per_sec s2.bytes_per_sec
  | ( ( Ready _ | Report _ | Report_vector _ | Urgent _ | Closed _ | Install_result _
      | Quarantined _ | Install _ | Set_cwnd _ | Set_rate _ ),
      _ ) ->
    false
