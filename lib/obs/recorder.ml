type span = {
  id : int;
  flow : int;
  kind : string;
  disposition : string;
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
      cwnd : int;
      rate : float;
      srtt_us : float;
      inflight : int;
      delivery_rate : float;
    }
  | Queue_sample of { bytes : int }
  | Install of { flow : int; accepted : bool; detail : string }
  | Quarantine of { flow : int; incidents : int; dominant : string }
  | Fallback of { flow : int; entered : bool }
  | Report_sent of { flow : int; urgent : bool }
  | Ipc_fault of { kind : string }
  | Span of span
  | Alert of { slo : string; state : string; burn_short : float; burn_long : float }
  | Custom of { name : string; value : float }

type t = {
  times : int array;
  events : event array;
  cap : int;
  mutable next : int; (* ring write cursor *)
  mutable recorded : int; (* total ever recorded *)
}

let placeholder = Queue_sample { bytes = 0 }

let create ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Recorder.create: capacity must be > 0";
  {
    times = Array.make capacity 0;
    events = Array.make capacity placeholder;
    cap = capacity;
    next = 0;
    recorded = 0;
  }

let capacity t = t.cap

let record t ~at event =
  t.times.(t.next) <- at;
  t.events.(t.next) <- event;
  t.next <- (t.next + 1) mod t.cap;
  t.recorded <- t.recorded + 1

let length t = min t.recorded t.cap

let recorded t = t.recorded

let dropped t = max 0 (t.recorded - t.cap)

let to_list t =
  let n = length t in
  let start = if t.recorded <= t.cap then 0 else t.next in
  List.init n (fun i ->
      let j = (start + i) mod t.cap in
      (t.times.(j), t.events.(j)))

let event_to_json ~at event =
  let time_s = float_of_int at /. 1e9 in
  let base kind fields =
    Json.Obj (("t", Json.Num time_s) :: ("ev", Json.Str kind) :: fields)
  in
  match event with
  | Flow_sample { flow; cwnd; rate; srtt_us; inflight; delivery_rate } ->
    base "flow_sample"
      [
        ("flow", Json.Num (float_of_int flow));
        ("cwnd", Json.Num (float_of_int cwnd));
        ("rate", Json.Num rate);
        ("srtt_us", Json.Num srtt_us);
        ("inflight", Json.Num (float_of_int inflight));
        ("delivery_rate", Json.Num delivery_rate);
      ]
  | Queue_sample { bytes } ->
    base "queue_sample" [ ("bytes", Json.Num (float_of_int bytes)) ]
  | Install { flow; accepted; detail } ->
    base "install"
      [
        ("flow", Json.Num (float_of_int flow));
        ("accepted", Json.Bool accepted);
        ("detail", Json.Str detail);
      ]
  | Quarantine { flow; incidents; dominant } ->
    base "quarantine"
      [
        ("flow", Json.Num (float_of_int flow));
        ("incidents", Json.Num (float_of_int incidents));
        ("dominant", Json.Str dominant);
      ]
  | Fallback { flow; entered } ->
    base "fallback"
      [ ("flow", Json.Num (float_of_int flow)); ("entered", Json.Bool entered) ]
  | Report_sent { flow; urgent } ->
    base "report"
      [ ("flow", Json.Num (float_of_int flow)); ("urgent", Json.Bool urgent) ]
  | Ipc_fault { kind } -> base "ipc_fault" [ ("kind", Json.Str kind) ]
  | Span s ->
    base "span"
      [
        ("id", Json.Num (float_of_int s.id));
        ("flow", Json.Num (float_of_int s.flow));
        ("kind", Json.Str s.kind);
        ("disposition", Json.Str s.disposition);
        ("started_at", Json.Num (float_of_int s.started_at));
        ("sent_at", Json.Num (float_of_int s.sent_at));
        ("agent_at", Json.Num (float_of_int s.agent_at));
        ("action_at", Json.Num (float_of_int s.action_at));
        ("done_at", Json.Num (float_of_int s.done_at));
        ("summarize_ns", Json.Num s.summarize_ns);
        ("handler_ns", Json.Num s.handler_ns);
        ("apply_ns", Json.Num s.apply_ns);
      ]
  | Alert { slo; state; burn_short; burn_long } ->
    base "alert"
      [
        ("slo", Json.Str slo);
        ("state", Json.Str state);
        ("burn_short", Json.Num burn_short);
        ("burn_long", Json.Num burn_long);
      ]
  | Custom { name; value } ->
    base "custom" [ ("name", Json.Str name); ("value", Json.Num value) ]

let to_jsonl t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (at, ev) ->
      Buffer.add_string buf (Json.to_string (event_to_json ~at ev));
      Buffer.add_char buf '\n')
    (to_list t);
  Buffer.contents buf

let flow_samples_csv t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "time_s,flow,cwnd_bytes,rate_bps,srtt_us,inflight_bytes,delivery_rate_bps\n";
  List.iter
    (fun (at, ev) ->
      match ev with
      | Flow_sample { flow; cwnd; rate; srtt_us; inflight; delivery_rate } ->
        Buffer.add_string buf
          (Printf.sprintf "%.6f,%d,%d,%.3f,%.3f,%d,%.3f\n"
             (float_of_int at /. 1e9)
             flow cwnd (rate *. 8.0) srtt_us inflight (delivery_rate *. 8.0))
      | _ -> ())
    (to_list t);
  Buffer.contents buf
