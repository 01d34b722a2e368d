(* One repetition of a workload: a single [Experiment.run], untraced or
   traced, with its output checks and the digest of what it simulated. *)

open Ccp_util
open Ccp_core
module Sim = Ccp_eventsim.Sim
module Metrics = Ccp_obs.Metrics
module Json = Ccp_obs.Json
module Channel = Ccp_ipc.Channel

type t = {
  sim_seed : int;  (* the seed simulated, which some workloads pin *)
  traced : bool;
  wall_s : float;  (* Experiment.run call to return *)
  calib_ns : float;
      (* [Machine.ns_per_op] around the repetition, set by the parent
         process; [Machine.reference_ns], no scaling, until then *)
  digest : string;
  failures : string list;  (* failed output checks *)
  rows : Metrics.row list;
      (* end-to-end when untraced, in raw wall time (see [scaled]);
         per-layer when traced *)
}

(* [t] with its end-to-end times scaled to the reference machine (see
   [Machine]). *)
let scaled t =
  let machine = t.calib_ns /. Machine.reference_ns in
  let row (r : Metrics.row) =
    match r.Metrics.name with
    | "sim_speed" -> { r with Metrics.value = r.Metrics.value *. machine }
    | "setup_s" -> { r with Metrics.value = r.Metrics.value /. machine }
    | _ -> r
  in
  { t with rows = List.map row t.rows }

(* Everything the run simulated, none of what it cost: the traced and
   untraced runs of one seed must agree on it exactly. *)
let digest (r : Experiment.result) handles =
  let b = Buffer.create 4096 in
  Printf.bprintf b "%h %d %d %d %d %d" r.Experiment.utilization r.Experiment.median_rtt
    r.Experiment.p95_rtt r.Experiment.p99_rtt r.Experiment.drops r.Experiment.ecn_marks;
  List.iter
    (fun (f : Experiment.flow_result) ->
      Printf.bprintf b " %d:%d:%d:%d:%d:%d" f.Experiment.flow_id f.Experiment.delivered_bytes
        f.Experiment.segments_sent f.Experiment.retransmits f.Experiment.timeouts
        f.Experiment.final_cwnd)
    r.Experiment.flows;
  Option.iter
    (fun (s : Experiment.agent_stats) ->
      Printf.bprintf b " %d %d %d %d %d" s.Experiment.reports s.Experiment.urgents
        s.Experiment.installs s.Experiment.ipc_bytes_to_agent s.Experiment.ipc_bytes_to_datapath)
    r.Experiment.agent_stats;
  Option.iter
    (fun (h : Experiment.handles) ->
      Printf.bprintf b " %d %d"
        (Channel.messages_sent h.Experiment.h_channel Channel.Datapath_end)
        (Channel.messages_sent h.Experiment.h_channel Channel.Agent_end))
    handles;
  List.iter
    (fun series ->
      Buffer.add_string b series;
      List.iter
        (fun (at, v) ->
          Buffer.add_int64_le b (Int64.of_int at);
          Buffer.add_int64_le b (Int64.bits_of_float v))
        (Ccp_net.Trace.series r.Experiment.trace series))
    (Ccp_net.Trace.series_names r.Experiment.trace);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* [util_floor] holds only at the workload's own length. *)
let checks ~util_floor (config : Experiment.config) (r : Experiment.result) handles =
  let fail fmt = Printf.ksprintf (fun s -> [ s ]) fmt in
  let zero name v = if v = 0 then [] else fail "%s = %d, expected 0" name v in
  let util =
    match util_floor with
    | Some floor when r.Experiment.utilization < floor ->
      fail "utilization %.4f below the floor %.4f" r.Experiment.utilization floor
    | Some _ | None -> []
  in
  let plumbing =
    match handles with
    | None -> []
    | Some (h : Experiment.handles) ->
      let dp = h.Experiment.h_datapath and ag = h.Experiment.h_agent in
      let sent = Ccp_datapath.Ccp_ext.reports_sent dp in
      let accounted = Ccp_agent.Agent.reports_received ag + Ccp_agent.Agent.reports_shed ag in
      let batch =
        match config.Experiment.ipc_batching with
        | Some b -> b.Channel.max_count
        | None -> 1
      in
      zero "channel.decode_failures" (Channel.decode_failures h.Experiment.h_channel)
      @ zero "agent.registrations_rejected" (Ccp_agent.Agent.registrations_rejected ag)
      @ zero "agent.handler_errors" (Ccp_agent.Agent.handler_errors ag)
      @ zero "ccp_ext.installs_rejected" (Ccp_datapath.Ccp_ext.installs_rejected dp)
      @
      if accounted > sent || sent - accounted > batch then
        fail "reports dispatched+shed = %d against %d sent (slack %d)" accounted sent batch
      else []
  in
  util @ plumbing

let has_ccp (config : Experiment.config) =
  List.exists
    (fun (f : Experiment.flow_spec) ->
      match f.Experiment.cc with Experiment.Ccp_cc _ -> true | Experiment.Native_cc _ -> false)
    config.Experiment.flows

(* Marks the first [on_init] of a native flow: with no CCP plumbing there
   is no [inspect] hook to schedule a probe from. *)
let mark_on_init mark (config : Experiment.config) =
  let flow (f : Experiment.flow_spec) =
    match f.Experiment.cc with
    | Experiment.Native_cc make ->
      let make () =
        let cc = make () in
        {
          cc with
          Ccp_datapath.Congestion_iface.on_init =
            (fun ctl ->
              mark ();
              cc.Ccp_datapath.Congestion_iface.on_init ctl);
        }
      in
      { f with Experiment.cc = Experiment.Native_cc make }
    | Experiment.Ccp_cc _ -> f
  in
  { config with Experiment.flows = List.map flow config.Experiment.flows }

let row = Ledger.row

let run ?duration ~traced (w : Workload.t) ~seed =
  let duration = Option.value duration ~default:w.Workload.duration in
  let config = w.Workload.make ~seed ~duration in
  let ccp = has_ccp config in
  let ledger = Ledger.create () in
  let obs = if traced && ccp then Some (Ledger.make_obs ()) else None in
  let handles = ref None in
  let first_event = ref 0 in
  let mark () = if !first_event = 0 then first_event := Ledger.now () in
  let inspect (h : Experiment.handles) =
    handles := Some h;
    match obs with
    | Some obs -> Ledger.drive ledger ~obs ~duration h
    | None -> ignore (Sim.schedule h.Experiment.h_sim ~at:Time_ns.zero mark : Sim.timer)
  in
  let config = if traced then Ledger.instrument ledger config else config in
  let config = { (mark_on_init mark config) with Experiment.inspect = Some inspect; obs } in
  let words0 = Gc.minor_words () in
  let called = Ledger.now () in
  let result = Experiment.run config in
  let returned = Ledger.now () in
  let words = Gc.minor_words () -. words0 in
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let handles = !handles in
  let first_event = if obs = None then !first_event else ledger.Ledger.first_event in
  let rows =
    if traced then Ledger.rows ledger ~obs ~handles ~result ~called ~returned
    else
      [
        row "sim_speed"
          (Time_ns.to_float_sec duration /. (float_of_int (returned - first_event) /. 1e9))
          "sim_s/s";
        row "setup_s" (float_of_int (first_event - called) /. 1e9) "s";
        row "peak_heap_mb"
          (float_of_int (top_heap_words * (Sys.word_size / 8)) /. 1e6)
          "MB";
        row "alloc_mwords" (words /. 1e6) "Mwords";
      ]
  in
  {
    sim_seed = config.Experiment.seed;
    traced;
    wall_s = float_of_int (returned - called) /. 1e9;
    calib_ns = Machine.reference_ns;
    digest = digest result handles;
    failures =
      checks config result handles
        ~util_floor:(if duration = w.Workload.duration then w.Workload.util_floor else None);
    rows;
  }

(* --- the child-to-parent wire format --- *)

let to_json t =
  Json.Obj
    [
      ("sim_seed", Json.Num (float_of_int t.sim_seed));
      ("traced", Json.Bool t.traced);
      ("wall_s", Json.Num t.wall_s);
      ("calib_ns", Json.Num t.calib_ns);
      ("digest", Json.Str t.digest);
      ("failures", Json.List (List.map (fun s -> Json.Str s) t.failures));
      ("rows", Metrics.rows_to_json t.rows);
    ]

let of_json j =
  let field name = Option.get (Json.member name j) in
  let num name = Option.get (Json.to_float (field name)) in
  let strings = function Json.List l -> List.filter_map Json.to_str l | _ -> [] in
  {
    sim_seed = int_of_float (num "sim_seed");
    traced = field "traced" = Json.Bool true;
    wall_s = num "wall_s";
    calib_ns = num "calib_ns";
    digest = Option.get (Json.to_str (field "digest"));
    failures = strings (field "failures");
    rows = Result.get_ok (Metrics.rows_of_json (field "rows"));
  }
