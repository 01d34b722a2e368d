(* The per-layer ledger of a traced repetition, measured from outside
   the library.

   - An event stepper: [config.inspect] schedules a sentinel at the end of
     the run and a t=0 probe that fires every event itself with
     [Sim.step], timing each one, until the sentinel fires. The outer
     [Sim.run] then fires the events left at exactly [duration], so event
     order is unchanged.
   - Each event is classified by the public counter that moved while it
     ran (see [drive]).
   - A wrapper around [Algorithm.t] times the handlers and the
     [handle.install]/[set_cwnd] calls made from them; one around a
     native controller times [on_ack].
   - Codec, typecheck/compile and scheduler costs are replayed in
     isolation on inputs captured from the run. *)

open Ccp_util
open Ccp_core
module Sim = Ccp_eventsim.Sim
module Metrics = Ccp_obs.Metrics
module Ccp_ext = Ccp_datapath.Ccp_ext
module Agent = Ccp_agent.Agent
module Algorithm = Ccp_agent.Algorithm
module Message = Ccp_ipc.Message
module Codec = Ccp_ipc.Codec

let now () = Int64.to_int (Monotonic_clock.now ())

(* Event classes, in the order they are tested. *)
let ack = 0
let install = 1
let agent = 2
let report = 3
let timer = 4
let other = 5
let class_count = 6

let captured_reports = 256
let captured_programs = 64

type t = {
  count : int array;  (* events per class *)
  ns : int array;  (* wall ns inside the events of each class *)
  handler_in : int array;  (* part of [ns] spent inside algorithm handlers *)
  mutable first_event : int;
  mutable pending_sum : int;  (* queue depth before each driven event *)
  mutable handler_ns : int;
  mutable handler_calls : int;
  mutable on_report_calls : int;
  mutable on_report_self_ns : int;
  mutable nested_ns : int;  (* install/set_cwnd calls made from handlers *)
  mutable install_calls : int;
  mutable install_ns : int;
  mutable native_acks : int;
  mutable native_ack_ns : int;
  reports : Message.report option array;  (* the latest [captured_reports] *)
  mutable reports_seen : int;
}

let create () =
  {
    count = Array.make class_count 0;
    ns = Array.make class_count 0;
    handler_in = Array.make class_count 0;
    first_event = 0;
    pending_sum = 0;
    handler_ns = 0;
    handler_calls = 0;
    on_report_calls = 0;
    on_report_self_ns = 0;
    nested_ns = 0;
    install_calls = 0;
    install_ns = 0;
    native_acks = 0;
    native_ack_ns = 0;
    reports = Array.make captured_reports None;
    reports_seen = 0;
  }

(* --- wrappers --- *)

let timed_handler t ?(on_report = false) f x =
  let t0 = now () and nested0 = t.nested_ns in
  let account () =
    let dt = now () - t0 in
    t.handler_calls <- t.handler_calls + 1;
    t.handler_ns <- t.handler_ns + dt;
    if on_report then begin
      t.on_report_calls <- t.on_report_calls + 1;
      t.on_report_self_ns <- t.on_report_self_ns + dt - (t.nested_ns - nested0)
    end
  in
  match f x with
  | () -> account ()
  | exception e ->
    account ();
    raise e

let timed_action t ~is_install f x =
  let t0 = now () in
  f x;
  let dt = now () - t0 in
  t.nested_ns <- t.nested_ns + dt;
  if is_install then begin
    t.install_calls <- t.install_calls + 1;
    t.install_ns <- t.install_ns + dt
  end

let wrap_algorithm t (algo : Algorithm.t) : Algorithm.t =
  let make (handle : Algorithm.handle) =
    let handle =
      {
        handle with
        Algorithm.install = timed_action t ~is_install:true handle.Algorithm.install;
        set_cwnd = timed_action t ~is_install:false handle.Algorithm.set_cwnd;
      }
    in
    let h = algo.Algorithm.make handle in
    let capture (r : Message.report) =
      t.reports.(t.reports_seen mod captured_reports) <- Some r;
      t.reports_seen <- t.reports_seen + 1;
      h.Algorithm.on_report r
    in
    {
      h with
      Algorithm.on_ready = timed_handler t h.Algorithm.on_ready;
      on_report = timed_handler t ~on_report:true capture;
      on_report_vector = timed_handler t h.Algorithm.on_report_vector;
      on_urgent = timed_handler t h.Algorithm.on_urgent;
      on_install_result = timed_handler t h.Algorithm.on_install_result;
      on_quarantine = timed_handler t h.Algorithm.on_quarantine;
    }
  in
  { algo with Algorithm.make }

let wrap_native t (cc : Ccp_datapath.Congestion_iface.t) =
  {
    cc with
    Ccp_datapath.Congestion_iface.on_ack =
      (fun ctl ev ->
        let t0 = now () in
        cc.Ccp_datapath.Congestion_iface.on_ack ctl ev;
        t.native_ack_ns <- t.native_ack_ns + (now () - t0);
        t.native_acks <- t.native_acks + 1);
  }

let instrument t (config : Experiment.config) =
  let flow (f : Experiment.flow_spec) =
    match f.Experiment.cc with
    | Experiment.Ccp_cc algo -> { f with cc = Experiment.Ccp_cc (wrap_algorithm t algo) }
    | Experiment.Native_cc make ->
      { f with cc = Experiment.Native_cc (fun () -> wrap_native t (make ())) }
  in
  { config with Experiment.flows = List.map flow config.Experiment.flows }

(* --- event stepper --- *)

(* The metrics-only bundle whose counters classify events. Its clock is
   the monotonic wall clock (the default [Sys.time] is process CPU
   time); no recorder and no tracer, whose wire bytes would move batch
   flushes. *)
let make_obs () = Ccp_obs.Obs.create ~recorder:false ~clock:(fun () -> float_of_int (now ())) ()

let drive t ~obs ~duration (h : Experiment.handles) =
  let sim = h.Experiment.h_sim and dp = h.Experiment.h_datapath and ag = h.Experiment.h_agent in
  let m = obs.Ccp_obs.Obs.metrics in
  let acks = Metrics.counter m ~unit_:"acks" "datapath.acks_processed" in
  let segments = Metrics.counter m ~unit_:"segments" "tcp.segments_sent" in
  let stop = ref false in
  ignore (Sim.schedule sim ~at:duration (fun () -> stop := true) : Sim.timer);
  let rec loop () =
    if not !stop then begin
      let pending = Sim.pending_events sim in
      let a = Metrics.counter_value acks and i = Ccp_ext.installs_accepted dp in
      let g = Agent.reports_received ag and r = Ccp_ext.reports_sent dp in
      let s = Metrics.counter_value segments and hn = t.handler_ns in
      let t0 = now () in
      if Sim.step sim then begin
        let dt = now () - t0 in
        let c =
          if Metrics.counter_value acks <> a then ack
          else if Ccp_ext.installs_accepted dp <> i then install
          else if Agent.reports_received ag <> g then agent
          else if Ccp_ext.reports_sent dp <> r then report
          else if Metrics.counter_value segments <> s then timer
          else other
        in
        t.count.(c) <- t.count.(c) + 1;
        t.ns.(c) <- t.ns.(c) + dt;
        t.handler_in.(c) <- t.handler_in.(c) + (t.handler_ns - hn);
        t.pending_sum <- t.pending_sum + pending;
        loop ()
      end
    end
  in
  ignore
    (Sim.schedule sim ~at:Time_ns.zero (fun () ->
         t.first_event <- now ();
         loop ())
      : Sim.timer)

(* --- isolated replays --- *)

(* ns per call of [f] over [inputs], looping for at least 20 ms. *)
let per_call inputs f =
  let n = Array.length inputs in
  let t0 = now () in
  let calls = ref 0 in
  while now () - t0 < 20_000_000 do
    Array.iter f inputs;
    calls := !calls + n
  done;
  float_of_int (now () - t0) /. float_of_int !calls

let distinct_programs dp ~flows =
  let rec collect acc i =
    if i >= flows || List.length acc >= captured_programs then List.rev acc
    else
      match Ccp_ext.installed_program dp ~flow:i with
      | Some p when not (List.mem p acc) -> collect (p :: acc) (i + 1)
      | Some _ | None -> collect acc (i + 1)
  in
  Array.of_list (collect [] 0)

(* A fresh scheduler holding [depth] far-future events; each call
   schedules one no-op just ahead and fires it. *)
let step_isolated_ns ~depth =
  let sim = Sim.create () in
  for i = 1 to depth do
    ignore (Sim.schedule sim ~at:(Time_ns.sec 1000 + i) ignore : Sim.timer)
  done;
  let noop () = () in
  per_call (Array.make 1024 ()) (fun () ->
      ignore (Sim.schedule_after sim ~delay:1 noop : Sim.timer);
      ignore (Sim.step sim : bool))

(* --- rows --- *)

let row name value unit_ = { Metrics.name; value; unit_ }
let mean total n = if n = 0 then 0.0 else float_of_int total /. float_of_int n

let rows t ~obs ~handles ~(result : Experiment.result) ~called ~returned =
  let flows = result.Experiment.flows in
  let sum f = List.fold_left (fun acc fr -> acc + f fr) 0 flows in
  let segments = sum (fun (f : Experiment.flow_result) -> f.Experiment.segments_sent) in
  let retx = sum (fun (f : Experiment.flow_result) -> f.Experiment.retransmits) in
  let common =
    [
      row "tcp.segments" (float_of_int segments) "count";
      row "tcp.retx_ratio" (mean retx segments) "ratio";
      row "tcp.timeouts" (float_of_int (sum (fun f -> f.Experiment.timeouts))) "count";
      row "net.drops" (float_of_int result.Experiment.drops) "count";
    ]
  in
  match (handles, obs) with
  | None, _ | _, None ->
    common
    @ [
        row "tcp.ack_events" (float_of_int t.native_acks) "count";
        row "native_cc.on_ack_ns" (mean t.native_ack_ns t.native_acks) "ns";
      ]
  | Some (h : Experiment.handles), Some obs ->
    let dp = h.Experiment.h_datapath and ag = h.Experiment.h_agent in
    let ch = h.Experiment.h_channel in
    let fold_ns =
      Metrics.hist_mean
        (Metrics.histogram obs.Ccp_obs.Obs.metrics ~unit_:"ns" "datapath.fold_step_ns")
    in
    let class_ns c = mean t.ns.(c) t.count.(c) in
    let events = Array.fold_left ( + ) 0 t.count in
    let event_ns = Array.fold_left ( + ) 0 t.ns in
    let sent = Ccp_ext.reports_sent dp and received = Agent.reports_received ag in
    let reports = Array.of_list (List.filter_map Fun.id (Array.to_list t.reports)) in
    let programs = distinct_programs dp ~flows:(List.length flows) in
    let replay name inputs f = if inputs = [||] then [] else [ row name (per_call inputs f) "ns" ] in
    let report_msgs = Array.map (fun r -> Message.Report r) reports in
    let install_msgs = Array.map (fun program -> Message.Install { flow = 0; program }) programs in
    let encoded msgs = Array.map Codec.encode msgs in
    let pending_mean = mean t.pending_sum events in
    let wall = returned - called in
    common
    @ [
        row "tcp.ack_events" (float_of_int t.count.(ack)) "count";
        row "tcp.ack_self_ns" (class_ns ack -. fold_ns) "ns";
        row "tcp.timer_events" (float_of_int t.count.(timer)) "count";
        row "tcp.timer_event_ns" (class_ns timer) "ns";
        row "ccp_ext.fold_ns" fold_ns "ns";
        row "ccp_ext.report_events" (float_of_int t.count.(report)) "count";
        row "ccp_ext.report_event_ns" (class_ns report) "ns";
        row "ccp_ext.install_events" (float_of_int t.count.(install)) "count";
        row "ccp_ext.install_event_ns" (class_ns install) "ns";
        row "channel.frames_per_report"
          (mean (Ccp_ipc.Channel.messages_sent ch Ccp_ipc.Channel.Datapath_end) sent)
          "frames/report";
        row "channel.bytes_per_report"
          (mean (Ccp_ipc.Channel.bytes_sent ch Ccp_ipc.Channel.Datapath_end) sent)
          "bytes/report";
        row "channel.frames_to_datapath"
          (float_of_int (Ccp_ipc.Channel.messages_sent ch Ccp_ipc.Channel.Agent_end))
          "count";
        row "channel.decode_failures" (float_of_int (Ccp_ipc.Channel.decode_failures ch)) "count";
        row "agent.delivery_events" (float_of_int t.count.(agent)) "count";
        row "agent.dispatch_ns_per_report" (mean (t.ns.(agent) - t.handler_in.(agent)) received) "ns";
        row "agent.reports" (float_of_int received) "count";
        row "agent.installs_per_report" (mean (Agent.installs_sent ag) received) "ratio";
        row "agent.handle_install_ns" (mean t.install_ns t.install_calls) "ns";
        row "algorithm.calls" (float_of_int t.handler_calls) "count";
        row "algorithm.on_report_self_ns" (mean t.on_report_self_ns t.on_report_calls) "ns";
        row "sim.events" (float_of_int events) "count";
        row "sim.events_per_s" (float_of_int events /. (float_of_int (returned - t.first_event) /. 1e9)) "1/s";
        row "sim.pending_mean" pending_mean "count";
        row "net.other_events" (float_of_int t.count.(other)) "count";
        row "net.other_event_ns" (class_ns other) "ns";
        row "bench.accounted_share"
          (float_of_int (t.first_event - called + event_ns) /. float_of_int wall)
          "ratio";
      ]
    @ replay "codec.encode_report_ns" report_msgs (fun m -> ignore (Codec.encode m : string))
    @ replay "codec.decode_report_ns" (encoded report_msgs) (fun b ->
          ignore (Codec.decode b : Message.t))
    @ replay "codec.encode_install_ns" install_msgs (fun m -> ignore (Codec.encode m : string))
    @ replay "codec.decode_install_ns" (encoded install_msgs) (fun b ->
          ignore (Codec.decode b : Message.t))
    @ replay "lang.admit_isolated_ns" programs (fun p ->
          ignore (Ccp_lang.Typecheck.check p);
          ignore (Ccp_lang.Compile.compile p))
    @ [ row "sim.step_isolated_ns" (step_isolated_ns ~depth:(int_of_float pending_mean)) "ns" ]
