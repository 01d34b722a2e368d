open Ccp_util
open Ccp_eventsim
open Ccp_lang
open Ccp_ipc

type fallback_mode =
  | Clamp of { cwnd_segments : int }
  | Native of (unit -> Congestion_iface.t)

type fallback = {
  after : Time_ns.t;
  mode : fallback_mode;
}

let clamp_fallback ~after ~cwnd_segments = { after; mode = Clamp { cwnd_segments } }
let native_fallback ~after make_cc = { after; mode = Native make_cc }

type guard_envelope = {
  min_cwnd_segments : int;
  max_rate_bytes_per_sec : float;
  min_report_interval : Time_ns.t;
  quarantine_after : int;
  quarantine_mode : fallback_mode option;
}

let default_guard =
  {
    min_cwnd_segments = 1;
    max_rate_bytes_per_sec = 125e9 (* 1 Tbit/s *);
    min_report_interval = Time_ns.us 10;
    quarantine_after = 50;
    quarantine_mode = None;
  }

(* The envelope's fixed bounds. *)
let cwnd_ceiling = 1 lsl 30
let wait_floor = Time_ns.us 1
let steps_per_tick = 10_000

(* Division-by-zero scores one incident per this many occurrences:
   isolated div-by-zero is tolerated, a sustained storm scores. *)
let divs_per_incident = 50

let fold_bound = 1e18

(* A [WaitRtts] before the first RTT sample waits this long; so does the
   ECN urgent rate limit. *)
let wait_before_srtt = Time_ns.ms 10

(* Vector-mode memory bound: rows past it are dropped. *)
let vector_row_cap = 4096

type guard_incidents = {
  mutable cwnd_clamped : int;
  mutable rate_clamped : int;
  mutable wait_clamped : int;
  mutable non_finite : int;
  mutable div_storms : int;
  mutable report_throttled : int;
  mutable fold_divergence : int;
  mutable eval_budget : int;
}

let fresh_guard_incidents () =
  {
    cwnd_clamped = 0;
    rate_clamped = 0;
    wait_clamped = 0;
    non_finite = 0;
    div_storms = 0;
    report_throttled = 0;
    fold_divergence = 0;
    eval_budget = 0;
  }

let guard_total g =
  g.cwnd_clamped + g.rate_clamped + g.wait_clamped + g.non_finite + g.div_storms
  + g.report_throttled + g.fold_divergence + g.eval_budget

let dominant_incident g : Message.incident_kind =
  let counts =
    [
      (g.cwnd_clamped, Message.Cwnd_clamped);
      (g.rate_clamped, Message.Rate_clamped);
      (g.wait_clamped, Message.Wait_clamped);
      (g.non_finite, Message.Non_finite);
      (g.div_storms, Message.Div_by_zero_storm);
      (g.report_throttled, Message.Report_throttled);
      (g.fold_divergence, Message.Fold_divergence);
      (g.eval_budget, Message.Eval_budget_exhausted);
    ]
  in
  snd
    (List.fold_left
       (fun (best, kind) (n, k) -> if n > best then (n, k) else (best, kind))
       (-1, Message.Cwnd_clamped)
       counts)

type config = {
  urgent_on_loss : bool;
  urgent_on_ecn : bool;
  flow_capacity : int;
  fallback : fallback option;
  guard : guard_envelope;
}

let default_config =
  {
    urgent_on_loss = true;
    urgent_on_ecn = false;
    flow_capacity = 8;
    fallback = None;
    guard = default_guard;
  }

type measurement =
  | No_measurement
  | Fold_state of { fold : Compile.Fold.t; layout : Message.layout }
      (* [layout]: the fold's fields, then [Message.reserved_names].
         Interned once per plan; every report of the plan shares it. *)
  | Vector of {
      columns : string array;
      col_idx : int array;
      mutable rows : float array list;
      mutable count : int;
    }

(* Who drives a flow. A stand-in is [Some] live native controller, or
   [None] for a clamp that pins the window. *)
type owner =
  | Agent  (* the agent's program, or the initial window before the first install *)
  | Fallback of Congestion_iface.t option  (* the watchdog's, while the agent is silent *)
  | Quarantine of Congestion_iface.t option  (* the guard envelope's, until an accepted install *)

type flow_state = {
  ctl : Congestion_iface.ctl;
  mutable running : Codec.running option;
      (* the admitted source AST and its wire bytes: what
         [installed_program] shows, and what the channel matches an
         incoming [Install] against *)
  mutable exec : (Compile.program * Compile.machine) option;
      (* the compiled form actually run, with its preallocated machine;
         set and cleared together with [running] *)
  mutable pc : int;
  mutable wait_timer : Sim.timer;
      (* the flow's one wait timer, calling [advance]: every wait, and
         the eval-budget retry, re-arms it *)
  mutable measurement : measurement;
  mutable kept_fold : measurement;
      (* the last [Fold_state] the flow built: a restart on the same
         plan resets it instead of building another *)
  last_rtt_us : float array;
      (* 1-element cell: a [mutable float] in this mixed record would box
         on every store, and this is written on every ACK *)
  mutable last_ecn_urgent : Time_ns.t;
  mutable last_agent_contact : Time_ns.t;
  mutable owner : owner;
  incidents : Eval.incident_counter;
  mutable last_report_at : Time_ns.t option;
  mutable div_baseline : int;
      (* raw eval div-by-zero count at the last guard reset *)
  mutable nonfinite_baseline : int;
  guard : guard_incidents;
}

(* Pre-resolved metric handles: the per-ACK path must not do name lookups,
   and with [obs = None] it must not allocate at all. *)
type obs_handles = {
  obs : Ccp_obs.Obs.t;
  o_guard_incidents : Ccp_obs.Metrics.counter;
  o_acks : Ccp_obs.Metrics.counter;
  o_fold_ns : Ccp_obs.Metrics.histogram;
  (* Per-flow heavy-hitter sketches; [None] when telemetry is off. *)
  tk_reports : Ccp_obs.Topk.sketch option;
  tk_guard : Ccp_obs.Topk.sketch option;
}

let make_obs_handles obs =
  let open Ccp_obs in
  let m = obs.Obs.metrics in
  {
    obs;
    o_guard_incidents = Metrics.counter m ~unit_:"events" "datapath.guard_incidents";
    o_acks = Metrics.counter m ~unit_:"acks" "datapath.acks_processed";
    o_fold_ns = Metrics.histogram m ~unit_:"ns" "datapath.fold_step_ns";
    tk_reports = Obs.flow_sketch obs "flow.reports";
    tk_guard = Obs.flow_sketch obs "flow.guard_incidents";
  }

type t = {
  sim : Sim.t;
  channel : Channel.t;
  config : config;
  flows : (int, flow_state) Hashtbl.t;
  (* One store per counted fact: a counter in the obs bundle's registry,
     or a private one without a bundle ({!Ccp_obs.Obs.counter}). *)
  reports_sent : Ccp_obs.Metrics.counter;
  urgents_sent : Ccp_obs.Metrics.counter;
  installs_accepted : Ccp_obs.Metrics.counter;
  installs_rejected : Ccp_obs.Metrics.counter;
  fallbacks_triggered : Ccp_obs.Metrics.counter;
  quarantines : Ccp_obs.Metrics.counter;
  mutable fallback_probes_sent : int;
  retired_guard : guard_incidents;
      (* incidents from guard windows closed by an accepted re-install *)
  obs : obs_handles option;
  tracer : Ccp_obs.Tracer.t option;
  idle_timer : Sim.timer;  (* never armed: a flow's [wait_timer] until it has its own *)
}

let obs_record t event =
  match t.obs with
  | None -> ()
  | Some h -> Ccp_obs.Obs.record h.obs ~at:(Sim.now t.sim) event

let obs_guard_incident t fs =
  match t.obs with
  | None -> ()
  | Some h -> (
    Ccp_obs.Metrics.incr h.o_guard_incidents;
    match h.tk_guard with
    | Some s -> Ccp_obs.Topk.touch s fs.ctl.Congestion_iface.flow
    | None -> ())

(* --- slot tables ---

   Compiled code reads flow variables and packet fields from the
   machine's preallocated [float array]s instead of string-keyed
   environments. The slot layout is fixed by {!Compile}; we resolve it
   once at module initialisation and refresh only the slots the code
   about to run actually reads (its [flow_mask]). *)

(* [Time_ns.to_float_us] is a cross-module call; without flambda its
   float result comes back boxed, which would put an allocation on the
   per-ACK path. [Time_ns.t] is transparently [int], so convert inline. *)
let[@inline always] us_of_ns (ns : Time_ns.t) = float_of_int ns /. 1e3
let[@inline always] us_of_opt o = match o with Some d -> us_of_ns d | None -> 0.0

let fslot_cwnd = Compile.flow_index_exn "cwnd"
let fslot_rate = Compile.flow_index_exn "rate"
let fslot_mss = Compile.flow_index_exn "mss"
let fslot_srtt_us = Compile.flow_index_exn "srtt_us"
let fslot_rtt_us = Compile.flow_index_exn "rtt_us"
let fslot_minrtt_us = Compile.flow_index_exn "minrtt_us"
let fslot_inflight = Compile.flow_index_exn "inflight_bytes"
let fslot_now_us = Compile.flow_index_exn "now_us"
let pslot_rtt_us = Compile.pkt_index_exn "rtt_us"
let pslot_bytes_acked = Compile.pkt_index_exn "bytes_acked"
let pslot_bytes_lost = Compile.pkt_index_exn "bytes_lost"
let pslot_ecn = Compile.pkt_index_exn "ecn"
let pslot_send_rate = Compile.pkt_index_exn "send_rate"
let pslot_recv_rate = Compile.pkt_index_exn "recv_rate"
let pslot_inflight = Compile.pkt_index_exn "inflight_bytes"
let pslot_now_us = Compile.pkt_index_exn "now_us"

let refresh_flow fs (m : Compile.machine) mask =
  let ctl = fs.ctl in
  let f = m.Compile.flow in
  if mask land (1 lsl fslot_cwnd) <> 0 then
    f.(fslot_cwnd) <- float_of_int (ctl.Congestion_iface.get_cwnd ());
  if mask land (1 lsl fslot_rate) <> 0 then f.(fslot_rate) <- ctl.Congestion_iface.get_rate ();
  if mask land (1 lsl fslot_mss) <> 0 then
    f.(fslot_mss) <- float_of_int ctl.Congestion_iface.mss;
  if mask land (1 lsl fslot_srtt_us) <> 0 then
    f.(fslot_srtt_us) <- us_of_opt (ctl.Congestion_iface.srtt ());
  if mask land (1 lsl fslot_rtt_us) <> 0 then f.(fslot_rtt_us) <- fs.last_rtt_us.(0);
  if mask land (1 lsl fslot_minrtt_us) <> 0 then
    f.(fslot_minrtt_us) <- us_of_opt (ctl.Congestion_iface.min_rtt ());
  if mask land (1 lsl fslot_inflight) <> 0 then
    f.(fslot_inflight) <- float_of_int (ctl.Congestion_iface.inflight ());
  if mask land (1 lsl fslot_now_us) <> 0 then
    f.(fslot_now_us) <- us_of_ns (ctl.Congestion_iface.now ())

let refresh_pkt (m : Compile.machine) (ev : Congestion_iface.ack_event) ~bytes_lost =
  let p = m.Compile.pkt in
  p.(pslot_rtt_us) <- us_of_opt ev.rtt_sample;
  p.(pslot_bytes_acked) <- float_of_int ev.bytes_acked;
  p.(pslot_bytes_lost) <- float_of_int bytes_lost;
  p.(pslot_ecn) <- (if ev.ecn_echo then 1.0 else 0.0);
  p.(pslot_send_rate) <- Option.value ev.send_rate ~default:0.0;
  p.(pslot_recv_rate) <- Option.value ev.delivery_rate ~default:0.0;
  p.(pslot_inflight) <- float_of_int ev.inflight_after;
  p.(pslot_now_us) <- us_of_ns ev.now

(* --- reporting --- *)

let reserved_count = Array.length Message.reserved_names

(* The reserved block, in [Message.reserved_names] order, written into a
   report's [values] from index [k]. *)
let write_reserved fs values k ~packets =
  let ctl = fs.ctl in
  values.(k) <- float_of_int (ctl.Congestion_iface.get_cwnd ());
  values.(k + 1) <- ctl.Congestion_iface.get_rate ();
  values.(k + 2) <- float_of_int ctl.Congestion_iface.mss;
  values.(k + 3) <- us_of_opt (ctl.Congestion_iface.srtt ());
  values.(k + 4) <- fs.last_rtt_us.(0);
  values.(k + 5) <- us_of_opt (ctl.Congestion_iface.min_rtt ());
  values.(k + 6) <- float_of_int (ctl.Congestion_iface.inflight ());
  values.(k + 7) <- Option.value (ctl.Congestion_iface.send_rate_ewma ()) ~default:0.0;
  values.(k + 8) <- Option.value (ctl.Congestion_iface.delivery_rate_ewma ()) ~default:0.0;
  values.(k + 9) <- us_of_ns (ctl.Congestion_iface.now ());
  values.(k + 10) <- float_of_int packets

let send_report t fs =
  let flow = fs.ctl.Congestion_iface.flow in
  (* A span opens when the datapath decides to report; [Channel.send]
     stamps it as sent, so the start->sent gap is summarize time. *)
  let span =
    match t.tracer with
    | None -> Message.no_trace
    | Some tr ->
      Ccp_obs.Tracer.start tr ~now:(Sim.now t.sim) ~flow ~kind:Ccp_obs.Tracer.Report_span
  in
  (match fs.measurement with
  | No_measurement ->
    let values = Array.make reserved_count 0.0 in
    write_reserved fs values 0 ~packets:0;
    Channel.send t.channel ~from:Channel.Datapath_end ~span
      (Message.Report { flow; layout = Message.reserved_layout; values })
  | Fold_state { fold; layout } ->
    let state = Compile.Fold.values fold in
    let values = Array.make (Array.length layout.Message.names) 0.0 in
    Array.blit state 0 values 0 (Array.length state);
    write_reserved fs values (Array.length state) ~packets:(Compile.Fold.packet_count fold);
    Channel.send t.channel ~from:Channel.Datapath_end ~span
      (Message.Report { flow; layout; values });
    (match fs.exec with
    | Some (_, m) ->
      refresh_flow fs m (Compile.Fold.init_flow_mask (Compile.Fold.plan fold));
      Compile.Fold.reset fold ~m
    | None -> ())
  | Vector v ->
    let rows = Array.of_list (List.rev v.rows) in
    v.rows <- [];
    v.count <- 0;
    Channel.send t.channel ~from:Channel.Datapath_end ~span
      (Message.Report_vector { flow; columns = v.columns; rows }));
  Ccp_obs.Metrics.incr t.reports_sent;
  (match t.obs with
  | Some { tk_reports = Some s; _ } -> Ccp_obs.Topk.touch s flow
  | _ -> ());
  obs_record t (Ccp_obs.Recorder.Report_sent { flow; urgent = false })

let send_urgent t fs kind =
  let ctl = fs.ctl in
  Ccp_obs.Metrics.incr t.urgents_sent;
  (match t.obs with
  | Some { tk_reports = Some s; _ } -> Ccp_obs.Topk.touch s ctl.Congestion_iface.flow
  | _ -> ());
  obs_record t
    (Ccp_obs.Recorder.Report_sent { flow = ctl.Congestion_iface.flow; urgent = true });
  let span =
    match t.tracer with
    | None -> Message.no_trace
    | Some tr ->
      Ccp_obs.Tracer.start tr ~now:(Sim.now t.sim) ~flow:ctl.Congestion_iface.flow
        ~kind:Ccp_obs.Tracer.Urgent_span
  in
  Channel.send t.channel ~from:Channel.Datapath_end ~span
    (Message.Urgent
       {
         flow = ctl.Congestion_iface.flow;
         kind;
         cwnd_at_event = ctl.Congestion_iface.get_cwnd ();
         inflight_at_event = ctl.Congestion_iface.inflight ();
       })

(* --- program execution --- *)

let cancel_wait fs = Sim.cancel fs.wait_timer

(* Cancel the flow's program outright; the next install is a miss and is
   admitted afresh. *)
let stop_program fs =
  cancel_wait fs;
  fs.running <- None;
  fs.exec <- None;
  fs.measurement <- No_measurement;
  fs.kept_fold <- No_measurement

(* A stand-in takes the flow from the agent: the program stops, pacing
   stops, and a [Native] mode starts a fresh controller. *)
let take_over fs mode =
  stop_program fs;
  fs.ctl.Congestion_iface.set_rate 0.0;
  match mode with
  | Clamp _ -> None
  | Native make_cc ->
    let cc = make_cc () in
    cc.Congestion_iface.on_init fs.ctl;
    Some cc

let under_quarantine fs = match fs.owner with Quarantine _ -> true | Agent | Fallback _ -> false
let agent_owns fs = match fs.owner with Agent -> true | Fallback _ | Quarantine _ -> false

(* [Ready] registers the flow with the agent; re-sent, it probes for an
   agent that lost the flow. *)
let send_ready t ctl =
  Channel.send t.channel ~from:Channel.Datapath_end
    (Message.Ready
       {
         flow = ctl.Congestion_iface.flow;
         mss = ctl.Congestion_iface.mss;
         init_cwnd = ctl.Congestion_iface.get_cwnd ();
       })

let eval_flow fs (m : Compile.machine) (code : Compile.code) =
  refresh_flow fs m code.Compile.flow_mask;
  Compile.exec code ~m ~slots:Compile.no_slots ~incidents:fs.incidents;
  m.Compile.stack.(0)

(* --- runtime guardrails and quarantine --- *)

(* Fold the evaluator's raw incident counts (cumulative for the flow's
   lifetime) into the current guard window. *)
let absorb_eval_incidents fs =
  fs.guard.non_finite <- fs.incidents.Eval.non_finite - fs.nonfinite_baseline;
  fs.guard.div_storms <- (fs.incidents.Eval.div_by_zero - fs.div_baseline) / divs_per_incident

(* The offending program is cancelled outright; only an accepted
   re-install brings CCP control back. *)
let quarantine t fs mode =
  Ccp_obs.Metrics.incr t.quarantines;
  fs.owner <- Quarantine (take_over fs mode);
  (match mode with
  | Clamp { cwnd_segments } ->
    fs.ctl.Congestion_iface.set_cwnd (cwnd_segments * fs.ctl.Congestion_iface.mss)
  | Native _ -> ());
  obs_record t
    (Ccp_obs.Recorder.Quarantine
       {
         flow = fs.ctl.Congestion_iface.flow;
         incidents = guard_total fs.guard;
         dominant = Message.incident_kind_to_string (dominant_incident fs.guard);
       });
  Channel.send t.channel ~from:Channel.Datapath_end
    (Message.Quarantined
       {
         flow = fs.ctl.Congestion_iface.flow;
         incidents = guard_total fs.guard;
         dominant = dominant_incident fs.guard;
       })

let maybe_quarantine t fs =
  let g = t.config.guard in
  match g.quarantine_mode with
  | None -> ()
  | Some mode ->
    if
      (not (under_quarantine fs)) && g.quarantine_after > 0
      && guard_total fs.guard >= g.quarantine_after
    then quarantine t fs mode

(* Absorb eval-side incidents and re-check the threshold; call after any
   guarded evaluation or fold step. *)
let guard_note t fs =
  absorb_eval_incidents fs;
  maybe_quarantine t fs

(* The guard envelope's window and rate bounds, for a program's [Cwnd]
   and [Rate] results and the agent's [Set_cwnd] and [Set_rate] alike:
   the value is clamped into the envelope, and a clamp counts as an
   incident. A non-finite rate becomes 0. *)
let apply_cwnd t fs raw =
  let g = t.config.guard in
  let lo = float_of_int (g.min_cwnd_segments * fs.ctl.Congestion_iface.mss) in
  let hi = float_of_int cwnd_ceiling in
  let cwnd = Float.min (Float.max lo raw) hi in
  if cwnd <> raw then begin
    fs.guard.cwnd_clamped <- fs.guard.cwnd_clamped + 1;
    obs_guard_incident t fs
  end;
  fs.ctl.Congestion_iface.set_cwnd (int_of_float cwnd)

let apply_rate t fs raw =
  let rate =
    if Float.is_finite raw then
      Float.min (Float.max 0.0 raw) t.config.guard.max_rate_bytes_per_sec
    else 0.0
  in
  if rate <> raw then begin
    fs.guard.rate_clamped <- fs.guard.rate_clamped + 1;
    obs_guard_incident t fs
  end;
  fs.ctl.Congestion_iface.set_rate rate

(* A restart on the plan the flow last measured with resets that fold in
   place; only a new plan builds one, with its report layout. *)
let start_fold fs m plan =
  refresh_flow fs m (Compile.Fold.init_flow_mask plan);
  (match fs.kept_fold with
  | Fold_state { fold; _ } when Compile.Fold.plan fold == plan -> Compile.Fold.reset fold ~m
  | No_measurement | Fold_state _ | Vector _ ->
    let fold = Compile.Fold.create plan ~m in
    let layout =
      Message.layout
        (Array.append (Array.map fst (Compile.Fold.fields fold)) Message.reserved_names)
    in
    fs.kept_fold <- Fold_state { fold; layout });
  fs.measurement <- fs.kept_fold

(* Arm the flow's wait timer [duration] from now. Re-arming sorts exactly
   where a cancel and a fresh schedule would. *)
let block_for t fs duration =
  Sim.reschedule t.sim fs.wait_timer
    ~at:(Time_ns.add (Sim.now t.sim) (Time_ns.max duration Time_ns.zero))

(* A computed wait below the envelope floor would spin the simulator (or a
   real datapath's CPU) at one timestamp; floor it and count the clamp. *)
let guarded_wait t fs duration =
  if Time_ns.compare duration wait_floor < 0 then begin
    fs.guard.wait_clamped <- fs.guard.wait_clamped + 1;
    obs_guard_incident t fs;
    maybe_quarantine t fs;
    wait_floor
  end
  else duration

(* Execute primitives from [fs.pc] until the program blocks on a wait or
   finishes. The step budget is a last line of defence against a program
   that never blocks: admission rejects wait-free loops, so an admitted
   program blocks within its at most 256 primitives. Every
   [Cwnd]/[Rate]/[Wait] result passes through the guard envelope before
   it touches the flow. *)
let rec advance t fs = step t fs steps_per_tick

and step t fs budget =
  let budget = budget - 1 in
  if budget <= 0 then begin
    fs.guard.eval_budget <- fs.guard.eval_budget + 1;
    obs_guard_incident t fs;
    maybe_quarantine t fs;
    if not (under_quarantine fs) then block_for t fs (Time_ns.us 1)
  end
  else
    match fs.exec with
    | None -> ()
    | Some (cp, m) ->
      let prims = cp.Compile.prims in
      if fs.pc >= Array.length prims then begin
        if cp.Compile.repeat then begin
          fs.pc <- 0;
          step t fs budget
        end
      end
      else begin
        let prim = prims.(fs.pc) in
        fs.pc <- fs.pc + 1;
        match prim with
        | Compile.Measure_vector { columns; col_idx } ->
          fs.measurement <- Vector { columns; col_idx; rows = []; count = 0 };
          step t fs budget
        | Compile.Measure_fold plan ->
          start_fold fs m plan;
          step t fs budget
        | Compile.Rate code ->
          apply_rate t fs (eval_flow fs m code);
          guard_note t fs;
          step t fs budget
        | Compile.Cwnd code ->
          apply_cwnd t fs (eval_flow fs m code);
          guard_note t fs;
          step t fs budget
        | Compile.Wait code ->
          let us = Float.max 0.0 (eval_flow fs m code) in
          guard_note t fs;
          let duration = guarded_wait t fs (Time_ns.of_float_sec (us *. 1e-6)) in
          if not (under_quarantine fs) then block_for t fs duration
        | Compile.Wait_rtts code ->
          let rtts = Float.max 0.0 (eval_flow fs m code) in
          let base =
            match fs.ctl.Congestion_iface.srtt () with
            | Some srtt -> srtt
            | None -> wait_before_srtt
          in
          guard_note t fs;
          let duration = guarded_wait t fs (Time_ns.scale base rtts) in
          if not (under_quarantine fs) then block_for t fs duration
        | Compile.Report ->
          let now = Sim.now t.sim in
          let throttled =
            match fs.last_report_at with
            | Some last ->
              Time_ns.compare (Time_ns.sub now last) t.config.guard.min_report_interval < 0
            | None -> false
          in
          if throttled then begin
            (* Skip the send but keep aggregating: the pending state goes
               out with the next unthrottled report. *)
            fs.guard.report_throttled <- fs.guard.report_throttled + 1;
            obs_guard_incident t fs;
            maybe_quarantine t fs
          end
          else begin
            fs.last_report_at <- Some now;
            send_report t fs
          end;
          if not (under_quarantine fs) then step t fs budget
      end

(* Close the current guard window: bank its incidents in the datapath-wide
   accumulator and start the new program with a clean slate (otherwise a
   corrected re-install would be re-quarantined on inherited incidents). *)
let reset_guard_window t fs =
  let g = fs.guard and r = t.retired_guard in
  r.cwnd_clamped <- r.cwnd_clamped + g.cwnd_clamped;
  r.rate_clamped <- r.rate_clamped + g.rate_clamped;
  r.wait_clamped <- r.wait_clamped + g.wait_clamped;
  r.non_finite <- r.non_finite + g.non_finite;
  r.div_storms <- r.div_storms + g.div_storms;
  r.report_throttled <- r.report_throttled + g.report_throttled;
  r.fold_divergence <- r.fold_divergence + g.fold_divergence;
  r.eval_budget <- r.eval_budget + g.eval_budget;
  g.cwnd_clamped <- 0;
  g.rate_clamped <- 0;
  g.wait_clamped <- 0;
  g.non_finite <- 0;
  g.div_storms <- 0;
  g.report_throttled <- 0;
  g.fold_divergence <- 0;
  g.eval_budget <- 0;
  fs.div_baseline <- fs.incidents.Eval.div_by_zero;
  fs.nonfinite_baseline <- fs.incidents.Eval.non_finite

let send_install_result t fs verdict =
  Channel.send t.channel ~from:Channel.Datapath_end
    (Message.Install_result { flow = fs.ctl.Congestion_iface.flow; verdict })

(* Admission control (§2.4): the datapath trusts neither the agent nor the
   channel, so an [Install] runs the static checks and the resource limits.
   Compilation is part of admission. Every program [Limits.admit] accepts
   compiles, so a compile error here means typecheck and compiler
   disagree; the flow then keeps what it runs instead of faulting per
   packet. *)
let admit program =
  match Limits.admit program with
  | Error _ as rejected -> rejected
  | Ok () -> (
    match Compile.compile program with
    | Ok cp -> Ok cp
    | Error detail -> Error (Limits.Invalid_program, detail))

(* Every [Install] is answered with an [Install_result] either way, and an
   accepted one is the only message that wins the flow back from a
   stand-in, fallback or quarantine, atomically.

   Cubic, AIMD, DCTCP, Vegas and Timely re-install on nearly every
   report, and almost always the program the flow already runs (Reno and
   the aggregate install once and steer with [Set_cwnd]). The channel
   matches each [Install]'s program bytes against the flow's running
   bytes ([Channel.match_installs]) and, on a match, delivers the
   running AST itself, so a re-install is a hit exactly when [program]
   is physically the running one. Encoding is canonical, so equal bytes
   mean a bit-identical program
   ({!Ast.identical_program}: [0.0] and [-0.0] differ), which cannot
   change the verdict or the compiled code since [t.config] is fixed: a
   hit keeps the flow's admitted AST, compiled program and machine. An
   identical program that arrives in other bytes is admitted as a miss,
   which is observably the same. Everything else an accepted install does
   happens as on a miss. Reusing the machine is safe because nothing reads
   a stale slot: [refresh_flow] fills the flow slots in a code's
   [flow_mask] before it runs, [refresh_pkt] writes every packet slot
   before a fold step or vector row, and [Compile.exec] writes every stack
   slot before reading it. A quarantine or fallback clears [fs.running],
   so the next install is a miss and is admitted afresh. *)
let install_program t fs program =
  let admitted =
    match (fs.running, fs.exec) with
    | Some running, Some _ when running.Codec.program == program -> Ok None
    | _ -> Result.map (fun cp -> Some (cp, Compile.machine_for cp)) (admit program)
  in
  match admitted with
  | Ok fresh ->
    (match fs.owner with
    | Fallback _ ->
      obs_record t
        (Ccp_obs.Recorder.Fallback { flow = fs.ctl.Congestion_iface.flow; entered = false })
    | Agent | Quarantine _ -> ());
    Ccp_obs.Metrics.incr t.installs_accepted;
    obs_record t
      (Ccp_obs.Recorder.Install
         { flow = fs.ctl.Congestion_iface.flow; accepted = true; detail = "" });
    fs.owner <- Agent;
    reset_guard_window t fs;
    cancel_wait fs;
    (match fresh with
    | Some exec ->
      fs.running <- Some { Codec.bytes = Codec.encode_program program; program };
      fs.exec <- Some exec
    | None -> ());
    fs.pc <- 0;
    fs.measurement <- No_measurement;
    send_install_result t fs Message.Accepted;
    advance t fs;
    true
  | Error (reason, detail) ->
    Ccp_obs.Metrics.incr t.installs_rejected;
    obs_record t
      (Ccp_obs.Recorder.Install
         { flow = fs.ctl.Congestion_iface.flow; accepted = false; detail });
    send_install_result t fs (Message.Rejected { reason; detail });
    false

(* --- agent -> datapath messages --- *)

(* Any agent message is contact and holds off the watchdog, but only an
   accepted [Install] takes the flow back from a stand-in: a stand-in
   stopped the flow's program, so an agent that only steers the window
   would never hear from the flow again. *)
let note_agent_contact t fs = fs.last_agent_contact <- Sim.now t.sim

(* Spans close where control is applied. [rx_finish] finalizes the span
   carried by the message currently being delivered (if any); [rx_actuate]
   additionally times the actuation itself with the tracer's wall clock. *)
let rx_finish t ~disposition =
  match t.tracer with
  | None -> ()
  | Some tr ->
    let span = Channel.rx_span t.channel in
    if span >= 0 then
      Ccp_obs.Tracer.finish tr span ~now:(Sim.now t.sim) ~disposition ~apply_ns:0.0

let rx_actuate t apply =
  match t.tracer with
  | None -> apply ()
  | Some tr ->
    let span = Channel.rx_span t.channel in
    if span < 0 then apply ()
    else begin
      let clock = Ccp_obs.Tracer.wall_clock tr in
      let t0 = clock () in
      apply ();
      Ccp_obs.Tracer.finish tr span ~now:(Sim.now t.sim)
        ~disposition:Ccp_obs.Tracer.Actuated
        ~apply_ns:(Float.max 0.0 (clock () -. t0))
    end

let on_message t (msg : Message.t) =
  match msg with
  | Message.Install { flow; program } -> (
    match Hashtbl.find_opt t.flows flow with
    | Some fs -> (
      note_agent_contact t fs;
      match t.tracer with
      | None -> ignore (install_program t fs program : bool)
      | Some tr ->
        let span = Channel.rx_span t.channel in
        if span < 0 then ignore (install_program t fs program : bool)
        else begin
          let clock = Ccp_obs.Tracer.wall_clock tr in
          let t0 = clock () in
          let accepted = install_program t fs program in
          Ccp_obs.Tracer.finish tr span ~now:(Sim.now t.sim)
            ~disposition:
              (if accepted then Ccp_obs.Tracer.Actuated else Ccp_obs.Tracer.Rejected)
            ~apply_ns:(Float.max 0.0 (clock () -. t0))
        end)
    | None -> rx_finish t ~disposition:Ccp_obs.Tracer.No_action)
  | Message.Set_cwnd { flow; bytes } -> (
    match Hashtbl.find_opt t.flows flow with
    | Some fs ->
      note_agent_contact t fs;
      (* Direct knob commands steer only a flow the agent owns; they pass
         the guard envelope as a program's results do. *)
      if agent_owns fs then
        rx_actuate t (fun () ->
            apply_cwnd t fs (float_of_int bytes);
            maybe_quarantine t fs)
      else rx_finish t ~disposition:Ccp_obs.Tracer.No_action
    | None -> rx_finish t ~disposition:Ccp_obs.Tracer.No_action)
  | Message.Set_rate { flow; bytes_per_sec } -> (
    match Hashtbl.find_opt t.flows flow with
    | Some fs ->
      note_agent_contact t fs;
      if agent_owns fs then
        rx_actuate t (fun () ->
            apply_rate t fs bytes_per_sec;
            maybe_quarantine t fs)
      else rx_finish t ~disposition:Ccp_obs.Tracer.No_action
    | None -> rx_finish t ~disposition:Ccp_obs.Tracer.No_action)
  | Message.Ready _ | Message.Report _ | Message.Report_vector _ | Message.Urgent _
  | Message.Closed _ | Message.Install_result _ | Message.Quarantined _ ->
    (* Agent-bound traffic is never delivered to the datapath end. *)
    ()

let create ~sim ~channel ?(config = default_config) ?obs () =
  let counter unit_ name = Ccp_obs.Obs.counter obs ~unit_ name in
  let t =
    {
      sim;
      channel;
      config;
      flows = Hashtbl.create (max 8 config.flow_capacity);
      reports_sent = counter "msgs" "datapath.reports_sent";
      urgents_sent = counter "msgs" "datapath.urgents_sent";
      installs_accepted = counter "msgs" "datapath.installs_accepted";
      installs_rejected = counter "msgs" "datapath.installs_rejected";
      fallbacks_triggered = counter "events" "datapath.fallbacks";
      quarantines = counter "events" "datapath.quarantines";
      fallback_probes_sent = 0;
      retired_guard = fresh_guard_incidents ();
      obs = Option.map make_obs_handles obs;
      tracer = (match obs with Some o -> o.Ccp_obs.Obs.tracer | None -> None);
      idle_timer = Sim.timer sim ignore;
    }
  in
  Channel.on_receive channel Channel.Datapath_end (on_message t);
  Channel.match_installs channel (fun flow ->
      match Hashtbl.find t.flows flow with
      | fs -> fs.running
      | exception Not_found -> None);
  t

(* --- the Congestion_iface implementation --- *)

(* The watchdog checks agent liveness once per [after] period. A silent
   agent loses the flow to the fallback mode ([take_over]). [Clamp]
   re-pins its window on every tick while the silence lasts (an RTO
   collapses it between ticks). [Native] runs an in-datapath controller
   that takes over ACK and loss handling until the agent returns. Every
   tick of silence, and every tick while a fallback holds the flow,
   re-sends [Ready], a cheap re-handshake probe so a restarted agent
   re-learns the flow and can reclaim it with an install. A fallback
   flow is probed even when the agent is heard from: an agent that only
   answers the flow's urgents with [Set_cwnd] is contact, but never
   sends the [Install] that takes the flow back. Quarantine supersedes
   the watchdog: the guard envelope keeps the flow, and a silent agent
   still gets the probe so it can send the corrected install. *)
let rec watchdog_tick t fs (fb : fallback) =
  let silence = Time_ns.sub (Sim.now t.sim) fs.last_agent_contact in
  let silent = Time_ns.compare silence fb.after >= 0 in
  if silent then begin
    (match fs.owner with
    | Agent ->
      Ccp_obs.Metrics.incr t.fallbacks_triggered;
      obs_record t
        (Ccp_obs.Recorder.Fallback { flow = fs.ctl.Congestion_iface.flow; entered = true });
      fs.owner <- Fallback (take_over fs fb.mode)
    | Fallback _ | Quarantine _ -> ());
    (match (fs.owner, fb.mode) with
    | Fallback _, Clamp { cwnd_segments } ->
      fs.ctl.Congestion_iface.set_cwnd (cwnd_segments * fs.ctl.Congestion_iface.mss);
      fs.ctl.Congestion_iface.set_rate 0.0
    | Fallback _, Native _ | (Agent | Quarantine _), _ -> ())
  end;
  if silent || match fs.owner with Fallback _ -> true | Agent | Quarantine _ -> false then begin
    t.fallback_probes_sent <- t.fallback_probes_sent + 1;
    send_ready t fs.ctl
  end;
  ignore (Sim.schedule_after t.sim ~delay:fb.after (fun () -> watchdog_tick t fs fb))

let on_init t ctl =
  let fs =
    {
      ctl;
      running = None;
      exec = None;
      pc = 0;
      wait_timer = t.idle_timer;
      measurement = No_measurement;
      kept_fold = No_measurement;
      last_rtt_us = [| 0.0 |];
      last_ecn_urgent = Time_ns.zero;
      last_agent_contact = Sim.now t.sim;
      owner = Agent;
      incidents = Eval.fresh_counter ();
      last_report_at = None;
      div_baseline = 0;
      nonfinite_baseline = 0;
      guard = fresh_guard_incidents ();
    }
  in
  fs.wait_timer <- Sim.timer t.sim (fun () -> advance t fs);
  Hashtbl.replace t.flows ctl.Congestion_iface.flow fs;
  (match t.config.fallback with
  | Some fb -> ignore (Sim.schedule_after t.sim ~delay:fb.after (fun () -> watchdog_tick t fs fb))
  | None -> ());
  send_ready t ctl

(* The per-ACK fast path: refresh only the flow slots the update code
   reads, copy the packet into the slot table, and run the compiled
   fold — no strings, no closures, no allocation. *)
let record_measurement t fs (ev : Congestion_iface.ack_event) ~bytes_lost =
  match (fs.measurement, fs.exec) with
  | No_measurement, _ | _, None -> ()
  | Fold_state { fold; _ }, Some (_, m) ->
    let plan = Compile.Fold.plan fold in
    refresh_flow fs m (Compile.Fold.step_flow_mask plan);
    refresh_pkt m ev ~bytes_lost;
    Compile.Fold.step fold ~m ~incidents:fs.incidents;
    if Compile.Fold.diverged fold ~limit:fold_bound then begin
      fs.guard.fold_divergence <- fs.guard.fold_divergence + 1;
      obs_guard_incident t fs
    end;
    guard_note t fs
  | Vector v, Some (_, m) ->
    if v.count < vector_row_cap then begin
      refresh_pkt m ev ~bytes_lost;
      let row = Array.map (fun i -> m.Compile.pkt.(i)) v.col_idx in
      v.rows <- row :: v.rows;
      v.count <- v.count + 1
    end

(* The CCP half of the per-ACK fast path, after control-ownership
   dispatch. Kept allocation-free when [t.obs = None]; with observability
   on, the fold step is timed into the [datapath.fold_step_ns]
   histogram. *)
let on_ack_ccp t fs ctl (ev : Congestion_iface.ack_event) =
  (match ev.rtt_sample with
  | Some r -> fs.last_rtt_us.(0) <- us_of_ns r
  | None -> ());
  (match t.obs with
  | None -> record_measurement t fs ev ~bytes_lost:0
  | Some h ->
    Ccp_obs.Metrics.incr h.o_acks;
    let t0 = h.obs.Ccp_obs.Obs.clock () in
    record_measurement t fs ev ~bytes_lost:0;
    Ccp_obs.Metrics.observe h.o_fold_ns (h.obs.Ccp_obs.Obs.clock () -. t0));
  if ev.ecn_echo && t.config.urgent_on_ecn then begin
    (* Rate-limit ECN urgents to one per smoothed RTT. *)
    let interval =
      match ctl.Congestion_iface.srtt () with
      | Some srtt -> srtt
      | None -> wait_before_srtt
    in
    if Time_ns.compare (Time_ns.sub ev.now fs.last_ecn_urgent) interval >= 0 then begin
      fs.last_ecn_urgent <- ev.now;
      send_urgent t fs Message.Ecn
    end
  end

let on_ack t ctl (ev : Congestion_iface.ack_event) =
  (* [Hashtbl.find] + exception instead of [find_opt]: the option would be
     a fresh allocation on every ACK. *)
  match Hashtbl.find t.flows ctl.Congestion_iface.flow with
  | exception Not_found -> ()
  | fs -> (
    match fs.owner with
    | Agent | Fallback None -> on_ack_ccp t fs ctl ev
    | Fallback (Some cc) | Quarantine (Some cc) ->
      (* A native stand-in owns the flow; no measurement aggregation and
         no urgents. *)
      cc.Congestion_iface.on_ack ctl ev
    | Quarantine None ->
      (* A clamp quarantine pins the window and rides out the episode
         until an accepted re-install. *)
      ())

let on_loss t ctl (loss : Congestion_iface.loss_event) =
  match Hashtbl.find_opt t.flows ctl.Congestion_iface.flow with
  | None -> ()
  | Some { owner = Fallback (Some cc) | Quarantine (Some cc); _ } ->
    cc.Congestion_iface.on_loss ctl loss
  | Some { owner = Quarantine None; _ } -> (
    (* A clamp quarantine keeps the kernel-style RTO collapse but sends no
       urgent: the agent lost the flow until it re-installs. *)
    match loss.kind with
    | Congestion_iface.Rto -> ctl.Congestion_iface.set_cwnd ctl.Congestion_iface.mss
    | Congestion_iface.Dup_acks -> ())
  | Some ({ owner = Agent | Fallback None; _ } as fs) -> (
    match loss.kind with
    | Congestion_iface.Rto ->
      (* Kernel-style safety: a timeout collapses the window in the
         datapath itself; the agent will reprogram when it reacts. *)
      ctl.Congestion_iface.set_cwnd ctl.Congestion_iface.mss;
      if t.config.urgent_on_loss then send_urgent t fs Message.Timeout
    | Congestion_iface.Dup_acks ->
      if t.config.urgent_on_loss then send_urgent t fs Message.Dup_ack_loss)

let on_exit_recovery t ctl =
  match Hashtbl.find_opt t.flows ctl.Congestion_iface.flow with
  | Some { owner = Fallback (Some cc) | Quarantine (Some cc); _ } ->
    cc.Congestion_iface.on_exit_recovery ctl
  | Some { owner = Agent | Fallback None | Quarantine None; _ } | None -> ()

let congestion_control t : Congestion_iface.t =
  {
    name = "ccp";
    on_init = on_init t;
    on_ack = on_ack t;
    on_loss = on_loss t;
    on_exit_recovery = on_exit_recovery t;
  }

let installed_program t ~flow =
  match Hashtbl.find_opt t.flows flow with
  | Some { running = Some running; _ } -> Some running.Codec.program
  | Some { running = None; _ } | None -> None

let reports_sent t = Ccp_obs.Metrics.counter_value t.reports_sent
let urgents_sent t = Ccp_obs.Metrics.counter_value t.urgents_sent
let installs_accepted t = Ccp_obs.Metrics.counter_value t.installs_accepted
let installs_rejected t = Ccp_obs.Metrics.counter_value t.installs_rejected

let fallbacks_triggered t = Ccp_obs.Metrics.counter_value t.fallbacks_triggered
let fallback_probes_sent t = t.fallback_probes_sent

let in_fallback t ~flow =
  match Hashtbl.find_opt t.flows flow with
  | Some { owner = Fallback _; _ } -> true
  | Some { owner = Agent | Quarantine _; _ } | None -> false

let quarantines_triggered t = Ccp_obs.Metrics.counter_value t.quarantines

let has_compiled_program t ~flow =
  match Hashtbl.find_opt t.flows flow with
  | Some fs -> fs.exec <> None
  | None -> false

let in_quarantine t ~flow =
  match Hashtbl.find_opt t.flows flow with
  | Some fs -> under_quarantine fs
  | None -> false

let guard_incidents t ~flow = Option.map (fun fs -> fs.guard) (Hashtbl.find_opt t.flows flow)

let guard_incident_total t =
  Hashtbl.fold (fun _ fs acc -> acc + guard_total fs.guard) t.flows (guard_total t.retired_guard)

type controller = Agent_program | Native_fallback | Quarantined | Awaiting_agent

let controller t ~flow =
  Option.map
    (fun fs ->
      match fs.owner with
      | Quarantine _ -> Quarantined
      | Fallback _ -> Native_fallback
      | Agent -> if Option.is_some fs.running then Agent_program else Awaiting_agent)
    (Hashtbl.find_opt t.flows flow)
