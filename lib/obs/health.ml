(* SLO engine over the windowed timeline.

   Each SLO names a service-level indicator computed from one closed
   window's cumulative-counter deltas: either a bad/total event ratio
   (orphans per span started, sheds per report, decode failures per
   message) or the fraction of a histogram's per-window observations
   above a latency budget (actuation latency vs the paper's Figure-2
   budget). The burn rate is that bad fraction divided by the SLO
   objective — burn 1.0 exactly consumes the error budget.

   Alerting is the SRE multi-window shape: an alert fires when both the
   short-window burn (the window that just closed) and the long-window
   burn (aggregated deltas over the last [long_windows] closes) reach
   [burn_threshold], and clears as soon as [clear_windows] consecutive
   short windows are back under it. The long window keeps a transient
   blip from paging; the short window makes recovery visible
   immediately — which is exactly the chaos-scenario contract: the
   agent-crash window fires, the first healthy window after restart
   clears.

   State transitions are recorded in the flight recorder as [Alert]
   events, and final per-SLO verdicts (whole-run bad fraction vs
   objective) are what the scenario scorecards embed. *)

type sli =
  | Event_ratio of { bad : string list; total : string list }
  | Latency_above of { hist : string; budget : float }

type slo = { slo_name : string; sli : sli; objective : float }

type config = {
  slos : slo list;
  burn_threshold : float;
  long_windows : int;
  clear_windows : int;
}

let ratio name ~bad ~total ~objective =
  { slo_name = name; sli = Event_ratio { bad; total }; objective }

let default_config =
  {
    slos =
      [
        {
          slo_name = "actuation_latency";
          sli = Latency_above { hist = "trace.reaction_us"; budget = 100_000.0 };
          objective = 0.01;
        };
        ratio "orphan_rate" ~bad:[ "trace.spans_orphaned" ]
          ~total:[ "trace.spans_started" ] ~objective:0.05;
        ratio "shed_rate" ~bad:[ "agent.reports_shed" ]
          ~total:[ "agent.reports_shed"; "agent.reports_received" ]
          ~objective:0.9;
        ratio "decode_failure_rate" ~bad:[ "ipc.decode_failures" ]
          ~total:[ "ipc.to_agent.messages"; "ipc.to_datapath.messages" ]
          ~objective:0.01;
        ratio "staleness" ~bad:[ "trace.stale_refs"; "agent.pool.stale_derefs" ]
          ~total:[ "ipc.to_agent.messages"; "ipc.to_datapath.messages" ]
          ~objective:0.01;
        ratio "quarantine_rate" ~bad:[ "datapath.quarantines" ]
          ~total:[ "datapath.reports_sent" ] ~objective:0.01;
      ];
    burn_threshold = 10.0;
    long_windows = 8;
    clear_windows = 1;
  }

type alert_state = Ok_state | Firing

let state_to_string = function Ok_state -> "ok" | Firing -> "firing"

type transition = {
  tr_slo : string;
  tr_window : int;  (* window index of the close that transitioned *)
  tr_at : int;  (* ns *)
  tr_to : alert_state;
  tr_burn_short : float;
  tr_burn_long : float;
}

(* Per-SLO running state: a ring of the last [long_windows] per-window
   (bad, total) pairs, whole-run totals, and the alert FSM. *)
type slo_state = {
  slo : slo;
  ring_bad : float array;
  ring_total : float array;
  mutable ring_next : int;
  mutable ring_filled : int;
  mutable run_bad : float;
  mutable run_total : float;
  mutable state : alert_state;
  mutable ok_streak : int;
  mutable fired : int;  (* alert episodes *)
  mutable breaches : int;  (* windows with short burn >= threshold *)
  mutable worst_burn : float;
}

type t = {
  cfg : config;
  states : slo_state list;
  recorder : Recorder.t option;
  mutable transitions : transition list;  (* newest first *)
  mutable windows_evaluated : int;
}

let create ?(config = default_config) ?recorder () =
  if config.burn_threshold <= 0.0 then
    invalid_arg "Health.create: burn_threshold must be > 0";
  if config.long_windows <= 0 then
    invalid_arg "Health.create: long_windows must be > 0";
  if config.clear_windows <= 0 then
    invalid_arg "Health.create: clear_windows must be > 0";
  List.iter
    (fun s ->
      if s.objective <= 0.0 || s.objective > 1.0 then
        invalid_arg
          (Printf.sprintf "Health.create: SLO %s objective must be in (0, 1]"
             s.slo_name))
    config.slos;
  {
    cfg = config;
    states =
      List.map
        (fun slo ->
          {
            slo;
            ring_bad = Array.make config.long_windows 0.0;
            ring_total = Array.make config.long_windows 0.0;
            ring_next = 0;
            ring_filled = 0;
            run_bad = 0.0;
            run_total = 0.0;
            state = Ok_state;
            ok_streak = 0;
            fired = 0;
            breaches = 0;
            worst_burn = 0.0;
          })
        config.slos;
    recorder;
    transitions = [];
    windows_evaluated = 0;
  }

let config t = t.cfg

(* Extract one SLI's (bad, total) event counts from a closed window. A
   metric missing from the window contributes zero — window points are
   delta-suppressed, so absence means no activity. *)
let window_counts (w : Timeseries.window) sli =
  let counter_delta name =
    match Timeseries.point w name with
    | Some (Timeseries.Counter_point { delta; _ }) -> float_of_int delta
    | _ -> 0.0
  in
  let sum names = List.fold_left (fun acc n -> acc +. counter_delta n) 0.0 names in
  match sli with
  | Event_ratio { bad; total } -> (sum bad, sum total)
  | Latency_above { hist; budget } -> (
    match Timeseries.point w hist with
    | Some (Timeseries.Hist_point { count; p50; p90; p99; mean = _ }) ->
      let n = float_of_int count in
      (* Lower bound on the fraction over budget from the window
         quantiles (the full bucket deltas are not retained in a closed
         window): a quantile above the budget proves at least that tail
         fraction of the window's observations exceeded it. *)
      let frac =
        if p50 > budget then 0.5
        else if p90 > budget then 0.1
        else if p99 > budget then 0.01
        else 0.0
      in
      (frac *. n, n)
    | _ -> (0.0, 0.0))

let burn ~objective ~bad ~total =
  if total <= 0.0 then 0.0 else bad /. total /. objective

let transition t st ~window ~at ~to_ ~burn_short ~burn_long =
  st.state <- to_;
  if to_ = Firing then st.fired <- st.fired + 1;
  let tr =
    {
      tr_slo = st.slo.slo_name;
      tr_window = window;
      tr_at = at;
      tr_to = to_;
      tr_burn_short = burn_short;
      tr_burn_long = burn_long;
    }
  in
  t.transitions <- tr :: t.transitions;
  match t.recorder with
  | Some r ->
    Recorder.record r ~at
      (Recorder.Alert
         {
           slo = st.slo.slo_name;
           state = state_to_string to_;
           burn_short;
           burn_long;
         })
  | None -> ()

let on_window t (w : Timeseries.window) =
  t.windows_evaluated <- t.windows_evaluated + 1;
  List.iter
    (fun st ->
      let bad, total = window_counts w st.slo.sli in
      st.ring_bad.(st.ring_next) <- bad;
      st.ring_total.(st.ring_next) <- total;
      st.ring_next <- (st.ring_next + 1) mod t.cfg.long_windows;
      if st.ring_filled < t.cfg.long_windows then
        st.ring_filled <- st.ring_filled + 1;
      st.run_bad <- st.run_bad +. bad;
      st.run_total <- st.run_total +. total;
      let objective = st.slo.objective in
      let burn_short = burn ~objective ~bad ~total in
      let long_bad = Array.fold_left ( +. ) 0.0 st.ring_bad in
      let long_total = Array.fold_left ( +. ) 0.0 st.ring_total in
      let burn_long = burn ~objective ~bad:long_bad ~total:long_total in
      if burn_short > st.worst_burn then st.worst_burn <- burn_short;
      let breach = burn_short >= t.cfg.burn_threshold in
      if breach then st.breaches <- st.breaches + 1;
      match st.state with
      | Ok_state ->
        if breach && burn_long >= t.cfg.burn_threshold then begin
          st.ok_streak <- 0;
          transition t st ~window:w.Timeseries.index ~at:w.Timeseries.t_end
            ~to_:Firing ~burn_short ~burn_long
        end
      | Firing ->
        if breach then st.ok_streak <- 0
        else begin
          st.ok_streak <- st.ok_streak + 1;
          if st.ok_streak >= t.cfg.clear_windows then begin
            st.ok_streak <- 0;
            transition t st ~window:w.Timeseries.index ~at:w.Timeseries.t_end
              ~to_:Ok_state ~burn_short ~burn_long
          end
        end)
    t.states

let transitions t = List.rev t.transitions
let windows_evaluated t = t.windows_evaluated

(* ---- verdicts ----------------------------------------------------------- *)

type verdict = {
  v_slo : string;
  v_objective : float;
  v_bad : float;
  v_total : float;
  v_bad_fraction : float;
  v_breaches : int;
  v_fired : int;
  v_worst_burn : float;
  v_final_state : alert_state;
  v_pass : bool;
}

let verdicts t =
  List.map
    (fun st ->
      let frac = if st.run_total <= 0.0 then 0.0 else st.run_bad /. st.run_total in
      {
        v_slo = st.slo.slo_name;
        v_objective = st.slo.objective;
        v_bad = st.run_bad;
        v_total = st.run_total;
        v_bad_fraction = frac;
        v_breaches = st.breaches;
        v_fired = st.fired;
        v_worst_burn = st.worst_burn;
        v_final_state = st.state;
        v_pass = frac <= st.slo.objective && st.state = Ok_state;
      })
    t.states

let alert_state t ~slo =
  List.find_map
    (fun st -> if String.equal st.slo.slo_name slo then Some st.state else None)
    t.states

(* ---- export ------------------------------------------------------------- *)

let state_kind = Schema.one_of [ "firing"; "ok" ]

let verdict_spec =
  Schema.(
    doc
      [
        field "slo" string (fun v -> v.v_slo);
        field "objective" (number ~gt:0.0 ~le:1.0 ()) (fun v -> v.v_objective);
        field "bad" (number ()) (fun v -> v.v_bad);
        field "total" (number ()) (fun v -> v.v_total);
        field "bad_fraction" (number ~ge:0.0 ~le:(1.0 +. 1e-9) ()) (fun v -> v.v_bad_fraction);
        field "breaches" count (fun v -> v.v_breaches);
        field "fired" count (fun v -> v.v_fired);
        field "worst_burn" (number ()) (fun v -> v.v_worst_burn);
        field "final_state" state_kind (fun v -> state_to_string v.v_final_state);
        field "pass" bool (fun v -> v.v_pass);
      ])

let transition_spec =
  Schema.(
    doc
      [
        field "slo" string (fun tr -> tr.tr_slo);
        field "window" count (fun tr -> tr.tr_window);
        field "t_s" (number ()) (fun tr -> float_of_int tr.tr_at /. 1e9);
        field "to" state_kind (fun tr -> state_to_string tr.tr_to);
        field "burn_short" (number ()) (fun tr -> tr.tr_burn_short);
        field "burn_long" (number ()) (fun tr -> tr.tr_burn_long);
      ])

let spec =
  Schema.(
    doc
      [
        field "burn_threshold" (number ()) (fun t -> t.cfg.burn_threshold);
        field "long_windows" count (fun t -> t.cfg.long_windows);
        field "windows_evaluated" count (fun t -> t.windows_evaluated);
        field "slos" (list (obj verdict_spec)) verdicts;
        field "transitions" (list (obj transition_spec)) transitions;
      ])
