(* ccp_sim: command-line driver for the CCP reproduction.

   Subcommands:
     run     one experiment with configurable link, flows, and algorithm
     fig2..fig5, table1, batching, ablations
             regenerate the corresponding paper artifact
     csv     run an experiment and dump a trace series as CSV *)

open Cmdliner
open Ccp_util
open Ccp_core

let algorithms : (string * (unit -> Experiment.cc_spec)) list =
  [
    ("reno", fun () -> Experiment.Native_cc Ccp_algorithms.Native_reno.create);
    ("cubic", fun () -> Experiment.Native_cc Ccp_algorithms.Native_cubic.create);
    ("vegas", fun () -> Experiment.Native_cc Ccp_algorithms.Native_vegas.create);
    ("dctcp", fun () -> Experiment.Native_cc Ccp_algorithms.Native_dctcp.create);
    ("htcp", fun () -> Experiment.Native_cc Ccp_algorithms.Native_htcp.create);
    ("illinois", fun () -> Experiment.Native_cc Ccp_algorithms.Native_illinois.create);
    ("ccp-reno", fun () -> Experiment.Ccp_cc (Ccp_algorithms.Ccp_reno.create ()));
    ("ccp-cubic", fun () -> Experiment.Ccp_cc (Ccp_algorithms.Ccp_cubic.create ()));
    ("ccp-vegas", fun () -> Experiment.Ccp_cc (Ccp_algorithms.Ccp_vegas.create `Fold));
    ("ccp-vegas-vector", fun () -> Experiment.Ccp_cc (Ccp_algorithms.Ccp_vegas.create `Vector));
    ("ccp-bbr", fun () -> Experiment.Ccp_cc (Ccp_algorithms.Ccp_bbr.create ()));
    ("ccp-dctcp", fun () -> Experiment.Ccp_cc (Ccp_algorithms.Ccp_dctcp.create ()));
    ("ccp-timely", fun () -> Experiment.Ccp_cc (Ccp_algorithms.Ccp_timely.create ()));
    ("ccp-pcc", fun () -> Experiment.Ccp_cc (Ccp_algorithms.Ccp_pcc.create ()));
    ("ccp-aimd", fun () -> Experiment.Ccp_cc (Ccp_algorithms.Ccp_aimd.create ()));
  ]
  @ List.map
      (fun (name, prog) ->
        ( "hostile-" ^ name,
          fun () -> Experiment.Ccp_cc (Scenarios.Hostile.attacker name prog) ))
      Scenarios.Hostile.all

let algorithm_names = String.concat ", " (List.map fst algorithms)

(* A one-line error on stderr, then exit 1. *)
let fail fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "ccp_sim: %s\n%!" msg;
      exit 1)
    fmt

(* Malformed user input: a one-line error on stderr, then the CLI-error
   exit (124), before anything is simulated. *)
let bad_input fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "ccp_sim: %s\n%!" msg;
      exit Cmd.Exit.cli_error)
    fmt

let positive ~flag v =
  if not (Float.is_finite v && v > 0.0) then
    bad_input "%s: %g is not a positive finite number" flag v;
  v

(* The shared link options, validated where they are consumed. *)
let link ~rate_mbps ~rtt_ms ~duration_s =
  let rate_bps = positive ~flag:"--rate" rate_mbps *. 1e6 in
  let base_rtt = Time_ns.of_float_sec (positive ~flag:"--rtt" rtt_ms /. 1e3) in
  let duration = Time_ns.of_float_sec (positive ~flag:"--duration" duration_s) in
  (rate_bps, base_rtt, duration)

let split_list s =
  List.filter (fun x -> x <> "") (List.map String.trim (String.split_on_char ',' s))

let opt_list s = match split_list s with [] -> None | l -> Some l

let int_list ~flag ~default spec =
  match split_list spec with
  | [] -> default
  | items ->
    List.map
      (fun s ->
        match int_of_string_opt s with
        | Some n -> n
        | None -> bad_input "%s: %S is not an integer" flag s)
      items

(* A comma-separated subset of [known]; [None] when the list is empty. *)
let name_list ~flag ~what ~known spec =
  let names = opt_list spec in
  Option.iter
    (List.iter (fun n ->
         if not (List.mem n known) then
           bad_input "%s: unknown %s %S (try: %s)" flag what n (String.concat ", " known)))
    names;
  names

(* Write a JSON artifact, then re-read and re-check what landed on disk:
   the file is only useful to downstream tooling if it parses and
   validates. [wrote] reports the validator's count. *)
let write_artifact ~what ~path ~validate ~wrote json =
  match
    Out_channel.with_open_text path (fun oc ->
        output_string oc (Ccp_obs.Json.to_string json);
        output_char oc '\n');
    In_channel.with_open_bin path In_channel.input_all
  with
  | exception Sys_error e -> fail "cannot write %s: %s" what e
  | data -> (
    match Ccp_obs.Json.parse data with
    | Error e -> fail "%s %s does not parse: %s" what path e
    | Ok parsed -> (
      match validate parsed with
      | Error e -> fail "%s %s is malformed: %s" what path e
      | Ok n -> wrote n))

let write_scorecard ~validate json path =
  write_artifact ~what:"scorecard" ~path ~validate json
    ~wrote:(Printf.printf "scorecard: wrote %s (%d cells)\n" path)

(* The ccp-timeline/v1 document of the first cell's telemetry bundle. *)
let write_timeline telemetry path =
  match Option.map Ccp_obs.Timeline.of_obs telemetry with
  | None -> fail "--timeline: no telemetry bundle on the first cell"
  | Some (Error e) -> fail "--timeline: %s" e
  | Some (Ok doc) ->
    write_artifact ~what:"timeline" ~path ~validate:Ccp_obs.Timeline.validate doc
      ~wrote:(Printf.printf "timeline: wrote %s (%d windows)\n" path)

let merge_bench_json bench_json rows =
  Option.iter
    (fun path ->
      match Ccp_obs.Metrics.merge_rows_file ~path rows with
      | Ok n -> Printf.printf "bench-json: %s now holds %d rows\n" path n
      | Error e -> fail "--bench-json: %s" e)
    bench_json

(* BENCH rows averaged over a scorecard's cells: for each [group] key, in
   sorted order, one row per [(name, unit, get)] field named
   [prefix key ^ "." ^ name]. The mean sums the group's values in cell
   order and divides once; a field no cell of the group has gives no row. *)
let mean_rows ~group ~prefix cells fields =
  List.concat_map
    (fun key ->
      let cells = List.filter (fun c -> group c = key) cells in
      List.filter_map
        (fun (name, unit_, get) ->
          match List.filter_map get cells with
          | [] -> None
          | vs ->
            let value = List.fold_left ( +. ) 0.0 vs /. float_of_int (List.length vs) in
            Some { Ccp_obs.Metrics.name = prefix key ^ "." ^ name; value; unit_ })
        fields)
    (List.sort_uniq compare (List.map group cells))

(* --- shared options --- *)

(* The link options; each command passes its own default. *)
let rate_mbps default =
  let doc = "Bottleneck rate in Mbit/s." in
  Arg.(value & opt float default & info [ "rate" ] ~docv:"MBPS" ~doc)

let rtt_ms default =
  let doc = "Base round-trip time in milliseconds." in
  Arg.(value & opt float default & info [ "rtt" ] ~docv:"MS" ~doc)

let duration_s default =
  let doc = "Simulated duration in seconds; in a matrix command, of each cell." in
  Arg.(value & opt float default & info [ "duration" ] ~docv:"S" ~doc)

let buffer_bdp =
  let doc = "Bottleneck buffer in bandwidth-delay products." in
  Arg.(value & opt float 1.0 & info [ "buffer-bdp" ] ~docv:"BDP" ~doc)

let seed =
  let doc = "Random seed (simulations are deterministic per seed)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)

let flows_arg =
  let doc =
    Printf.sprintf
      "Flow specification: comma-separated $(i,algo[@start_s]) entries. Algorithms: %s."
      algorithm_names
  in
  Arg.(value & opt string "ccp-reno" & info [ "flows" ] ~docv:"SPEC" ~doc)

let ecn_bdp =
  let doc = "Enable ECN marking at this fraction of the buffer (e.g. 0.2); 0 disables." in
  Arg.(value & opt float 0.0 & info [ "ecn" ] ~docv:"FRAC" ~doc)

let trace_file =
  let doc =
    "Arm the flight recorder and write its event trace to $(docv) after the run. A \
     $(b,.csv) extension dumps the per-flow samples as CSV; anything else writes JSONL \
     (one event object per line). The written file is re-read and validated; a \
     malformed line makes the command exit non-zero."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let seeds_arg doc = Arg.(value & opt string "42" & info [ "seeds" ] ~docv:"LIST" ~doc)

let scorecard_file =
  let doc =
    "Write the scorecard as JSON to $(docv). The file is re-read and schema-validated; \
     a malformed scorecard makes the command exit non-zero."
  in
  Arg.(value & opt (some string) None & info [ "scorecard" ] ~docv:"FILE" ~doc)

let timeline_file doc =
  Arg.(value & opt (some string) None & info [ "timeline" ] ~docv:"FILE" ~doc)

let bench_json rows =
  let doc =
    Printf.sprintf
      "Merge %s into the BENCH.json-schema file at $(docv) (created when absent)." rows
  in
  Arg.(value & opt (some string) None & info [ "bench-json" ] ~docv:"FILE" ~doc)

(* --- IPC fault-injection options (docs/fault-injection.md) --- *)

let ipc_drop =
  let doc = "Drop each IPC message with this probability." in
  Arg.(value & opt float 0.0 & info [ "ipc-drop" ] ~docv:"PROB" ~doc)

let ipc_dup =
  let doc = "Duplicate each IPC message with this probability." in
  Arg.(value & opt float 0.0 & info [ "ipc-dup" ] ~docv:"PROB" ~doc)

let ipc_spike =
  let doc =
    "IPC latency spikes: $(i,PROB:MS) adds MS milliseconds to a message's one-way \
     latency with probability PROB."
  in
  Arg.(value & opt (some string) None & info [ "ipc-spike" ] ~docv:"PROB:MS" ~doc)

let ipc_reorder =
  let doc =
    "Bounded IPC reordering: $(i,PROB:MS) lets a message slip up to MS milliseconds \
     past its FIFO slot with probability PROB."
  in
  Arg.(value & opt (some string) None & info [ "ipc-reorder" ] ~docv:"PROB:MS" ~doc)

let agent_crash =
  let doc = "Crash the agent at $(i,T1) seconds and restart it at $(i,T2) seconds." in
  Arg.(value & opt (some string) None & info [ "agent-crash" ] ~docv:"T1:T2" ~doc)

let fallback_rtts =
  let doc =
    "Arm the datapath watchdog: after this many base RTTs of agent silence the flow \
     reverts to native NewReno until the agent returns. 0 disables."
  in
  Arg.(value & opt float 0.0 & info [ "fallback-rtts" ] ~docv:"K" ~doc)

(* --- agent resilience options (docs/safety.md) --- *)

let shed_queue =
  let doc =
    "Arm agent overload control: bound the report backlog to $(docv) messages (hard \
     cap). 0 disables, dispatching every report synchronously."
  in
  Arg.(value & opt int 0 & info [ "shed-queue" ] ~docv:"N" ~doc)

let shed_watermark =
  let doc =
    "Overload high watermark: above this depth the agent sheds the oldest report of \
     the deepest-backlog flow. Defaults to half of --shed-queue."
  in
  Arg.(value & opt int 0 & info [ "shed-watermark" ] ~docv:"N" ~doc)

let shed_budget =
  let doc = "Reports dispatched per round when overload control is armed." in
  Arg.(value & opt int 4 & info [ "shed-budget" ] ~docv:"N" ~doc)

let shed_interval_ms =
  let doc = "Dispatch round interval in milliseconds when overload control is armed." in
  Arg.(value & opt float 5.0 & info [ "shed-interval" ] ~docv:"MS" ~doc)

let checkpoint_ms =
  let doc =
    "Checkpoint the agent's per-flow state every $(docv) milliseconds and replay the \
     latest snapshot after each --agent-crash restart (warm restart). 0 disables \
     (cold restarts)."
  in
  Arg.(value & opt float 0.0 & info [ "checkpoint-interval" ] ~docv:"MS" ~doc)

let build_overload ~shed_queue ~shed_watermark ~shed_budget ~shed_interval_ms =
  if shed_queue <= 0 then None
  else
    Some
      {
        Ccp_agent.Agent.queue_capacity = shed_queue;
        high_watermark =
          (if shed_watermark > 0 then shed_watermark else max 1 (shed_queue / 2));
        dispatch_budget = shed_budget;
        dispatch_interval = Time_ns.of_float_sec (shed_interval_ms /. 1e3);
      }

(* --- guard-envelope options (docs/safety.md) --- *)

let guard_min_cwnd =
  let doc = "Guard envelope: cwnd floor in segments." in
  Arg.(value & opt int 1 & info [ "guard-min-cwnd" ] ~docv:"SEGMENTS" ~doc)

let guard_max_rate =
  let doc = "Guard envelope: pacing-rate ceiling in Mbit/s." in
  Arg.(value & opt float 1e6 & info [ "guard-max-rate" ] ~docv:"MBPS" ~doc)

let guard_report_us =
  let doc = "Guard envelope: minimum interval between reports, in microseconds." in
  Arg.(value & opt float 10.0 & info [ "guard-report-interval" ] ~docv:"US" ~doc)

let guard_quarantine =
  let doc =
    "Arm quarantine: when a flow accumulates this many guard incidents its program is \
     cancelled and the flow falls back to native NewReno until a corrected install is \
     accepted. 0 disables (incidents are still counted)."
  in
  Arg.(value & opt int 0 & info [ "guard-quarantine" ] ~docv:"N" ~doc)

let build_guard ~guard_min_cwnd ~guard_max_rate ~guard_report_us ~guard_quarantine =
  {
    Ccp_datapath.Ccp_ext.min_cwnd_segments = guard_min_cwnd;
    max_rate_bytes_per_sec = guard_max_rate *. 1e6 /. 8.0;
    min_report_interval = Time_ns.of_float_sec (guard_report_us *. 1e-6);
    quarantine_after = guard_quarantine;
    quarantine_mode =
      (if guard_quarantine > 0 then
         Some (Ccp_datapath.Ccp_ext.Native Ccp_algorithms.Native_reno.create)
       else None);
  }

let parse_pair ~what spec =
  let num s =
    match float_of_string_opt (String.trim s) with
    | Some v -> v
    | None -> failwith (Printf.sprintf "%s: %S is not a number (in %S)" what s spec)
  in
  match String.split_on_char ':' spec with
  | [ a; b ] -> (num a, num b)
  | _ -> failwith (Printf.sprintf "%s: expected A:B, got %S" what spec)

let build_faults ~ipc_drop ~ipc_dup ~ipc_spike ~ipc_reorder ~agent_crash =
  let spike =
    Option.map
      (fun spec ->
        let probability, ms = parse_pair ~what:"--ipc-spike" spec in
        { Ccp_ipc.Fault_plan.probability; extra = Time_ns.of_float_sec (ms /. 1e3) })
      ipc_spike
  in
  let reorder =
    Option.map
      (fun spec ->
        let probability, ms = parse_pair ~what:"--ipc-reorder" spec in
        { Ccp_ipc.Fault_plan.probability; window = Time_ns.of_float_sec (ms /. 1e3) })
      ipc_reorder
  in
  let plan =
    Ccp_ipc.Fault_plan.make ~drop_probability:ipc_drop ~duplicate_probability:ipc_dup
      ?spike ?reorder ()
  in
  match agent_crash with
  | None -> plan
  | Some spec ->
    let at_s, restart_s = parse_pair ~what:"--agent-crash" spec in
    Ccp_ipc.Fault_plan.crash ~at:(Time_ns.of_float_sec at_s)
      ~restart:(Time_ns.of_float_sec restart_s) plan

let parse_flows spec =
  String.split_on_char ',' spec
  |> List.map (fun entry ->
         let entry = String.trim entry in
         let name, start =
           match String.index_opt entry '@' with
           | Some i ->
             (String.sub entry 0 i, Some (String.sub entry (i + 1) (String.length entry - i - 1)))
           | None -> (entry, None)
         in
         let make =
           match List.assoc_opt name algorithms with
           | Some make -> make
           | None when name = "" -> bad_input "--flows: empty algorithm in %S" spec
           | None -> bad_input "--flows: unknown algorithm %S (try: %s)" name algorithm_names
         in
         let start_s =
           match start with
           | None -> 0.0
           | Some s -> (
             match float_of_string_opt s with
             | Some v when Float.is_finite v && v >= 0.0 -> v
             | _ -> bad_input "--flows: start %S of %S is not a finite number >= 0" s entry)
         in
         Experiment.flow ~start_at:(Time_ns.of_float_sec start_s) (make ()))

let build_config ~rate_mbps ~rtt_ms ~duration_s ~buffer_bdp ~seed ~flows ~ecn_bdp =
  let rate_bps, base_rtt, duration = link ~rate_mbps ~rtt_ms ~duration_s in
  if not (Float.is_finite buffer_bdp && buffer_bdp >= 0.0) then
    bad_input "--buffer-bdp: %g is not a finite number >= 0" buffer_bdp;
  let flows = parse_flows flows in
  let bdp = rate_bps *. Time_ns.to_float_sec base_rtt /. 8.0 in
  let buffer_bytes = max 3000 (int_of_float (buffer_bdp *. bdp)) in
  let base = Experiment.default_config ~rate_bps ~base_rtt ~duration in
  {
    base with
    Experiment.seed;
    buffer_bytes;
    warmup = Time_ns.of_float_sec (duration_s /. 10.0);
    ecn_threshold_bytes =
      (if ecn_bdp > 0.0 then Some (int_of_float (ecn_bdp *. float_of_int buffer_bytes))
       else None);
    flows;
  }

let print_result (r : Experiment.result) =
  Printf.printf "utilization        %.1f%%\n" (100.0 *. r.Experiment.utilization);
  Printf.printf "median RTT         %s\n" (Time_ns.to_string r.Experiment.median_rtt);
  Printf.printf "p95 RTT            %s\n" (Time_ns.to_string r.Experiment.p95_rtt);
  Printf.printf "drops              %d\n" r.Experiment.drops;
  Printf.printf "ECN marks          %d\n" r.Experiment.ecn_marks;
  Printf.printf "Jain fairness      %.3f\n" r.Experiment.jain_index;
  List.iter
    (fun (f : Experiment.flow_result) ->
      Printf.printf
        "flow %d (%s): goodput %.2f Mbit/s, mean RTT %s, retx %d, RTOs %d, final cwnd %d\n"
        f.flow_id f.cc_name (f.goodput_bps /. 1e6) (Time_ns.to_string f.mean_rtt) f.retransmits
        f.timeouts f.final_cwnd)
    r.Experiment.flows;
  (match r.Experiment.agent_stats with
  | Some s ->
    Printf.printf
      "CCP agent: %d reports, %d urgents, %d installs, %d handler errors; IPC bytes %d up / %d down\n"
      s.Experiment.reports s.Experiment.urgents s.Experiment.installs s.Experiment.handler_errors
      s.Experiment.ipc_bytes_to_agent s.Experiment.ipc_bytes_to_datapath;
    let f = s.Experiment.ipc_faults in
    if
      s.Experiment.fallbacks > 0
      || f.Ccp_ipc.Channel.dropped + f.Ccp_ipc.Channel.duplicated + f.Ccp_ipc.Channel.delayed
         + f.Ccp_ipc.Channel.reordered + f.Ccp_ipc.Channel.partition_dropped
         > 0
    then
      Printf.printf
        "IPC faults: %d dropped, %d duplicated, %d delayed, %d reordered, %d lost to \
         partitions; %d fallback activations, %d probes\n"
        f.Ccp_ipc.Channel.dropped f.Ccp_ipc.Channel.duplicated f.Ccp_ipc.Channel.delayed
        f.Ccp_ipc.Channel.reordered f.Ccp_ipc.Channel.partition_dropped s.Experiment.fallbacks
        s.Experiment.fallback_probes;
    if
      s.Experiment.installs_refused > 0 || s.Experiment.quarantines > 0
      || s.Experiment.guard_incidents > 0
    then
      Printf.printf
        "datapath self-protection: %d installs admitted, %d refused; %d guard incidents, \
         %d quarantines\n"
        s.Experiment.installs_admitted s.Experiment.installs_refused
        s.Experiment.guard_incidents s.Experiment.quarantines;
    if s.Experiment.decode_failures > 0 then
      Printf.printf "IPC decode failures: %d\n" s.Experiment.decode_failures;
    if s.Experiment.reports_shed > 0 || s.Experiment.degradations > 0 then
      Printf.printf
        "agent overload: %d reports shed, %d flow degradations, max report wait %s\n"
        s.Experiment.reports_shed s.Experiment.degradations
        (Time_ns.to_string s.Experiment.max_queue_wait);
    if s.Experiment.checkpoints_taken > 0 || s.Experiment.warm_restores > 0 then
      Printf.printf "warm restart: %d checkpoints taken, %d flows restored warm\n"
        s.Experiment.checkpoints_taken s.Experiment.warm_restores
  | None -> ())

(* Flight-recorder sink for [run --trace]: write, then re-read and
   validate what landed on disk — the trace is only useful to downstream
   tooling if every line parses. *)
let csv_header = "time_s,flow,cwnd_bytes,rate_bps,srtt_us,inflight_bytes,delivery_rate_bps"

let write_trace ~path (obs : Ccp_obs.Obs.t) =
  let recorder = Ccp_obs.Obs.recorder_exn obs in
  let csv = Filename.check_suffix path ".csv" in
  let data =
    if csv then Ccp_obs.Recorder.flow_samples_csv recorder
    else Ccp_obs.Recorder.to_jsonl recorder
  in
  (try Out_channel.with_open_text path (fun oc -> output_string oc data)
   with Sys_error e -> fail "cannot write trace: %s" e);
  let ic = open_in path in
  let lines = ref 0 and bad = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lines;
       let ok =
         if csv then
           if !lines = 1 then String.equal line csv_header
           else List.length (String.split_on_char ',' line) = 7
         else
           match Ccp_obs.Json.parse line with
           | Ok (Ccp_obs.Json.Obj _) -> true
           | Ok _ | Error _ -> false
       in
       if not ok then incr bad
     done
   with End_of_file -> close_in ic);
  Printf.printf "trace: wrote %s (%d lines; %d events held, %d dropped by the ring)\n" path
    !lines
    (Ccp_obs.Recorder.length recorder)
    (Ccp_obs.Recorder.dropped recorder);
  if !bad > 0 then fail "trace validation failed: %d malformed line(s) in %s" !bad path

let run_cmd =
  let action rate_mbps rtt_ms duration_s buffer_bdp seed flows ecn_bdp trace ipc_drop ipc_dup
      ipc_spike ipc_reorder agent_crash fallback_rtts guard_min_cwnd guard_max_rate
      guard_report_us guard_quarantine shed_queue shed_watermark shed_budget
      shed_interval_ms checkpoint_ms =
    let config =
      build_config ~rate_mbps ~rtt_ms ~duration_s ~buffer_bdp ~seed ~flows ~ecn_bdp
    in
    let agent_overload =
      build_overload ~shed_queue ~shed_watermark ~shed_budget ~shed_interval_ms
    in
    let checkpoint_interval =
      if checkpoint_ms > 0.0 then Some (Time_ns.of_float_sec (checkpoint_ms /. 1e3))
      else None
    in
    let faults =
      try build_faults ~ipc_drop ~ipc_dup ~ipc_spike ~ipc_reorder ~agent_crash
      with Invalid_argument msg | Failure msg -> bad_input "%s" msg
    in
    let datapath =
      {
        config.Experiment.datapath with
        Ccp_datapath.Ccp_ext.guard =
          build_guard ~guard_min_cwnd ~guard_max_rate ~guard_report_us ~guard_quarantine;
      }
    in
    let datapath =
      if fallback_rtts <= 0.0 then datapath
      else
        {
          datapath with
          Ccp_datapath.Ccp_ext.fallback =
            Some
              (Ccp_datapath.Ccp_ext.native_fallback
                 ~after:(Time_ns.scale config.Experiment.base_rtt fallback_rtts)
                 Ccp_algorithms.Native_reno.create);
        }
    in
    let obs = Option.map (fun _ -> Ccp_obs.Obs.create ()) trace in
    (try
       print_result
         (Experiment.run
            {
              config with
              Experiment.faults;
              datapath;
              obs;
              agent_overload;
              checkpoint_interval;
            })
     with Invalid_argument msg -> bad_input "%s" msg);
    (match (trace, obs) with
    | Some path, Some obs -> write_trace ~path obs
    | _ -> ())
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one dumbbell experiment.")
    Term.(
      const action $ rate_mbps 100.0 $ rtt_ms 20.0 $ duration_s 15.0 $ buffer_bdp $ seed
      $ flows_arg $ ecn_bdp $ trace_file $ ipc_drop $ ipc_dup $ ipc_spike $ ipc_reorder
      $ agent_crash $ fallback_rtts $ guard_min_cwnd $ guard_max_rate $ guard_report_us
      $ guard_quarantine $ shed_queue $ shed_watermark $ shed_budget $ shed_interval_ms
      $ checkpoint_ms)

let csv_cmd =
  let series =
    let doc = "Trace series to dump (e.g. cwnd.0, throughput_mbps.1, queue_bytes, rtt_ms.0)." in
    Arg.(value & opt string "cwnd.0" & info [ "series" ] ~docv:"NAME" ~doc)
  in
  let action rate_mbps rtt_ms duration_s buffer_bdp seed flows ecn_bdp series =
    let config =
      build_config ~rate_mbps ~rtt_ms ~duration_s ~buffer_bdp ~seed ~flows ~ecn_bdp
    in
    let r = Experiment.run config in
    print_string (Report.series_csv r ~series)
  in
  Cmd.v
    (Cmd.info "csv" ~doc:"Run an experiment and print one trace series as CSV.")
    Term.(
      const action $ rate_mbps 100.0 $ rtt_ms 20.0 $ duration_s 15.0 $ buffer_bdp $ seed
      $ flows_arg $ ecn_bdp $ series)

let simple name doc render =
  Cmd.v (Cmd.info name ~doc) Term.(const (fun () -> print_string (render ())) $ const ())

let fig2_cmd = simple "fig2" "Reproduce Figure 2 (IPC RTT CDFs)."
    (fun () -> Report.render_fig2 (Scenarios.Fig2.run ()))

let fig3_cmd = simple "fig3" "Reproduce Figure 3 (Cubic window dynamics)."
    (fun () -> Report.render_fig3 (Scenarios.Fig3.run ()))

let fig4_cmd = simple "fig4" "Reproduce Figure 4 (NewReno convergence)."
    (fun () -> Report.render_fig4 (Scenarios.Fig4.run ()))

let fig5_cmd = simple "fig5" "Reproduce Figure 5 (offload throughput)."
    (fun () -> Report.render_fig5 (Scenarios.Fig5.run ()))

let table1_cmd = simple "table1" "Render Table 1." (fun () -> Report.render_table1 ())

let batching_cmd = simple "batching" "Render the §2.3 batching-load table."
    (fun () -> Report.render_batching (Scenarios.Batching_load.table ()))

let ablations_cmd = simple "ablations" "Run the design ablations."
    (fun () ->
      Report.render_ablations
        ~interval:(Scenarios.Ablation.report_interval ())
        ~latency:(Scenarios.Ablation.ipc_latency ())
        ~urgent:(Scenarios.Ablation.urgent ())
        ~batching:(Scenarios.Ablation.batching_mode ()))

let degraded_cmd =
  let action seed =
    let c = Scenarios.Degraded.crash_restart ~seed () in
    let line label (r : Experiment.result) =
      let s = Option.get r.Experiment.agent_stats in
      Printf.printf "%-18s utilization %5.1f%%  median RTT %-10s fallbacks %d  probes %d\n"
        label
        (100.0 *. r.Experiment.utilization)
        (Time_ns.to_string r.Experiment.median_rtt)
        s.Experiment.fallbacks s.Experiment.fallback_probes
    in
    Printf.printf "Agent crash at 5 s, restart at 10 s (20 s run, CCP Reno):\n";
    line "clean" c.Scenarios.Degraded.clean;
    line "crash, no fallback" c.Scenarios.Degraded.without_fallback;
    line "crash + fallback" c.Scenarios.Degraded.with_fallback;
    Printf.printf "\nLossy IPC sweep (native-Reno fallback armed):\n";
    Printf.printf "%-8s %-12s %-12s %-10s %s\n" "drop" "utilization" "median RTT" "dropped"
      "fallbacks";
    List.iter
      (fun (p : Scenarios.Degraded.lossy_point) ->
        Printf.printf "%-8.2f %-12.3f %-12s %-10d %d\n" p.Scenarios.Degraded.drop_probability
          p.Scenarios.Degraded.utilization
          (Time_ns.to_string p.Scenarios.Degraded.median_rtt)
          p.Scenarios.Degraded.messages_dropped p.Scenarios.Degraded.fallbacks)
      (Scenarios.Degraded.lossy_ipc ~seed ())
  in
  Cmd.v
    (Cmd.info "degraded"
       ~doc:"Run the degraded-control-plane scenarios (agent crash, lossy IPC).")
    Term.(const action $ seed)

let hostile_cmd =
  let threshold =
    let doc = "Quarantine incident threshold." in
    Arg.(value & opt int 25 & info [ "threshold" ] ~docv:"N" ~doc)
  in
  let action seed threshold =
    Printf.printf
      "Hostile-program sweep (48 Mbit/s, 20 ms; quarantine to native Reno at %d incidents):\n"
      threshold;
    Printf.printf "%-16s %-8s %-9s %-9s %-11s %-11s %-10s %s\n" "program" "util" "admitted"
      "refused" "incidents" "quarantines" "recovered" "min cwnd";
    List.iter
      (fun (p : Scenarios.Hostile.point) ->
        Printf.printf "%-16s %-8.3f %-9d %-9d %-11d %-11d %-10b %d\n" p.Scenarios.Hostile.name
          p.Scenarios.Hostile.utilization p.Scenarios.Hostile.installs_admitted
          p.Scenarios.Hostile.installs_refused p.Scenarios.Hostile.guard_incidents
          p.Scenarios.Hostile.quarantines p.Scenarios.Hostile.recovered
          p.Scenarios.Hostile.min_cwnd_seen)
      (Scenarios.Hostile.sweep ~seed ~threshold ())
  in
  Cmd.v
    (Cmd.info "hostile"
       ~doc:
         "Run the adversarial-program suite against the datapath's admission control, guard \
          envelope, and quarantine.")
    Term.(const action $ seed $ threshold)

(* --- latency: Figure 2 measured end to end (docs/observability.md) --- *)

let slug label =
  let mapped =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | '0' .. '9' -> c
        | 'A' .. 'Z' -> Char.lowercase_ascii c
        | _ -> '_')
      label
  in
  String.concat "_" (List.filter (fun s -> s <> "") (String.split_on_char '_' mapped))

let write_chrome ~path (s : Scenarios.Reaction.series) =
  let obs = Option.get s.Scenarios.Reaction.result.Experiment.config.Experiment.obs in
  write_artifact ~what:"chrome trace" ~path ~validate:Ccp_obs.Tracer.validate_chrome
    (Ccp_obs.Tracer.chrome_of_recorder (Ccp_obs.Obs.recorder_exn obs))
    ~wrote:(fun n ->
      Printf.printf "trace: wrote %s (%d trace events, series %S)\n" path n
        s.Scenarios.Reaction.label)

(* Clean series sanity: the measured reaction p99 must sit inside
   [0.4, 1.1] x the calibrated model's RTT p99 — below it because a
   reaction is two independent one-way draws (whose sum concentrates
   under a single RTT draw's tail), and never meaningfully above. *)
let check_reaction_consistency series =
  let failures = ref 0 in
  List.iter
    (fun (s : Scenarios.Reaction.series) ->
      let clean =
        Ccp_ipc.Fault_plan.is_none
          s.Scenarios.Reaction.result.Experiment.config.Experiment.faults
      in
      if clean && Stats.Samples.count s.Scenarios.Reaction.reaction_us > 0 then begin
        let measured = Stats.Samples.percentile s.Scenarios.Reaction.reaction_us 99.0 in
        let model = s.Scenarios.Reaction.model_p99_us in
        let ok = measured >= 0.4 *. model && measured <= 1.1 *. model in
        Printf.printf "%-36s measured p99 %6.1f us vs model p99 %6.1f us  [%s]\n"
          s.Scenarios.Reaction.label measured model
          (if ok then "consistent" else "OUT OF BAND");
        if not ok then incr failures
      end)
    series;
  !failures

let reaction_rows series =
  List.concat_map
    (fun (s : Scenarios.Reaction.series) ->
      if Stats.Samples.count s.Scenarios.Reaction.reaction_us = 0 then []
      else begin
        let base = "reaction." ^ slug s.Scenarios.Reaction.label in
        let pct p = Stats.Samples.percentile s.Scenarios.Reaction.reaction_us p in
        let st = s.Scenarios.Reaction.spans in
        [
          { Ccp_obs.Metrics.name = base ^ ".p50_us"; value = pct 50.0; unit_ = "us" };
          { Ccp_obs.Metrics.name = base ^ ".p90_us"; value = pct 90.0; unit_ = "us" };
          { Ccp_obs.Metrics.name = base ^ ".p99_us"; value = pct 99.0; unit_ = "us" };
          {
            Ccp_obs.Metrics.name = base ^ ".actuated";
            value = float_of_int st.Ccp_obs.Tracer.actuated;
            unit_ = "spans";
          };
          {
            Ccp_obs.Metrics.name = base ^ ".orphaned";
            value = float_of_int st.Ccp_obs.Tracer.orphaned;
            unit_ = "spans";
          };
        ]
      end)
    series

let latency_cmd =
  let trace =
    let doc =
      "Write the first series' finalized spans as Chrome trace_event JSON to $(docv) \
       (load in chrome://tracing or Perfetto). The file is re-read and validated; a \
       malformed trace makes the command exit non-zero."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let bench_json = bench_json "$(b,reaction.*) percentile and span-count rows" in
  let action duration_s seed trace bench_json =
    let duration = Time_ns.of_float_sec (positive ~flag:"--duration" duration_s) in
    let series = Scenarios.Reaction.run ~duration ~seed () in
    print_string (Report.render_reaction series);
    print_newline ();
    let failures = check_reaction_consistency series in
    Option.iter (fun path -> write_chrome ~path (List.hd series)) trace;
    merge_bench_json bench_json (reaction_rows series);
    if failures > 0 then
      fail "%d series measured p99 outside [0.4, 1.1] x model p99" failures
  in
  Cmd.v
    (Cmd.info "latency"
       ~doc:
         "Figure 2 measured end to end: run the control loop with the span tracer armed \
          and report reaction-latency CDFs under clean and degraded IPC.")
    Term.(const action $ duration_s 15.0 $ seed $ trace $ bench_json)

(* --- robustness: measurement-noise matrix (docs/robustness.md) --- *)

let robustness_rows (sc : Scenarios.Robustness.scorecard) =
  let module R = Scenarios.Robustness in
  mean_rows sc.R.cells
    ~group:(fun (c : R.cell) -> (c.algo, c.perturb))
    ~prefix:(fun (algo, perturb) -> Printf.sprintf "robustness.%s.%s" (slug algo) (slug perturb))
    [
      ("utilization", "fraction", fun c -> Some c.R.utilization);
      ("jain", "index", fun c -> Some c.R.jain_index);
      ("median_rtt_inflation", "x", fun c -> Some c.R.median_rtt_inflation);
      ("retransmit_rate", "fraction", fun c -> Some c.R.retransmit_rate);
      ("cwnd_rmse", "ratio", fun c -> c.R.cwnd_rmse_vs_baseline);
    ]

let robustness_cmd =
  let algos =
    let doc =
      Printf.sprintf "Comma-separated algorithm subset (default all: %s)."
        (String.concat ", " Scenarios.Robustness.algorithm_names)
    in
    Arg.(value & opt string "" & info [ "algos" ] ~docv:"LIST" ~doc)
  in
  let perturbs =
    let doc =
      Printf.sprintf "Comma-separated perturbation subset (default all: %s)."
        (String.concat ", " Scenarios.Robustness.perturbation_names)
    in
    Arg.(value & opt string "" & info [ "perturb" ] ~docv:"LIST" ~doc)
  in
  let seeds = seeds_arg "Comma-separated seeds; each seed multiplies the matrix." in
  let bench_json =
    bench_json "$(b,robustness.*) per-(algorithm, perturbation) rows (averaged over seeds)"
  in
  let action algos perturbs seeds rate_mbps rtt_ms duration_s scorecard_file bench_json =
    let algos =
      name_list ~flag:"--algos" ~what:"algorithm" ~known:Scenarios.Robustness.algorithm_names
        algos
    in
    let perturbs =
      name_list ~flag:"--perturb" ~what:"perturbation"
        ~known:Scenarios.Robustness.perturbation_names perturbs
    in
    let seeds = int_list ~flag:"--seeds" ~default:[ 42 ] seeds in
    let rate_bps, base_rtt, duration = link ~rate_mbps ~rtt_ms ~duration_s in
    let sc =
      try Scenarios.Robustness.run ~rate_bps ~base_rtt ~duration ~seeds ?algos ?perturbs ()
      with Invalid_argument e -> fail "%s" e
    in
    print_string (Report.render_robustness sc);
    Option.iter
      (write_scorecard ~validate:Scenarios.Robustness.validate_scorecard
         (Scenarios.Robustness.to_json sc))
      scorecard_file;
    merge_bench_json bench_json (robustness_rows sc)
  in
  Cmd.v
    (Cmd.info "robustness"
       ~doc:
         "Measurement-noise robustness matrix: perturbation plans x CCP algorithms, two \
          flows per cell with the guard envelope armed, reported as a schema-validated \
          scorecard.")
    Term.(
      const action $ algos $ perturbs $ seeds $ rate_mbps 48.0 $ rtt_ms 20.0 $ duration_s 10.0
      $ scorecard_file $ bench_json)

(* --- chaos: composed resilience scenario (docs/fault-injection.md) --- *)

let chaos_rows (sc : Scenarios.Chaos.scorecard) =
  let module C = Scenarios.Chaos in
  mean_rows sc.C.cells
    ~group:(fun (c : C.cell) -> c.mode)
    ~prefix:(fun mode -> "chaos." ^ mode)
    [
      ("utilization", "fraction", fun c -> Some c.C.utilization);
      ("reports_shed", "msgs", fun c -> Some (float_of_int c.C.reports_shed));
      ("max_queue_wait", "rtts", fun c -> Some c.C.max_queue_wait_rtts);
      ("recovery", "rtts", fun c -> c.C.mean_recovery_rtts);
    ]

let chaos_cmd =
  let seeds = seeds_arg "Comma-separated seeds; each seed runs a cold and a warm cell." in
  let bench_json = bench_json "$(b,chaos.*) per-mode rows (averaged over seeds)" in
  let timeline_file =
    timeline_file
      "Arm the telemetry bundle (windowed time-series, Top-K flow sketches, SLO engine) \
       and write the first cell's $(b,ccp-timeline/v1) document to $(docv). The file is \
       re-read and schema-validated; a malformed timeline makes the command exit \
       non-zero. Also embeds a $(b,health) section per scorecard cell."
  in
  let action seeds rate_mbps rtt_ms duration_s scorecard_file bench_json timeline_file =
    let seeds = int_list ~flag:"--seeds" ~default:[ 42 ] seeds in
    let rate_bps, base_rtt, duration = link ~rate_mbps ~rtt_ms ~duration_s in
    let sc =
      Scenarios.Chaos.run ~rate_bps ~base_rtt ~duration ~seeds
        ~with_telemetry:(timeline_file <> None) ()
    in
    Printf.printf
      "Chaos: %d CCP-Reno flows, %.0f Mbit/s, IPC faults + RTT jitter + ~4x agent \
       overload; agent crash %s..%s\n"
      Scenarios.Chaos.flow_count (rate_mbps)
      (Time_ns.to_string sc.Scenarios.Chaos.crash_from)
      (Time_ns.to_string sc.Scenarios.Chaos.crash_until);
    Printf.printf "%-6s %-6s %-8s %-8s %-10s %-10s %-12s %s\n" "mode" "seed" "util" "shed"
      "max-wait" "restores" "recovery" "per-flow (RTTs)";
    List.iter
      (fun (c : Scenarios.Chaos.cell) ->
        Printf.printf "%-6s %-6d %-8.3f %-8d %-10.2f %-10d %-12s %s\n" c.Scenarios.Chaos.mode
          c.Scenarios.Chaos.seed c.Scenarios.Chaos.utilization c.Scenarios.Chaos.reports_shed
          c.Scenarios.Chaos.max_queue_wait_rtts c.Scenarios.Chaos.warm_restores
          (match c.Scenarios.Chaos.mean_recovery_rtts with
          | Some v -> Printf.sprintf "%.1f" v
          | None -> "never")
          (String.concat " "
             (List.map
                (fun (r : Scenarios.Chaos.recovery) ->
                  match r.Scenarios.Chaos.recovery_rtts with
                  | Some v -> Printf.sprintf "%.1f" v
                  | None -> "-")
                c.Scenarios.Chaos.recoveries)))
      sc.Scenarios.Chaos.cells;
    Option.iter
      (write_scorecard ~validate:Scenarios.Chaos.validate_scorecard
         (Scenarios.Chaos.to_json sc))
      scorecard_file;
    Option.iter
      (write_timeline
         (match sc.Scenarios.Chaos.cells with c :: _ -> c.telemetry | [] -> None))
      timeline_file;
    merge_bench_json bench_json (chaos_rows sc)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Composed resilience scenario: IPC faults x measurement noise x agent overload x \
          crash/restart, run cold and warm (checkpointed) per seed, reported as a \
          schema-validated scorecard.")
    Term.(
      const action $ seeds $ rate_mbps 96.0 $ rtt_ms 20.0 $ duration_s 12.0 $ scorecard_file
      $ bench_json $ timeline_file)

(* --- top: textual live view of the control-loop telemetry --- *)

let top_cmd =
  let action seed rate_mbps rtt_ms duration_s =
    let rate_bps, base_rtt, duration = link ~rate_mbps ~rtt_ms ~duration_s in
    let delta name w =
      match Ccp_obs.Timeseries.point w name with
      | Some (Ccp_obs.Timeseries.Counter_point { delta; _ }) -> delta
      | _ -> 0
    in
    let p99_us name w =
      match Ccp_obs.Timeseries.point w name with
      | Some (Ccp_obs.Timeseries.Hist_point { p99; count; _ }) when count > 0 ->
        Printf.sprintf "%.0f" p99
      | _ -> "-"
    in
    let current = ref None in
    let hook ~mode ~seed obs (w : Ccp_obs.Timeseries.window) =
      (match !current with
      | Some o when o == obs -> ()
      | _ ->
        current := Some obs;
        Printf.printf "\n== %s cell, seed %d ==\n" mode seed;
        Printf.printf "%-4s %-12s %-8s %-6s %-8s %-7s %-10s %s\n" "w" "t(s)" "reports"
          "shed" "orphans" "fallbk" "p99-us" "alerts");
      let span =
        Printf.sprintf "%.2f-%.2f"
          (float_of_int w.Ccp_obs.Timeseries.t_start /. 1e9)
          (float_of_int w.Ccp_obs.Timeseries.t_end /. 1e9)
      in
      let alerts =
        match obs.Ccp_obs.Obs.health with
        | None -> ""
        | Some h ->
          String.concat " "
            (List.filter_map
               (fun (tr : Ccp_obs.Health.transition) ->
                 if tr.Ccp_obs.Health.tr_window = w.Ccp_obs.Timeseries.index then
                   Some
                     (Printf.sprintf "%s:%s(burn %.0f/%.0f)" tr.Ccp_obs.Health.tr_slo
                        (Ccp_obs.Health.state_to_string tr.Ccp_obs.Health.tr_to)
                        tr.Ccp_obs.Health.tr_burn_short tr.Ccp_obs.Health.tr_burn_long)
                 else None)
               (Ccp_obs.Health.transitions h))
      in
      Printf.printf "%-4d %-12s %-8d %-6d %-8d %-7d %-10s %s\n"
        w.Ccp_obs.Timeseries.index span
        (delta "datapath.reports_sent" w)
        (delta "agent.reports_shed" w)
        (delta "trace.spans_orphaned" w)
        (delta "datapath.fallbacks" w)
        (p99_us "trace.reaction_us" w)
        alerts
    in
    let sc =
      Scenarios.Chaos.run ~rate_bps ~base_rtt ~duration ~seeds:[ seed ]
        ~with_telemetry:true ~window_hook:hook ()
    in
    (* End-of-run rollup per cell: heavy hitters and SLO verdicts. *)
    List.iter
      (fun (c : Scenarios.Chaos.cell) ->
        match c.Scenarios.Chaos.telemetry with
        | None -> ()
        | Some obs ->
          Printf.printf "\n== %s cell, seed %d: rollup ==\n" c.Scenarios.Chaos.mode
            c.Scenarios.Chaos.seed;
          (match obs.Ccp_obs.Obs.topk with
          | None -> ()
          | Some tk ->
            List.iter
              (fun s ->
                let entries = Ccp_obs.Topk.entries s in
                if entries <> [] then begin
                  let top5 =
                    List.filteri (fun i _ -> i < 5) entries
                    |> List.map (fun (e : Ccp_obs.Topk.entry) ->
                           Printf.sprintf "flow %d: %d (+-%d)" e.Ccp_obs.Topk.key
                             e.Ccp_obs.Topk.count e.Ccp_obs.Topk.err)
                  in
                  Printf.printf "  %-20s %s\n" (Ccp_obs.Topk.name s)
                    (String.concat ", " top5)
                end)
              (Ccp_obs.Topk.sketches tk));
          (match obs.Ccp_obs.Obs.health with
          | None -> ()
          | Some h ->
            List.iter
              (fun (v : Ccp_obs.Health.verdict) ->
                Printf.printf "  slo %-20s %-4s bad %.4f vs objective %.4f, fired %d\n"
                  v.Ccp_obs.Health.v_slo
                  (if v.Ccp_obs.Health.v_pass then "ok" else "FAIL")
                  v.Ccp_obs.Health.v_bad_fraction v.Ccp_obs.Health.v_objective
                  v.Ccp_obs.Health.v_fired)
              (Ccp_obs.Health.verdicts h)))
      sc.Scenarios.Chaos.cells
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Textual live view of the control-loop telemetry: drives the chaos composition \
          with the bundle armed and prints one row per closed window (report/shed/orphan \
          deltas, actuation p99, burn-rate alert transitions) as the simulation runs, \
          then a per-cell rollup of heavy-hitter flows and SLO verdicts.")
    Term.(const action $ seed $ rate_mbps 96.0 $ rtt_ms 20.0 $ duration_s 12.0)

(* --- incast: flow-count scale-out family (docs/scale.md) --- *)

let incast_rows (sc : Scenarios.Incast.scorecard) =
  let module I = Scenarios.Incast in
  mean_rows sc.I.cells
    ~group:(fun (c : I.cell) -> (c.algo, c.n))
    ~prefix:(fun (algo, n) -> Printf.sprintf "incast.%s.n%d" algo n)
    [
      ("utilization", "fraction", fun c -> Some c.I.utilization);
      ("p99_queue_delay", "ms", fun c -> Some c.I.p99_queue_delay_ms);
      ( "reports_per_frame",
        "msgs",
        fun c ->
          Some
            (if c.I.wire_messages = 0 then 0.0
             else float_of_int c.I.reports /. float_of_int c.I.wire_messages) );
    ]

let incast_cmd =
  let ns =
    let doc = "Comma-separated flow counts (fan-in degrees)." in
    Arg.(value & opt string "16,64,256" & info [ "n"; "flows" ] ~docv:"LIST" ~doc)
  in
  let arrivals =
    let doc = "Comma-separated arrival patterns: synchronized, staggered." in
    Arg.(value & opt string "synchronized,staggered" & info [ "arrivals" ] ~docv:"LIST" ~doc)
  in
  let algos =
    let doc =
      Printf.sprintf "Comma-separated algorithm subset (default all: %s)."
        (String.concat ", " Scenarios.Incast.algorithm_names)
    in
    Arg.(value & opt string "" & info [ "algos" ] ~docv:"LIST" ~doc)
  in
  let seeds = seeds_arg "Comma-separated seeds; each seed multiplies the matrix." in
  let no_batching =
    let doc =
      "Disable cross-flow report batching on the IPC channel (one wire frame per \
       report, the original framing)."
    in
    Arg.(value & flag & info [ "no-batching" ] ~doc)
  in
  let bench_json =
    bench_json "$(b,incast.*) per-(algorithm, N) rows (averaged over seeds and arrivals)"
  in
  let timeline_file =
    timeline_file
      "Arm the telemetry bundle (Top-K flow sketches at k=64, windowed time-series, SLO \
       engine) and write the first cell's $(b,ccp-timeline/v1) document to $(docv); \
       re-read and schema-validated before the command exits zero."
  in
  let action ns arrivals algos seeds rate_mbps rtt_ms duration_s no_batching scorecard_file
      bench_json timeline_file =
    let ns = int_list ~flag:"--n" ~default:[ 16; 64; 256 ] ns in
    List.iter (fun n -> if n <= 0 then bad_input "--n: %d is not a positive flow count" n) ns;
    let arrivals =
      List.map
        (fun s ->
          match Scenarios.Incast.arrival_of_string s with
          | a -> a
          | exception Invalid_argument e -> bad_input "--arrivals: %s" e)
        (split_list arrivals)
    in
    let algos =
      name_list ~flag:"--algos" ~what:"algorithm" ~known:Scenarios.Incast.algorithm_names algos
    in
    let seeds = int_list ~flag:"--seeds" ~default:[ 42 ] seeds in
    let rate_bps, base_rtt, duration = link ~rate_mbps ~rtt_ms ~duration_s in
    let sc =
      try
        Scenarios.Incast.run ~rate_bps ~base_rtt ~duration ~ns ~arrivals ?algos ~seeds
          ~batching:(not no_batching) ~with_telemetry:(timeline_file <> None) ()
      with Invalid_argument e -> fail "%s" e
    in
    Printf.printf
      "Incast: %.0f Mbit/s, %.1f ms base RTT, buffer BDP/4, report batching %s\n"
      rate_mbps rtt_ms
      (if no_batching then "off" else "on");
    Printf.printf "%-6s %-14s %-14s %-6s %-8s %-8s %-10s %-8s %-9s %-8s %-8s %s\n" "n"
      "arrival" "algo" "seed" "util" "jain" "p99-q(ms)" "retx" "reports" "frames" "batches"
      "pool-rej";
    List.iter
      (fun (c : Scenarios.Incast.cell) ->
        Printf.printf "%-6d %-14s %-14s %-6d %-8.3f %-8.3f %-10.2f %-8.4f %-9d %-8d %-8d %d\n"
          c.Scenarios.Incast.n
          (Scenarios.Incast.arrival_to_string c.Scenarios.Incast.arrival)
          c.Scenarios.Incast.algo c.Scenarios.Incast.seed c.Scenarios.Incast.utilization
          c.Scenarios.Incast.jain_index c.Scenarios.Incast.p99_queue_delay_ms
          c.Scenarios.Incast.retransmit_rate c.Scenarios.Incast.reports
          c.Scenarios.Incast.wire_messages c.Scenarios.Incast.batches
          c.Scenarios.Incast.pool_rejections)
      sc.Scenarios.Incast.cells;
    Option.iter
      (write_scorecard ~validate:Scenarios.Incast.validate_scorecard
         (Scenarios.Incast.to_json sc))
      scorecard_file;
    Option.iter
      (write_timeline
         (match sc.Scenarios.Incast.cells with c :: _ -> c.telemetry | [] -> None))
      timeline_file;
    merge_bench_json bench_json (incast_rows sc)
  in
  Cmd.v
    (Cmd.info "incast"
       ~doc:
         "Flow-count scale-out family: N synchronized or staggered CCP senders into one \
          shallow-buffered bottleneck, slot-pooled agent registry and batched reports \
          armed, reported as a schema-validated scorecard.")
    Term.(
      const action $ ns $ arrivals $ algos $ seeds $ rate_mbps 96.0 $ rtt_ms 10.0
      $ duration_s 1.0 $ no_batching $ scorecard_file $ bench_json $ timeline_file)

let sweep_cmd = simple "sweep" "CCP vs native Reno across a grid of operating points."
    (fun () ->
      Sweep.render
        (Sweep.run ~native:Ccp_algorithms.Native_reno.create
           ~ccp:(Ccp_algorithms.Ccp_reno.create ()) Sweep.default_grid))

let main =
  Cmd.group
    (Cmd.info "ccp_sim" ~version:"1.0.0"
       ~doc:"Congestion-control-plane reproduction (HotNets 2017).")
    [
      run_cmd; csv_cmd; fig2_cmd; fig3_cmd; fig4_cmd; fig5_cmd; table1_cmd; batching_cmd;
      ablations_cmd; sweep_cmd; degraded_cmd; hostile_cmd; latency_cmd; robustness_cmd;
      chaos_cmd; incast_cmd; top_cmd;
    ]

let () = exit (Cmd.eval main)
