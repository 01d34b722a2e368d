(* The validator verdicts of every JSON artifact, pinned as a table.

   Each row parses one byte-frozen golden (the three scenario
   scorecards and the ccp-timeline/v1 document), applies one mutation —
   a dropped field, a wrong JSON type, a value just past a bound, a
   broken cross-field invariant — and asserts the validator's verdict.
   The goldens are the validators' own output, so the unmutated rows
   say "a document validates itself" and every other row says exactly
   which single change the format rejects. *)

open Ccp_core
module Json = Ccp_obs.Json

let golden name =
  let file = Printf.sprintf "golden_%s.expected" name in
  let path = if Sys.file_exists file then file else Filename.concat "test" file in
  let ic = open_in_bin path in
  let line = input_line ic in
  close_in ic;
  Json.parse_exn line

(* [edit path f doc] rewrites the value at [path] — dotted object keys
   and list indices, e.g. "cells.0.utilization" — with [f]; [f]
   returning [None] drops an object key. *)
let rec edit path f (j : Json.t) =
  match (path, j) with
  | [], v -> f v
  | step :: rest, Json.Obj kvs ->
    Some
      (Json.Obj
         (List.filter_map
            (fun (k, v) ->
              if k = step then Option.map (fun v -> (k, v)) (edit rest f v) else Some (k, v))
            kvs))
  | step :: rest, Json.List xs ->
    let i = int_of_string step in
    Some
      (Json.List
         (List.concat
            (List.mapi (fun n v -> if n = i then Option.to_list (edit rest f v) else [ v ]) xs)))
  | _ -> Some j

let at path f doc = Option.get (edit (String.split_on_char '.' path) f doc)
let set path v doc = at path (fun _ -> Some v) doc
let drop path doc = at path (fun _ -> None) doc

let add path key v doc =
  at path (function Json.Obj kvs -> Some (Json.Obj (kvs @ [ (key, v) ])) | j -> Some j) doc

let num f = Json.Num f
let str s = Json.Str s

(* The number at [path] in [doc]. Rows whose edge is a value of the
   golden itself read it from there, so a regenerated golden leaves the
   table alone. *)
let read path doc =
  let rec go j = function
    | [] -> ( match j with Json.Num f -> f | _ -> failwith (path ^ ": not a number"))
    | step :: rest -> (
      match j with
      | Json.Obj _ -> go (Option.get (Json.member step j)) rest
      | Json.List xs -> go (List.nth xs (int_of_string step)) rest
      | _ -> failwith (path ^ ": no such path"))
  in
  go doc (String.split_on_char '.' path)

type verdict = Valid of int | Invalid | Message of string

(* One row: a label, the edits applied to the golden, the verdict. *)
type row = string * (Json.t -> Json.t) list * verdict

let run_table ~validate doc (rows : row list) =
  let failures =
    List.filter_map
      (fun (label, edits, want) ->
        let mutated = List.fold_left (fun d e -> e d) doc edits in
        if edits <> [] && mutated = doc then Some (label ^ ": mutation did not apply")
        else
          let got = validate mutated in
          let ok =
            match (want, got) with
            | Valid n, Ok m -> n = m
            | Invalid, Error _ -> true
            | Message m, Error e -> String.equal m e
            | _ -> false
          in
          if ok then None
          else
            Some
              (Printf.sprintf "%s: got %s" label
                 (match got with Ok n -> Printf.sprintf "Ok %d" n | Error e -> "Error " ^ e)))
      rows
  in
  if failures <> [] then
    Alcotest.failf "%d row(s) disagree:\n  %s" (List.length failures)
      (String.concat "\n  " failures)

let test_robustness () =
  let doc = golden "scorecard" in
  run_table ~validate:Scenarios.Robustness.validate_scorecard doc
    [
      ("golden", [], Valid 12);
      ("wrong schema tag", [ set "schema" (str "ccp-robustness-scorecard/v0") ], Invalid);
      ("dropped rate_bps", [ drop "rate_bps" ], Invalid);
      ("dropped cells", [ drop "cells" ], Invalid);
      ("cells not an array", [ set "cells" (Json.Obj []) ], Invalid);
      ("dropped jain", [ drop "cells.0.jain" ], Invalid);
      ("algo not a string", [ set "cells.0.algo" (num 1.0) ], Invalid);
      ("null utilization", [ set "cells.0.utilization" Json.Null ], Invalid);
      ("utilization at 1.5", [ set "cells.0.utilization" (num 1.5) ], Valid 12);
      ("utilization past 1.5", [ set "cells.0.utilization" (num 1.5000001) ], Invalid);
      ("negative utilization", [ set "cells.0.utilization" (num (-1e-6)) ], Invalid);
      ( "utilization message",
        [ set "cells.0.utilization" (num 1.6) ],
        Message "cells 0: utilization 1.6 out of [0, 1.5]" );
      ("jain 0", [ set "cells.0.jain" (num 0.0) ], Invalid);
      ("jain past 1", [ set "cells.0.jain" (num (1.0 +. 2e-9)) ], Invalid);
      ("median inflation 0.9", [ set "cells.0.median_rtt_inflation" (num 0.9) ], Valid 12);
      ("median inflation below 0.9", [ set "cells.0.median_rtt_inflation" (num 0.89) ], Invalid);
      ("p95 below median", [ set "cells.0.p95_rtt_inflation" (num 1.0) ], Invalid);
      ("retransmit_rate past 1", [ set "cells.0.retransmit_rate" (num 1.01) ], Invalid);
      ("negative retransmit_rate", [ set "cells.0.retransmit_rate" (num (-0.01)) ], Invalid);
      ("negative timeouts", [ set "cells.0.timeouts" (num (-1.0)) ], Invalid);
      ("fractional quarantines", [ set "cells.0.quarantines" (num 0.5) ], Invalid);
      ("rmse null", [ set "cells.1.cwnd_rmse_vs_baseline" Json.Null ], Valid 12);
      ("negative rmse", [ set "cells.1.cwnd_rmse_vs_baseline" (num (-1.0)) ], Invalid);
      ("rmse a string", [ set "cells.1.cwnd_rmse_vs_baseline" (str "x") ], Invalid);
      ("seeds a string", [ set "seeds" (str "no") ], Invalid);
      ("dropped seeds", [ drop "seeds" ], Invalid);
      ("perturb_stats a string", [ set "cells.1.perturb_stats" (str "x") ], Invalid);
      ("negative rtt_samples", [ set "cells.1.perturb_stats.rtt_samples" (num (-1.0)) ], Invalid);
    ]

let test_chaos () =
  let doc = golden "chaos" in
  let health = Option.get (Json.member "health" (golden "timeline")) in
  run_table ~validate:Scenarios.Chaos.validate_scorecard doc
    [
      ("golden", [], Valid 2);
      ("wrong schema tag", [ set "schema" (str "ccp-robustness-scorecard/v1") ], Invalid);
      ("dropped crash_from_s", [ drop "crash_from_s" ], Invalid);
      ("empty crash window", [ set "crash_until_s" (num 5.4) ], Invalid);
      ("negative crash start", [ set "crash_from_s" (num (-1.0)) ], Invalid);
      ("unknown mode", [ set "cells.0.mode" (str "hot") ], Invalid);
      ("jain 0", [ set "cells.0.jain" (num 0.0) ], Invalid);
      ("jain past 1", [ set "cells.0.jain" (num (1.0 +. 2e-9)) ], Invalid);
      ("utilization past 1.5", [ set "cells.0.utilization" (num 1.51) ], Invalid);
      ("negative queue wait", [ set "cells.0.max_queue_wait_rtts" (num (-0.1)) ], Invalid);
      ("cold checkpoints", [ set "cells.0.checkpoints_taken" (num 1.0) ], Invalid);
      ("cold warm restores", [ set "cells.0.warm_restores" (num 1.0) ], Invalid);
      ("warm cell restores", [ set "cells.1.warm_restores" (num 9.0) ], Valid 2);
      ("dropped recoveries", [ drop "cells.0.recoveries" ], Invalid);
      ("fractional flow id", [ set "cells.0.recoveries.1.flow" (num 0.5) ], Invalid);
      ( "pre_crash_cwnd message",
        [ set "cells.0.recoveries.0.pre_crash_cwnd" (num (-1.0)) ],
        Message "cells 0: recoveries 0: pre_crash_cwnd -1 out of [0, inf)" );
      ("recovery null", [ set "cells.0.recoveries.1.recovery_rtts" Json.Null ], Valid 2);
      ("negative recovery", [ set "cells.0.recoveries.1.recovery_rtts" (num (-1.0)) ], Invalid);
      ("recovery a string", [ set "cells.0.recoveries.1.recovery_rtts" (str "x") ], Invalid);
      ("mean recovery null", [ set "cells.0.mean_recovery_rtts" Json.Null ], Valid 2);
      ("negative mean recovery", [ set "cells.0.mean_recovery_rtts" (num (-1.0)) ], Invalid);
      ("health section", [ add "cells.0" "health" health ], Valid 2);
      ( "health objective 0",
        [ add "cells.0" "health" health; set "cells.0.health.slos.0.objective" (num 0.0) ],
        Invalid );
      ("seeds a string", [ set "seeds" (str "no") ], Invalid);
      ("dropped seeds", [ drop "seeds" ], Invalid);
    ]

let test_incast () =
  let doc = golden "incast" in
  let frames = read "cells.0.wire_messages" doc in
  run_table ~validate:Scenarios.Incast.validate_scorecard doc
    [
      ("golden", [], Valid 8);
      ("wrong schema tag", [ set "schema" (str "ccp-chaos-scorecard/v1") ], Invalid);
      ("batching not a bool", [ set "batching" (str "yes") ], Invalid);
      ("n 0", [ set "cells.0.n" (num 0.0) ], Invalid);
      ("unknown arrival", [ set "cells.0.arrival" (str "bursty") ], Invalid);
      ("unknown algo", [ set "cells.0.algo" (str "ccp-cubic") ], Invalid);
      ("jain 0", [ set "cells.0.jain" (num 0.0) ], Valid 8);
      ("negative jain", [ set "cells.0.jain" (num (-0.1)) ], Invalid);
      ("jain past 1", [ set "cells.0.jain" (num (1.0 +. 2e-9)) ], Invalid);
      ("utilization past 1.5", [ set "cells.0.utilization" (num 1.5000001) ], Invalid);
      ("retransmit_rate past 1", [ set "cells.0.retransmit_rate" (num 1.01) ], Invalid);
      ("negative p99 queue delay", [ set "cells.0.p99_queue_delay_ms" (num (-1.0)) ], Invalid);
      ("null retransmit_rate", [ set "cells.0.retransmit_rate" Json.Null ], Invalid);
      ("batches over frames", [ set "cells.0.batches" (num (frames +. 1.0)) ], Invalid);
      ("batches equal frames", [ set "cells.0.batches" (num frames) ], Valid 8);
      ("batches while unbatched", [ set "batching" (Json.Bool false) ], Invalid);
      ( "reports over no frames",
        [ set "cells.0.wire_messages" (num 0.0); set "cells.0.batches" (num 0.0) ],
        Invalid );
      ( "no reports, no frames",
        [
          set "cells.0.reports" (num 0.0);
          set "cells.0.wire_messages" (num 0.0);
          set "cells.0.batches" (num 0.0);
        ],
        Valid 8 );
      ("dropped pool_rejections", [ drop "cells.0.pool_rejections" ], Invalid);
      ("seeds a string", [ set "seeds" (str "no") ], Invalid);
      ("dropped seeds", [ drop "seeds" ], Invalid);
    ]

let test_timeline () =
  let doc = golden "timeline" in
  (* The path of window 0's first metric of [kind]: found by kind, so a
     regenerated golden leaves the rows alone. *)
  let first kind =
    let metrics =
      match Json.member "windows" doc with
      | Some (Json.List (w :: _)) -> (
        match Json.member "metrics" w with Some (Json.List ms) -> ms | _ -> [])
      | _ -> []
    in
    let rec go i = function
      | [] -> Alcotest.failf "no %s in the timeline's window 0" kind
      | m :: rest ->
        if Json.member "kind" m = Some (Json.Str kind) then Printf.sprintf "windows.0.metrics.%d." i
        else go (i + 1) rest
    in
    go 0 metrics
  in
  let g = first "gauge" and h = first "histogram" in
  let gauge field = read (g ^ field) doc in
  (* With k set to 4 the sketch is full, so its error bound is total / 4. *)
  let err_bound = Float.floor (read "topk.1.total" doc /. 4.0) in
  run_table ~validate:Ccp_obs.Timeline.validate doc
    [
      ("golden", [], Valid 24);
      ("without topk", [ drop "topk" ], Valid 24);
      ("without health", [ drop "health" ], Valid 24);
      ("wrong schema tag", [ set "schema" (str "ccp-timeline/v2") ], Invalid);
      ("window_s 0", [ set "window_s" (num 0.0) ], Invalid);
      ("null window_s", [ set "window_s" Json.Null ], Invalid);
      ("held + dropped over total", [ set "windows_total" (num 25.0) ], Invalid);
      ("dropped not counted", [ set "windows_dropped" (num 1.0) ], Invalid);
      ("negative window index", [ set "windows.0.index" (num (-1.0)) ], Invalid);
      ("empty window span", [ set "windows.0.t_end_s" (num 0.0) ], Invalid);
      ("negative window start", [ set "windows.0.t_start_s" (num (-0.1)) ], Invalid);
      ("dropped metric name", [ drop "windows.0.metrics.0.name" ], Invalid);
      ("unknown point kind", [ set "windows.0.metrics.0.kind" (str "summary") ], Invalid);
      ("dropped counter rate", [ drop "windows.0.metrics.0.rate" ], Invalid);
      ("fractional counter delta", [ set "windows.0.metrics.0.delta" (num 0.5) ], Invalid);
      ( "gauge last over max",
        [ set (g ^ "last") (num (gauge "max" +. 1.0)) ],
        Invalid );
      ( "gauge min over last",
        [ set (g ^ "min") (num (gauge "last" +. 0.5)) ],
        Invalid );
      ("quantiles out of order", [ set (h ^ "p50") (num 1.0) ], Invalid);
      ("p99 under p90", [ set (h ^ "p99") (num 0.8) ], Invalid);
      ("fractional histogram count", [ set (h ^ "count") (num 0.5) ], Invalid);
      ("topk not an array", [ set "topk" (Json.Obj []) ], Invalid);
      ("entry err over bound", [ set "topk.1.entries.0.err" (num 1.0) ], Invalid);
      ( "full sketch err at bound",
        [ set "topk.1.k" (num 4.0); set "topk.1.entries.0.err" (num err_bound) ],
        Valid 24 );
      ( "full sketch err over bound",
        [ set "topk.1.k" (num 4.0); set "topk.1.entries.0.err" (num (err_bound +. 1.0)) ],
        Invalid );
      ("more entries than k", [ set "topk.1.k" (num 3.0) ], Invalid);
      ("k 0", [ set "topk.0.k" (num 0.0) ], Invalid);
      ("negative long_windows", [ set "health.long_windows" (num (-1.0)) ], Invalid);
      ("objective 1", [ set "health.slos.0.objective" (num 1.0) ], Valid 24);
      ("objective 0", [ set "health.slos.0.objective" (num 0.0) ], Invalid);
      ("objective past 1", [ set "health.slos.0.objective" (num 1.01) ], Invalid);
      ("bad_fraction past 1", [ set "health.slos.0.bad_fraction" (num 1.1) ], Invalid);
      ("negative bad_fraction", [ set "health.slos.0.bad_fraction" (num (-0.1)) ], Invalid);
      ("unknown final state", [ set "health.slos.0.final_state" (str "paging") ], Invalid);
      ("pass not a bool", [ set "health.slos.0.pass" (str "yes") ], Invalid);
      ("unknown alert state", [ set "health.transitions.0.to" (str "paging") ], Invalid);
      ("fractional alert window", [ set "health.transitions.0.window" (num 1.5) ], Invalid);
    ]

let suite =
  [
    ( "schema",
      [
        Alcotest.test_case "robustness scorecard verdicts" `Quick test_robustness;
        Alcotest.test_case "chaos scorecard verdicts" `Quick test_chaos;
        Alcotest.test_case "incast scorecard verdicts" `Quick test_incast;
        Alcotest.test_case "timeline verdicts" `Quick test_timeline;
      ] );
  ]
