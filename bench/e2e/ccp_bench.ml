(* ccp_bench: the end-to-end simulator benchmark.

   Both commands read BENCHMARK.json from the current directory, the
   repository root.

   ccp_bench run [--workload W]... [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]
     Runs each workload (default: all four), one single-threaded child
     process per repetition and one child at a time, starting
     repetitions until S seconds (default: run_seconds in
     BENCHMARK.json) have passed. Every repetition simulates seed N
     (default 42), except that fig3-ccp and incast-aggregate-256 always
     simulate 42 (see [Workload.pinned_seed]). With --trace every
     repetition is paired with a traced one, and the per-layer metrics
     are reported instead of the end-to-end ones. Prints a
     "metric workload value unit" row for each declared metric the
     workload measured, then the whole run as one JSON line; --out also
     writes the result document, per-repetition samples included. Exits
     1 if any repetition failed.

   ccp_bench compare OLD.json NEW.json
     Per workload and end-to-end metric: median, quartiles and a verdict
     against the bound in BENCHMARK.json. Exits 1 if any is worse. *)

open Ccp_e2e
module Json = Ccp_obs.Json
module Metrics = Ccp_obs.Metrics

let usage () =
  prerr_endline
    "usage: ccp_bench run [--workload W]... [--seed N] [--seconds S] [--trace [0|1]] [--out FILE]\n\
    \       ccp_bench compare OLD.json NEW.json";
  exit 2

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let load path = Json.parse_exn (read_file path)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* --- child processes --- *)

(* The running child, stopped if this process is told to stop. *)
let child = ref None

let kill_child () =
  Option.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      child := None)
    !child

let () =
  let stop = Sys.Signal_handle (fun _ -> kill_child (); exit 130) in
  Sys.set_signal Sys.sigterm stop;
  Sys.set_signal Sys.sigint stop

(* One repetition in a fresh process, so each has its own heap. [Error]
   carries a one-line reason: an exception, a crash, or running past
   [limit_s]. *)
let spawn (w : Workload.t) ~seed ~traced =
  let limit_s = 3.0 *. w.Workload.expected_wall_s *. if traced then 1.5 else 1.0 in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let argv =
    [| Sys.executable_name; "child"; w.Workload.name; string_of_int seed; string_of_bool traced |]
  in
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin wr Unix.stderr in
  child := Some pid;
  Unix.close wr;
  let deadline = Unix.gettimeofday () +. limit_s in
  let out = Buffer.create 4096 and chunk = Bytes.create 4096 in
  let rec drain () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0.0 then false
    else
      match Unix.select [ rd ] [] [] left with
      | [], _, _ -> drain ()
      | _ ->
        let n = Unix.read rd chunk 0 (Bytes.length chunk) in
        if n = 0 then true
        else begin
          Buffer.add_subbytes out chunk 0 n;
          drain ()
        end
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
  in
  let finished = drain () in
  Unix.close rd;
  if not finished then begin
    kill_child ();
    Error (Printf.sprintf "no result within %.0f s" limit_s)
  end
  else begin
    let _, status = Unix.waitpid [] pid in
    child := None;
    match (status, Json.parse (String.trim (Buffer.contents out))) with
    | Unix.WEXITED 0, Ok json -> Ok (Rep.of_json json)
    | _ -> Error "the repetition crashed"
  end

let run_workload (w : Workload.t) ~seed ~seconds ~trace =
  let until = Unix.gettimeofday () +. float_of_int seconds in
  let attempted = ref 0 and failures = ref [] in
  let untraced = ref [] and traced = ref [] and overheads = ref [] in
  (* The calibration is timed in this process between repetitions, and a
     repetition is scaled by the mean of the timings on either side of
     it: that halves the loop's own noise and follows drift during the
     repetition. A fresh child would also time the first touch of its
     heap pages. *)
  let calib = ref (Machine.ns_per_op ()) in
  let attempt ~traced =
    incr attempted;
    let before = !calib in
    let result = spawn w ~seed ~traced in
    calib := Machine.ns_per_op ();
    match result with
    | Ok (rep : Rep.t) when rep.Rep.failures = [] ->
      Some { rep with Rep.calib_ns = (before +. !calib) /. 2.0 }
    | Ok rep ->
      failures := !failures @ [ String.concat "; " rep.Rep.failures ];
      None
    | Error e ->
      failures := !failures @ [ e ];
      None
  in
  let rec repeat () =
    (match attempt ~traced:false with
    | None -> ()
    | Some plain -> (
      untraced := !untraced @ [ plain ];
      if trace then
        match attempt ~traced:true with
        | None -> ()
        | Some t when t.Rep.digest <> plain.Rep.digest ->
          failures := !failures @ [ "traced digest differs from untraced" ]
        | Some t ->
          traced := !traced @ [ t ];
          overheads := !overheads @ [ t.Rep.wall_s /. plain.Rep.wall_s ]));
    if Unix.gettimeofday () < until then repeat ()
  in
  repeat ();
  {
    Summary.workload = w.Workload.name;
    attempted = !attempted;
    failures = !failures;
    untraced = (if trace then [] else !untraced);
    traced = !traced;
    overheads = !overheads;
  }

(* --- commands --- *)

let run args =
  let benchmark = load "BENCHMARK.json" in
  let workloads = ref [] and seed = ref 42 in
  let seconds =
    ref (int_of_float (Option.get (Option.bind (Json.member "run_seconds" benchmark) Json.to_float)))
  in
  let trace = ref false and out = ref None in
  let int_arg s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
      (match Workload.find w with
      | Some w -> workloads := !workloads @ [ w ]
      | None ->
        Printf.eprintf "unknown workload %s (have: %s)\n" w (String.concat ", " Workload.names);
        exit 2);
      parse rest
    | "--seed" :: n :: rest ->
      seed := int_arg n;
      parse rest
    | "--seconds" :: n :: rest ->
      seconds := int_arg n;
      parse rest
    | "--trace" :: "0" :: rest ->
      trace := false;
      parse rest
    | "--trace" :: "1" :: rest | "--trace" :: rest ->
      trace := true;
      parse rest
    | "--out" :: file :: rest ->
      out := Some file;
      parse rest
    | _ -> usage ()
  in
  parse args;
  let workloads = if !workloads = [] then Workload.all else !workloads in
  let declared = Summary.declared benchmark (if !trace then "per_layer" else "end_to_end") in
  (* Warm-up: the first call also pays for fresh heap pages. *)
  ignore (Machine.ns_per_op () : float);
  let results =
    List.map
      (fun w ->
        let r = run_workload w ~seed:!seed ~seconds:!seconds ~trace:!trace in
        List.iter
          (fun (row : Metrics.row) ->
            Printf.printf "%s %s %.6g %s\n%!" row.Metrics.name r.Summary.workload row.Metrics.value
              row.Metrics.unit_)
          (Summary.metrics r);
        List.iter (Printf.eprintf "ccp_bench: %s: %s\n%!" r.Summary.workload) r.Summary.failures;
        r)
      workloads
  in
  Option.iter
    (fun file ->
      write_file file
        (Json.to_string (Summary.document ~seed:!seed ~seconds:!seconds ~trace:!trace results) ^ "\n"))
    !out;
  print_endline (Json.to_string (Summary.result_line ~declared results));
  exit (if List.for_all Summary.correct results then 0 else 1)

let compare args =
  let old_file, new_file = match args with [ o; n ] -> (o, n) | _ -> usage () in
  let bounds = Summary.bounds_of_benchmark (load "BENCHMARK.json") in
  let rows = Summary.compare ~bounds ~old_doc:(load old_file) ~new_doc:(load new_file) in
  Printf.printf "%-22s %-14s %12s %12s %12s %12s %12s %12s  %s\n" "workload" "metric" "old q1"
    "old median" "old q3" "new q1" "new median" "new q3" "verdict";
  List.iter
    (fun (workload, (b : Summary.bound), old_samples, new_samples, v) ->
      let q1o, mo, q3o = Summary.quartiles old_samples in
      let q1n, mn, q3n = Summary.quartiles new_samples in
      Printf.printf "%-22s %-14s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g  %s (bound %.0f%%%s)\n"
        workload b.Summary.metric q1o mo q3o q1n mn q3n (Summary.verdict_to_string v)
        (100.0 *. b.Summary.share)
        (if b.Summary.floor > 0.0 then Printf.sprintf ", at least %g" b.Summary.floor else ""))
    rows;
  exit (if List.exists (fun (_, _, _, _, v) -> v = Summary.Worse) rows then 1 else 0)

let child_main = function
  | [ name; seed; traced ] -> (
    match (Workload.find name, int_of_string_opt seed, bool_of_string_opt traced) with
    | Some w, Some seed, Some traced ->
      print_endline (Json.to_string (Rep.to_json (Rep.run ~traced w ~seed)))
    | _ -> usage ())
  | _ -> usage ()

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: args -> run args
  | _ :: "compare" :: args -> compare args
  | _ :: "child" :: args -> child_main args
  | _ -> usage ()
