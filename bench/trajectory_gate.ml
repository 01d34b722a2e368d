(* trajectory_gate: fail when a benchmark run allocates more than the
   latest committed trajectory allows.

     dune exec bench/trajectory_gate.exe -- NOW.json

   NOW.json is a result document of `bash bench/e2e/run.sh --out
   NOW.json` (untraced; any length and seed 42, the trajectory's seed).
   Run from the repository root: the gate reads BENCHMARK.json and the
   bench/trajectory/prN.json with the largest N. For each workload of
   that file, the run's median of each gated metric must not be worse
   than the file's by more than the metric's BENCHMARK.json bound (a
   share of the file's median). Only [alloc_mwords] is gated: it is
   exact for a commit and seed on any machine, so a one-second run
   checks it. The other end-to-end metrics depend on the machine and are
   printed, not gated. Exits 1 on a regression or on a workload the run
   did not measure. *)

module Json = Ccp_obs.Json

let gated = [ "alloc_mwords" ]
let trajectory_dir = "bench/trajectory"

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      flush stdout;
      prerr_endline ("trajectory_gate: " ^ msg);
      exit 1)
    fmt

let load path =
  match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Ok doc -> doc
  | Error e -> fail "%s: %s" path e
  | exception Sys_error e -> fail "%s" e

let str key j = Option.bind (Json.member key j) Json.to_str
let num key j = Option.bind (Json.member key j) Json.to_float
let list key j = match Json.member key j with Some (Json.List l) -> l | _ -> []

let latest_trajectory () =
  let numbered f = Scanf.sscanf_opt f "pr%u.json%!" (fun n -> (n, f)) in
  let files = List.filter_map numbered (Array.to_list (Sys.readdir trajectory_dir)) in
  match List.rev (List.sort compare files) with
  | (_, f) :: _ -> Filename.concat trajectory_dir f
  | [] -> fail "no pr*.json in %s" trajectory_dir

(* (metric, (share bound, lower is better)) for every end-to-end metric. *)
let bounds benchmark =
  List.filter_map
    (fun spec ->
      match (str "name" spec, num "bound" spec, str "better" spec) with
      | Some name, Some bound, Some better -> Some (name, (bound, better = "lower"))
      | _ -> None)
    (list "end_to_end" benchmark)

(* The median of [metric] per workload of a result document. *)
let medians doc metric =
  List.filter_map
    (fun w ->
      let value =
        List.find_map
          (fun m -> if str "name" m = Some metric then num "value" m else None)
          (list "metrics" w)
      in
      match (str "name" w, value) with
      | Some name, Some v -> Some (name, v)
      | _ -> None)
    (list "workloads" doc)

let () =
  let now_file =
    match Sys.argv with [| _; f |] -> f | _ -> fail "usage: trajectory_gate NOW.json"
  in
  let bounds = bounds (load "BENCHMARK.json") in
  let base_file = latest_trajectory () in
  let base = load base_file and now = load now_file in
  (* Allocation is exact for a seed, so runs of two seeds do not compare. *)
  if num "seed" now <> num "seed" base then fail "%s and %s ran different seeds" now_file base_file;
  Printf.printf "against %s\n" base_file;
  let failures =
    List.concat_map
      (fun (metric, (bound, lower_is_better)) ->
        let now = medians now metric in
        List.filter_map
          (fun (workload, old) ->
            let gate = List.mem metric gated in
            match List.assoc_opt workload now with
            | None ->
              if gate then Some (Printf.sprintf "%s: %s not measured" workload metric) else None
            | Some v ->
              let worse = if lower_is_better then v -. old else old -. v in
              let regressed = worse > bound *. Float.abs old in
              Printf.printf "%-22s %-14s %12.6g -> %12.6g  %s\n" workload metric old v
                (if not gate then "advisory"
                 else if regressed then Printf.sprintf "WORSE (bound %.0f%%)" (bound *. 100.)
                 else "ok");
              if gate && regressed then
                Some
                  (Printf.sprintf "%s: %s %.6g is worse than %.6g by more than %.0f%%" workload
                     metric v old (bound *. 100.))
              else None)
          (medians base metric))
      bounds
  in
  match failures with
  | [] -> ()
  | _ -> fail "%s" (String.concat "; " failures)
