(* Medians over repetitions, the result document, and the verdicts of
   [ccp_bench compare]. *)

module Metrics = Ccp_obs.Metrics
module Json = Ccp_obs.Json

type t = {
  workload : string;
  attempted : int;
  failures : string list;  (* one line per failed repetition *)
  untraced : Rep.t list;  (* the repetitions that passed *)
  traced : Rep.t list;
  overheads : float list;  (* traced wall / untraced wall, per seed *)
}

let failed t = List.length t.failures
let correct t = t.failures = [] && (t.untraced <> [] || t.traced <> [])

(* Python's [statistics.quantiles(xs, n=4)] (the "exclusive" method),
   with the median in the middle. *)
let quartiles xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  if n = 0 then invalid_arg "Summary.quartiles: no samples";
  if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = (n + 1) * i in
      let j = max 1 (min (n - 1) (m / 4)) in
      let delta = float_of_int (m - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

let samples reps name =
  List.concat_map
    (fun (r : Rep.t) ->
      List.filter_map
        (fun (row : Metrics.row) -> if row.Metrics.name = name then Some row.Metrics.value else None)
        r.Rep.rows)
    reps

(* Per metric, the median over the repetitions that report it, in the
   order the first repetition lists them. *)
let medians reps =
  match reps with
  | [] -> []
  | (first : Rep.t) :: _ ->
    List.map
      (fun (row : Metrics.row) -> { row with Metrics.value = median (samples reps row.Metrics.name) })
      first.Rep.rows

let metrics t =
  let bench name unit_ = function
    | [] -> []
    | xs -> [ { Metrics.name; value = median xs; unit_ } ]
  in
  medians (List.map Rep.scaled t.untraced)
  @ medians t.traced
  @ bench "bench.trace_overhead" "ratio" t.overheads
  @ bench "bench.calibration_ns" "ns" (List.map (fun (r : Rep.t) -> r.Rep.calib_ns) t.traced)

let to_json t =
  Json.Obj
    [
      ("name", Json.Str t.workload);
      ("correct", Json.Bool (correct t));
      ("attempted", Json.Num (float_of_int t.attempted));
      ("failed", Json.Num (float_of_int (failed t)));
      ("failures", Json.List (List.map (fun s -> Json.Str s) t.failures));
      ("metrics", Metrics.rows_to_json (metrics t));
      ("reps", Json.List (List.map Rep.to_json (t.untraced @ t.traced)));
    ]

let document ~seed ~seconds ~trace results =
  Json.Obj
    [
      ("schema", Json.Str "ccp-bench/v1");
      ("seed", Json.Num (float_of_int seed));
      ("seconds", Json.Num (float_of_int seconds));
      ("trace", Json.Bool trace);
      ("workloads", Json.List (List.map to_json results));
    ]

(* The metric specs of one list of BENCHMARK.json, "end_to_end" or
   "per_layer", with a reader for their fields. *)
let specs json section =
  match Json.member section json with
  | Some (Json.List specs) ->
    List.map (fun spec k -> Option.get (Json.member k spec)) specs
  | _ -> failwith ("BENCHMARK.json: no " ^ section ^ " list")

let str field = Option.get (Json.to_str field)

(* The (name, unit) pairs of one metric list. *)
let declared json section =
  List.map (fun spec -> (str (spec "name"), str (spec "unit"))) (specs json section)

(* The last line of a run: the whole run's accounting and, per declared
   metric, its median. The line carries every declared metric as a
   number, so a metric the workload cannot measure (the CCP rows on
   fig3-native, [native_cc.on_ack_ns] on the others) reads 0 in it. Only
   here: the printed rows and the result document leave such metrics
   out. Metric keys carry the workload name only when the run covered
   several workloads. *)
let result_line ~declared results =
  let single = match results with [ _ ] -> true | _ -> false in
  let entries =
    List.concat_map
      (fun t ->
        let measured = metrics t in
        List.map
          (fun (name, unit_) ->
            let value =
              match List.find_opt (fun (r : Metrics.row) -> r.Metrics.name = name) measured with
              | Some r -> r.Metrics.value
              | None -> 0.0
            in
            ( (if single then name else t.workload ^ "/" ^ name),
              Json.Obj [ ("value", Json.Num value); ("unit", Json.Str unit_) ] ))
          declared)
      results
  in
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 results in
  Json.Obj
    [
      ("correct", Json.Bool (List.for_all correct results));
      ("attempted", Json.Num (float_of_int (sum (fun t -> t.attempted))));
      ("failed", Json.Num (float_of_int (sum failed)));
      ("metrics", Json.Obj entries);
    ]

(* --- compare --- *)

type bound = {
  metric : string;
  higher_is_better : bool;
  share : float;  (* of the old median *)
  floor : float;  (* absolute, in the metric's unit *)
}

(* A change must exceed the larger of [share] of the old median and
   [floor] to count. The metric entries of BENCHMARK.json have a fixed
   set of keys, so the floors live here. fig3-native sets up in ~30 us,
   and a change of a few us there is not a regression. *)
let floor_of = function "setup_s" -> 0.005 | _ -> 0.0

let bounds_of_benchmark json =
  List.map
    (fun spec ->
      let metric = str (spec "name") in
      {
        metric;
        higher_is_better = str (spec "better") = "higher";
        share = Option.get (Json.to_float (spec "bound"));
        floor = floor_of metric;
      })
    (specs json "end_to_end")

(* Scaled untraced samples per workload from a result document. *)
let workload_reps doc =
  match Json.member "workloads" doc with
  | Some (Json.List ws) ->
    List.map
      (fun w ->
        let name = Option.get (Option.bind (Json.member "name" w) Json.to_str) in
        let reps =
          match Json.member "reps" w with
          | Some (Json.List reps) -> List.map Rep.of_json reps
          | _ -> []
        in
        (name, List.map Rep.scaled (List.filter (fun (r : Rep.t) -> not r.Rep.traced) reps)))
      ws
  | _ -> failwith "not a ccp-bench result document"

type verdict = Better | Worse | Unchanged | Unresolved

let verdict_to_string = function
  | Better -> "better"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

(* [gain] is the change of the median, positive when the new side is
   better; [tolerance] is the bound in the metric's unit. A spread (q3 -
   q1) wider than the tolerance leaves the comparison unresolved unless
   every new sample beats every old one; a gain counts only when it
   exceeds the old side's own spread and the floor. *)
let verdict b ~old_samples ~new_samples =
  let q1o, mo, q3o = quartiles old_samples and q1n, mn, q3n = quartiles new_samples in
  let tolerance = Float.max (b.share *. mo) b.floor in
  let sign = if b.higher_is_better then 1.0 else -1.0 in
  let gain = sign *. (mn -. mo) in
  let beats x y = sign *. (x -. y) > 0.0 in
  if Float.max (q3o -. q1o) (q3n -. q1n) > tolerance then
    if List.for_all (fun n -> List.for_all (fun o -> beats n o) old_samples) new_samples then Better
    else Unresolved
  else if gain < -.tolerance then Worse
  else if gain > Float.max (q3o -. q1o) b.floor then Better
  else Unchanged

let compare ~bounds ~old_doc ~new_doc =
  let old_reps = workload_reps old_doc in
  List.concat_map
    (fun (workload, new_reps) ->
      match List.assoc_opt workload old_reps with
      | None -> []
      | Some old_reps ->
        List.filter_map
          (fun b ->
            match (samples old_reps b.metric, samples new_reps b.metric) with
            | [], _ | _, [] -> None
            | old_samples, new_samples ->
              Some (workload, b, old_samples, new_samples, verdict b ~old_samples ~new_samples))
          bounds)
    (workload_reps new_doc)
