type run = {
  series : (float * float) array;
  utilization : float;
  median_rtt_ms : float;
}

type report = {
  cwnd_rmse : float;
  utilization_delta : float;
  median_rtt_delta_ms : float;
  samples : int;
}

let resample series ~t0 ~t1 ~n =
  if n <= 0 then invalid_arg "Fidelity.resample: n must be > 0";
  let len = Array.length series in
  let out = Array.make n 0.0 in
  if len = 0 then out
  else begin
    let step = if n = 1 then 0.0 else (t1 -. t0) /. float_of_int (n - 1) in
    (* One forward pass: both the grid and the series are time-ascending,
       so the source cursor only ever moves right. *)
    let j = ref 0 in
    for i = 0 to n - 1 do
      let t = t0 +. (step *. float_of_int i) in
      while !j < len - 1 && fst series.(!j + 1) <= t do
        j := !j + 1
      done;
      (* Before the first sample, hold the first value: a cwnd trace has
         no meaningful "zero before start". *)
      out.(i) <- snd series.(!j)
    done;
    out
  end

let rmse a b =
  let n = Array.length a in
  if n <> Array.length b then invalid_arg "Fidelity.rmse: length mismatch";
  if n = 0 then 0.0
  else begin
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      let d = a.(i) -. b.(i) in
      acc := !acc +. (d *. d)
    done;
    sqrt (!acc /. float_of_int n)
  end

(* Grid points compared over the overlapping time range. *)
let samples = 512

let compare_runs ~ccp ~native =
  if Array.length ccp.series = 0 then
    invalid_arg "Fidelity.compare_runs: empty ccp series";
  if Array.length native.series = 0 then
    invalid_arg "Fidelity.compare_runs: empty native series";
  let first s = fst s.(0) and last s = fst s.(Array.length s - 1) in
  let t0 = Float.max (first ccp.series) (first native.series) in
  let t1 = Float.min (last ccp.series) (last native.series) in
  if t1 <= t0 then
    invalid_arg "Fidelity.compare_runs: series time ranges do not overlap";
  let a = resample ccp.series ~t0 ~t1 ~n:samples in
  let b = resample native.series ~t0 ~t1 ~n:samples in
  let mean_b =
    Array.fold_left ( +. ) 0.0 b /. float_of_int (Array.length b)
  in
  let raw = rmse a b in
  let cwnd_rmse = if mean_b > 0.0 then raw /. mean_b else raw in
  {
    cwnd_rmse;
    utilization_delta = ccp.utilization -. native.utilization;
    median_rtt_delta_ms = ccp.median_rtt_ms -. native.median_rtt_ms;
    samples;
  }
