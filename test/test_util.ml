(* Unit and property tests for Ccp_util: time arithmetic, the PRNG and
   the statistics containers. *)

open Ccp_util

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Time_ns --- *)

let test_time_units () =
  check_int "us" 1_000 (Time_ns.us 1);
  check_int "ms" 1_000_000 (Time_ns.ms 1);
  check_int "sec" 1_000_000_000 (Time_ns.sec 1);
  check_int "of_float_sec" 1_500_000_000 (Time_ns.of_float_sec 1.5);
  check_float "to_float_sec" 0.25 (Time_ns.to_float_sec 250_000_000);
  check_float "to_float_us" 12.5 (Time_ns.to_float_us 12_500);
  check_float "to_float_ms" 1.25 (Time_ns.to_float_ms 1_250_000)

let test_time_arith () =
  check_int "add" 300 (Time_ns.add 100 200);
  check_int "sub negative" (-100) (Time_ns.sub 100 200);
  check_int "diff" 100 (Time_ns.diff 100 200);
  check_int "scale" 150 (Time_ns.scale 100 1.5);
  check_int "scale rounds" 333 (Time_ns.scale 1000 0.3333);
  check_bool "is_positive" true (Time_ns.is_positive 1);
  check_bool "zero not positive" false (Time_ns.is_positive 0)

let test_time_pp () =
  Alcotest.(check string) "ns" "500ns" (Time_ns.to_string (Time_ns.ns 500));
  Alcotest.(check string) "us" "48.00us" (Time_ns.to_string (Time_ns.us 48));
  Alcotest.(check string) "ms" "16.10ms" (Time_ns.to_string (Time_ns.of_float_sec 0.0161));
  Alcotest.(check string) "s" "30.000s" (Time_ns.to_string (Time_ns.sec 30))

let test_bytes_time () =
  (* 1500 bytes at 1 Gbit/s = 12 us. *)
  check_int "serialization" 12_000 (Time_ns.bytes_time ~bytes:1500 ~rate_bps:1e9)

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done;
  let c = Rng.create ~seed:8 in
  check_bool "different seed differs" true (Rng.bits64 (Rng.create ~seed:7) <> Rng.bits64 c)

let test_rng_ranges () =
  let rng = Rng.create ~seed:1 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    check_bool "int in range" true (v >= 0 && v < 17);
    let f = Rng.float rng 3.0 in
    check_bool "float in range" true (f >= 0.0 && f < 3.0);
    let u = Rng.uniform rng ~lo:5.0 ~hi:6.0 in
    check_bool "uniform in range" true (u >= 5.0 && u < 6.0)
  done

let test_rng_int_rejects_bad_bound () =
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int (Rng.create ~seed:1) 0))

let test_rng_distributions () =
  let rng = Rng.create ~seed:42 in
  let n = 200_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng ~mean:3.0
  done;
  let mean = !sum /. float_of_int n in
  check_bool "exponential mean ~3" true (Float.abs (mean -. 3.0) < 0.05);
  (* Log-normal median = exp mu. *)
  let samples = Stats.Samples.create () in
  for _ = 1 to n do
    Stats.Samples.add samples (Rng.lognormal rng ~mu:(log 10.0) ~sigma:0.5)
  done;
  let median = Stats.Samples.median samples in
  check_bool "lognormal median ~10" true (Float.abs (median -. 10.0) < 0.2);
  (* Pareto samples never fall below the scale. *)
  for _ = 1 to 1_000 do
    check_bool "pareto >= scale" true (Rng.pareto rng ~shape:1.5 ~scale:2.0 >= 2.0)
  done

let test_rng_split_independent () =
  let parent = Rng.create ~seed:9 in
  let child = Rng.split parent in
  (* The child must not replay the parent's stream. *)
  let p = Array.init 20 (fun _ -> Rng.bits64 parent) in
  let c = Array.init 20 (fun _ -> Rng.bits64 child) in
  check_bool "split independent" true (p <> c)

(* The first draws of a fixed seed and of its first split child, recorded
   from the record-of-four-[mutable int64] implementation: the state
   layout may change, the stream may not. *)
let test_rng_known_answers () =
  let draws rng = List.init 8 (fun _ -> Rng.bits64 rng) in
  Alcotest.(check (list int64)) "seed 42"
    [
      0x15780B2E0C2EC716L; 0x6104D9866D113A7EL; 0xAE17533239E499A1L; 0xECB8AD4703B360A1L;
      0xFDE6DC7FE2EC5E64L; 0xC50DA53101795238L; 0xB82154855A65DDB2L; 0xD99A2743EBE60087L;
    ]
    (draws (Rng.create ~seed:42));
  let parent = Rng.create ~seed:42 in
  let child = Rng.split parent in
  Alcotest.(check (list int64)) "split child of seed 42"
    [
      0x8EE445D14631C453L; 0x106FA1A13296FE62L; 0x729A768806244CE5L; 0x91D83A17B20E6585L;
      0x38C33DF442FC70FDL; 0xE33CD1B92E2E42F1L; 0x3162280B9DCFA5EFL; 0xB4F9F0541228B854L;
    ]
    (draws child);
  Alcotest.(check int64) "split advanced the parent by one draw" 0x6104D9866D113A7EL
    (Rng.bits64 parent);
  let a = Rng.create ~seed:42 in
  ignore (Rng.bits64 a : int64);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues the stream" (Rng.bits64 a) (Rng.bits64 b)

(* Every IPC latency draw and fault decision goes through [Rng]: a draw
   must not box the generator state. *)
let test_rng_draws_allocation_free () =
  let rng = Rng.create ~seed:3 in
  let sink = ref 0 in
  for _ = 1 to 100 do
    sink := !sink + Rng.int rng 1000
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    sink := !sink + Rng.int rng 1000
  done;
  let int_words = (Gc.minor_words () -. before) /. 10_000.0 in
  if int_words > 0.0 then Alcotest.failf "Rng.int allocated %.2f words per draw" int_words;
  let model = Ccp_ipc.Latency_model.unix_idle in
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    sink := !sink + Ccp_ipc.Latency_model.one_way model rng
  done;
  let one_way_words = (Gc.minor_words () -. before) /. 10_000.0 in
  if one_way_words > 8.0 then
    Alcotest.failf "Latency_model.one_way allocated %.2f words per draw (limit 8)" one_way_words;
  check_bool "draws consumed" true (!sink > 0)

let test_rng_shuffle () =
  let rng = Rng.create ~seed:5 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted;
  check_bool "actually shuffled" true (arr <> Array.init 50 Fun.id)

(* --- Stats --- *)

let test_summary () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check_int "count" 8 (Stats.Summary.count s);
  check_float "mean" 5.0 (Stats.Summary.mean s);
  check_float "min" 2.0 (Stats.Summary.min s);
  check_float "max" 9.0 (Stats.Summary.max s);
  check_float "sum" 40.0 (Stats.Summary.sum s);
  Alcotest.(check (float 1e-6)) "variance (sample)" (32.0 /. 7.0) (Stats.Summary.variance s)

let test_samples_percentiles () =
  let s = Stats.Samples.create () in
  List.iter (Stats.Samples.add s) [ 15.0; 20.0; 35.0; 40.0; 50.0 ];
  check_float "p0 = min" 15.0 (Stats.Samples.percentile s 0.0);
  check_float "p100 = max" 50.0 (Stats.Samples.percentile s 100.0);
  check_float "median" 35.0 (Stats.Samples.median s);
  (* p25 of 5 values lands exactly on the 2nd order statistic... *)
  check_float "p25" 20.0 (Stats.Samples.percentile s 25.0);
  (* ... and p37.5 interpolates halfway between the 2nd and 3rd. *)
  check_float "p37.5 interpolated" 27.5 (Stats.Samples.percentile s 37.5);
  check_float "mean" 32.0 (Stats.Samples.mean s);
  Alcotest.check_raises "empty percentile"
    (Invalid_argument "Stats.Samples.percentile: empty") (fun () ->
      ignore (Stats.Samples.percentile (Stats.Samples.create ()) 50.0))

let test_samples_cdf () =
  let s = Stats.Samples.create () in
  for i = 1 to 100 do
    Stats.Samples.add s (float_of_int i)
  done;
  let cdf = Stats.Samples.cdf s ~points:10 in
  check_int "points" 10 (List.length cdf);
  let fractions = List.map snd cdf in
  check_float "last fraction" 1.0 (List.nth fractions 9);
  let values = List.map fst cdf in
  check_bool "values nondecreasing" true
    (List.for_all2 ( <= ) (List.filteri (fun i _ -> i < 9) values) (List.tl values))

let test_ewma () =
  let e = Stats.Ewma.create ~alpha:0.5 in
  Alcotest.(check (option (float 1e-9))) "empty" None (Stats.Ewma.value_opt e);
  Stats.Ewma.add e 10.0;
  check_float "first = value" 10.0 (Stats.Ewma.value e);
  Stats.Ewma.add e 20.0;
  check_float "second" 15.0 (Stats.Ewma.value e);
  Alcotest.check_raises "bad alpha" (Invalid_argument "Stats.Ewma.create: alpha in (0,1]")
    (fun () -> ignore (Stats.Ewma.create ~alpha:0.0))

let test_windowed_min_max () =
  let m = Stats.Windowed_min.create ~window:(Time_ns.ms 10) in
  Stats.Windowed_min.add m ~now:(Time_ns.ms 0) 5.0;
  Stats.Windowed_min.add m ~now:(Time_ns.ms 2) 3.0;
  Stats.Windowed_min.add m ~now:(Time_ns.ms 4) 7.0;
  Alcotest.(check (option (float 1e-9))) "min" (Some 3.0)
    (Stats.Windowed_min.get m ~now:(Time_ns.ms 5));
  (* After the 3.0 sample expires, the 7.0 one remains. *)
  Alcotest.(check (option (float 1e-9))) "expired min" (Some 7.0)
    (Stats.Windowed_min.get m ~now:(Time_ns.ms 13));
  Alcotest.(check (option (float 1e-9))) "all expired" None
    (Stats.Windowed_min.get m ~now:(Time_ns.ms 30));
  let x = Stats.Windowed_max.create ~window:(Time_ns.ms 10) in
  Stats.Windowed_max.add x ~now:(Time_ns.ms 0) 5.0;
  Stats.Windowed_max.add x ~now:(Time_ns.ms 2) 9.0;
  Stats.Windowed_max.add x ~now:(Time_ns.ms 4) 4.0;
  Alcotest.(check (option (float 1e-9))) "max" (Some 9.0)
    (Stats.Windowed_max.get x ~now:(Time_ns.ms 5));
  Alcotest.(check (option (float 1e-9))) "expired max" (Some 4.0)
    (Stats.Windowed_max.get x ~now:(Time_ns.ms 13))

let test_jain () =
  check_float "equal shares" 1.0 (Stats.jain_fairness [| 5.0; 5.0; 5.0 |]);
  check_float "single flow" 1.0 (Stats.jain_fairness [| 42.0 |]);
  check_float "empty" 1.0 (Stats.jain_fairness [||]);
  (* One flow hogging: 1/n in the limit. *)
  Alcotest.(check (float 1e-6)) "starved" 0.5 (Stats.jain_fairness [| 10.0; 0.0 |])

let prop_percentile_bounds =
  QCheck.Test.make ~name:"percentile within min..max" ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 1 50) (float_bound_exclusive 1000.0))
              (float_bound_inclusive 100.0))
    (fun (xs, p) ->
      let s = Stats.Samples.create () in
      List.iter (Stats.Samples.add s) xs;
      let v = Stats.Samples.percentile s p in
      let lo = List.fold_left Float.min infinity xs in
      let hi = List.fold_left Float.max neg_infinity xs in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

(* Words [f] allocates, minor and directly in the major heap. *)
let words_allocated f =
  Gc.minor ();
  let major = (Gc.quick_stat ()).Gc.major_words in
  let minor = Gc.minor_words () in
  f ();
  let minor = Gc.minor_words () -. minor in
  minor +. ((Gc.quick_stat ()).Gc.major_words -. major)

(* The first percentile of 250 k unsorted samples sorts them in place:
   it allocates no more than its boxed result, where a sort through
   [Array.sort Float.compare] boxes two floats per comparison. *)
let test_percentile_allocation () =
  let rng = Rng.create ~seed:7 in
  let n = 250_000 in
  let raw = Array.init n (fun _ -> Rng.float rng 1e6) in
  let s = Stats.Samples.create () in
  Array.iter (Stats.Samples.add s) raw;
  let result = ref 0.0 in
  let words = words_allocated (fun () -> result := Stats.Samples.percentile s 99.0) in
  let boxed_float = float_of_int (Obj.size (Obj.repr 1.0) + 1) in
  if words > boxed_float then
    Alcotest.failf "percentile allocated %.0f words; its boxed result is %.0f" words boxed_float;
  Array.sort Float.compare raw;
  let rank = 99.0 /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) and hi = int_of_float (Float.ceil rank) in
  Alcotest.(check (float 0.0)) "p99 of the sorted samples"
    (raw.(lo) +. ((rank -. float_of_int lo) *. (raw.(hi) -. raw.(lo))))
    !result

(* The in-place sort yields bitwise what [Array.sort Float.compare] does,
   on inputs rich in the values a comparison can get wrong: NaNs of
   both signs and two payloads, both zeros, both infinities and
   duplicates. *)
let special_floats =
  [|
    Float.nan;
    Float.neg Float.nan;
    Int64.float_of_bits 0x7FF0_0000_0000_0001L;
    0.0;
    -0.0;
    Float.infinity;
    Float.neg_infinity;
    1.0;
    -1.0;
    Float.max_float;
    Float.min_float;
  |]

let gen_sample rng =
  match Prop.int_range rng 0 3 with
  | 0 -> special_floats.(Rng.int rng (Array.length special_floats))
  | 1 -> float_of_int (Prop.int_range rng (-3) 3)
  | _ -> Rng.float rng 2.0 -. 1.0

let prop_sort_matches_stdlib =
  Prop.test_case ~cases:500 ~name:"in-place sort = Array.sort Float.compare"
    ~gen:(fun rng ->
      let n = if Rng.int rng 10 = 0 then Prop.int_range rng 0 2000 else Prop.int_range rng 0 40 in
      Array.init n (fun _ -> gen_sample rng))
    ~show:(fun xs -> String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") xs)))
    (fun xs ->
      let expected = Array.copy xs in
      Array.sort Float.compare expected;
      let s = Stats.Samples.create () in
      Array.iter (Stats.Samples.add s) xs;
      let bits a = Array.to_list (Array.map (fun x -> Printf.sprintf "%Lx" (Int64.bits_of_float x)) a) in
      Prop.check_eq ~what:"sorted bits" (String.concat " ") (bits expected)
        (bits (Stats.Samples.to_array s)))

let suite =
  [
    ( "util.time",
      [
        Alcotest.test_case "units" `Quick test_time_units;
        Alcotest.test_case "arithmetic" `Quick test_time_arith;
        Alcotest.test_case "pretty printing" `Quick test_time_pp;
        Alcotest.test_case "serialization time" `Quick test_bytes_time;
      ] );
    ( "util.rng",
      [
        Alcotest.test_case "deterministic per seed" `Quick test_rng_deterministic;
        Alcotest.test_case "ranges" `Quick test_rng_ranges;
        Alcotest.test_case "bad bound" `Quick test_rng_int_rejects_bad_bound;
        Alcotest.test_case "distribution sanity" `Slow test_rng_distributions;
        Alcotest.test_case "split independence" `Quick test_rng_split_independent;
        Alcotest.test_case "shuffle" `Quick test_rng_shuffle;
        Alcotest.test_case "known answers" `Quick test_rng_known_answers;
        Alcotest.test_case "draws allocation-free" `Quick test_rng_draws_allocation_free;
      ] );
    ( "util.stats",
      [
        Alcotest.test_case "running summary" `Quick test_summary;
        Alcotest.test_case "percentiles" `Quick test_samples_percentiles;
        Alcotest.test_case "cdf" `Quick test_samples_cdf;
        Alcotest.test_case "ewma" `Quick test_ewma;
        Alcotest.test_case "windowed extrema" `Quick test_windowed_min_max;
        Alcotest.test_case "jain fairness" `Quick test_jain;
        QCheck_alcotest.to_alcotest prop_percentile_bounds;
        Alcotest.test_case "percentile sorts in place" `Quick test_percentile_allocation;
        prop_sort_matches_stdlib;
      ] );
  ]
