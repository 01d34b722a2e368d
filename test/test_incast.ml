(* The incast scale-out scenario: byte-exact golden scorecard (seed 42),
   schema self-validation, the aggregate riding the fleet, and the
   batching knob's contract — wire traffic shrinks, dynamics stay put.

   The golden matrix is deliberately small (N in {4, 16}, 24 Mbit/s,
   1 s) so the whole suite stays fast; bin/ci.sh drives the larger
   fan-ins through the CLI. *)

open Ccp_util
module Incast = Ccp_core.Scenarios.Incast

let incast_scorecard = lazy (Goldens.incast ())

let scorecard_line sc = Ccp_obs.Json.to_string (Incast.to_json sc)

(* dune diffs the golden file (test/dune); here, its shape, and that the
   scorecard is a pure function of its arguments: a second in-process
   run may not perturb or be perturbed by the first. *)
let test_golden_incast () =
  let sc = Lazy.force incast_scorecard in
  Alcotest.(check int) "2 Ns x 2 arrivals x 2 algorithms" 8 (List.length sc.Incast.cells);
  Alcotest.(check bool)
    "deterministic re-run" true
    (String.equal (scorecard_line sc) (scorecard_line (Goldens.incast ())))

let test_incast_schema () =
  let sc = Lazy.force incast_scorecard in
  match Incast.validate_scorecard (Incast.to_json sc) with
  | Ok n -> Alcotest.(check int) "all cells validate" 8 n
  | Error e -> Alcotest.failf "incast scorecard fails its own schema: %s" e

(* Every cell, both algorithms: the control plane actually carried the
   fleet — flows registered without pool rejections, reports flowed,
   nothing failed to decode, and the link was not idle. *)
let test_incast_cell_sanity () =
  let sc = Lazy.force incast_scorecard in
  List.iter
    (fun (c : Incast.cell) ->
      let tag =
        Printf.sprintf "n=%d %s %s" c.n (Incast.arrival_to_string c.arrival) c.algo
      in
      Alcotest.(check int) (tag ^ ": no pool rejections") 0 c.pool_rejections;
      Alcotest.(check int) (tag ^ ": no decode failures") 0 c.decode_failures;
      Alcotest.(check bool) (tag ^ ": reports flowed") true (c.reports > 0);
      Alcotest.(check bool) (tag ^ ": batch frames used") true (c.batches > 0);
      Alcotest.(check bool) (tag ^ ": link not idle") true (c.utilization > 0.0))
    sc.Incast.cells;
  (* The aggregate enrolled the whole fleet as members of one window:
     its cells are present for every N. *)
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "aggregate cell at n=%d" n)
        true
        (List.exists
           (fun (c : Incast.cell) -> c.algo = "ccp-aggregate" && c.n = n)
           sc.Incast.cells))
    [ 4; 16 ]

(* The batching knob's contract, measured in closed loop at N=32: fewer
   wire frames for the same reports, and turning it off produces zero
   batch frames (the original one-frame-per-message channel). *)
let run_n32 ~batching =
  Incast.run_cell ~rate_bps:24e6 ~base_rtt:(Time_ns.ms 10)
    ~duration:(Time_ns.of_float_sec 0.5) ~batching ~seed:42 ~n:32
    ~arrival:Incast.Synchronized ~algo:"ccp-reno" ()

let test_batching_wire_amortization () =
  let on = run_n32 ~batching:true and off = run_n32 ~batching:false in
  Alcotest.(check int) "off: no batch frames" 0 off.Incast.batches;
  Alcotest.(check bool) "on: reports coalesced" true (on.Incast.batches > 0);
  Alcotest.(check bool)
    (Printf.sprintf "fewer frames batched (%d) than unbatched (%d)" on.Incast.wire_messages
       off.Incast.wire_messages)
    true
    (on.Incast.wire_messages < off.Incast.wire_messages);
  (* Batching is allowed to move wire bytes, never to reach into the
     dynamics' RNG streams: both runs stay healthy and fully enrolled. *)
  List.iter
    (fun (c : Incast.cell) ->
      Alcotest.(check int) "no rejections" 0 c.Incast.pool_rejections;
      Alcotest.(check bool) "link busy" true (c.Incast.utilization > 0.2))
    [ on; off ]

let suite =
  [
    ( "incast.scenario",
      [
        Alcotest.test_case "golden scorecard" `Quick test_golden_incast;
        Alcotest.test_case "scorecard schema" `Quick test_incast_schema;
        Alcotest.test_case "cell sanity" `Quick test_incast_cell_sanity;
        Alcotest.test_case "batching wire amortization" `Quick
          test_batching_wire_amortization;
      ] );
  ]
