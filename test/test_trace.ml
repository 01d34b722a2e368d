(* Causal span tracing (tentpole of the observability PR): the Chrome
   trace export of a fixed seed-42 scenario must stay byte-identical
   build over build, and the tracer's span accounting must balance under
   arbitrary fault plans — every span started is eventually finalized
   with exactly one disposition or still live, and the slot pool never
   leaks. *)

open Ccp_util
open Ccp_core

(* --- the golden Chrome trace --- *)

(* dune diffs the file (test/dune); here the export must pass its own
   validator, and a second identical run in the same process must give
   the same bytes. *)
let chrome_string () =
  let json = Goldens.chrome () in
  (match Ccp_obs.Tracer.validate_chrome json with
  | Ok 0 -> Alcotest.fail "traced run exported no events"
  | Ok _ -> ()
  | Error e -> Alcotest.failf "chrome export fails its own validator: %s" e);
  Ccp_obs.Json.to_string json

let test_golden_chrome () =
  Alcotest.(check bool)
    "chrome export deterministic within one process" true
    (String.equal (chrome_string ()) (chrome_string ()))

(* --- span accounting balances under arbitrary faults --- *)

type plan_case = { seed : int; plan : Ccp_ipc.Fault_plan.t }

let gen_plan rng =
  let prob p = if Rng.bool rng then 0.0 else Rng.float rng p in
  let spike =
    if Rng.bool rng then None
    else
      Some
        {
          Ccp_ipc.Fault_plan.probability = Rng.float rng 0.2;
          extra = Time_ns.ms (Prop.int_range rng 1 4);
        }
  in
  let reorder =
    if Rng.bool rng then None
    else
      Some
        {
          Ccp_ipc.Fault_plan.probability = Rng.float rng 0.3;
          window = Time_ns.ms (Prop.int_range rng 1 5);
        }
  in
  let plan =
    Ccp_ipc.Fault_plan.make ~drop_probability:(prob 0.3) ~duplicate_probability:(prob 0.2)
      ?spike ?reorder ()
  in
  let plan =
    if Rng.bool rng then plan
    else Ccp_ipc.Fault_plan.crash ~at:(Time_ns.ms 300) ~restart:(Time_ns.ms 650) plan
  in
  { seed = Rng.int rng 10_000; plan }

let show_plan { seed; plan } =
  Printf.sprintf "seed=%d faults=%s" seed (Ccp_ipc.Fault_plan.describe plan)

let prop_span_accounting { seed; plan } =
  let obs = Ccp_obs.Obs.create ~tracer:true ~tracer_capacity:512 ~clock:(fun () -> 0.0) () in
  let config =
    Experiment.default_config ~rate_bps:24e6 ~base_rtt:(Time_ns.ms 20)
      ~duration:(Time_ns.sec 1)
  in
  let config =
    {
      config with
      Experiment.seed;
      flows = [ Experiment.flow (Experiment.Ccp_cc (Ccp_algorithms.Ccp_reno.create ())) ];
      faults = plan;
      (* With the fallback armed, a dropped Ready/Install handshake is
         re-probed, so every faulty run still starts spans. *)
      datapath =
        {
          Ccp_datapath.Ccp_ext.default_config with
          fallback = Some (Scenarios.Degraded.reno_fallback ());
        };
      obs = Some obs;
    }
  in
  ignore (Experiment.run config : Experiment.result);
  let tr = Ccp_obs.Obs.tracer_exn obs in
  let st = Ccp_obs.Tracer.stats tr in
  Prop.require "some spans were started" (st.Ccp_obs.Tracer.started > 0);
  Prop.check_eq ~what:"started = finalized + live" string_of_int st.Ccp_obs.Tracer.started
    (st.Ccp_obs.Tracer.actuated + st.Ccp_obs.Tracer.no_action + st.Ccp_obs.Tracer.rejected
   + st.Ccp_obs.Tracer.orphaned + st.Ccp_obs.Tracer.shed + st.Ccp_obs.Tracer.live);
  Prop.check_eq ~what:"free slots = capacity - live" string_of_int
    (Ccp_obs.Tracer.pool_capacity tr - st.Ccp_obs.Tracer.live)
    (Ccp_obs.Tracer.free_slots tr);
  (* Faulty runs must not leak pool slots: everything still live at sim
     end is bounded by what can actually be in flight, not by history. *)
  Prop.require "pool not exhausted by leaked spans"
    (st.Ccp_obs.Tracer.live < Ccp_obs.Tracer.pool_capacity tr / 2);
  let r = Ccp_obs.Obs.recorder_exn obs in
  Prop.check_eq ~what:"recorder: recorded = held + dropped" string_of_int
    (Ccp_obs.Recorder.recorded r)
    (Ccp_obs.Recorder.length r + Ccp_obs.Recorder.dropped r)

let suite =
  [
    ( "trace",
      [
        Alcotest.test_case "golden chrome trace is byte-stable" `Quick test_golden_chrome;
        Prop.test_case ~cases:15 ~name:"span accounting balances under random faults"
          ~gen:gen_plan ~show:show_plan prop_span_accounting;
      ] );
  ]
