(* Install-time compilation tests (the fast-path PR): compile-time
   rejection of name/arity errors as structured [Install_result]
   refusals, bit-identical semantics against the {!Eval}/{!Fold}
   interpreter via the {!Compile.equivalent} differential harness
   (seeded property, adversarial generators included), and the
   headline perf claim's precondition — a zero-allocation per-ACK
   fold step, asserted with [Gc.minor_words]. *)

open Ccp_util
open Ccp_eventsim
open Ccp_datapath
open Ccp_lang

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* --- compile-time rejection of what the interpreter only hits at run time --- *)

let check_compile_error what ~sub p =
  match Compile.compile p with
  | Ok _ -> Alcotest.failf "%s: compiled, expected an error" what
  | Error msg ->
      if not (contains ~sub msg) then
        Alcotest.failf "%s: error %S does not mention %S" what msg sub

let wait_report = [ Ast.Wait_rtts (Ast.Const 1.0); Ast.Report ]

let fold_prog ~init ~update rest =
  Ast.program (Ast.Measure (Ast.Fold { Ast.init; update }) :: rest)

let test_compile_rejects_bad_names () =
  check_compile_error "unknown variable" ~sub:"unknown variable 'bogus'"
    (Ast.program (Ast.Cwnd (Ast.Var "bogus") :: wait_report));
  check_compile_error "pkt outside fold" ~sub:"only available inside fold updates"
    (Ast.program (Ast.Cwnd (Ast.Pkt "rtt_us") :: wait_report));
  check_compile_error "unknown packet field" ~sub:"unknown packet field 'rt_us'"
    (fold_prog
       ~init:[ ("acked", Ast.Const 0.0) ]
       ~update:[ ("acked", Ast.Pkt "rt_us") ]
       wait_report);
  check_compile_error "unknown builtin" ~sub:"unknown function 'frob'"
    (Ast.program (Ast.Cwnd (Ast.Call ("frob", [ Ast.Const 1.0 ])) :: wait_report));
  check_compile_error "wrong arity" ~sub:"expects 2 arguments, got 1"
    (Ast.program (Ast.Cwnd (Ast.Call ("min", [ Ast.Const 1.0 ])) :: wait_report));
  check_compile_error "duplicate fold field" ~sub:"duplicate field 'x'"
    (fold_prog
       ~init:[ ("x", Ast.Const 0.0); ("x", Ast.Const 1.0) ]
       ~update:[ ("x", Ast.Var "x") ]
       wait_report);
  check_compile_error "undeclared update target" ~sub:"undeclared field 'y'"
    (fold_prog
       ~init:[ ("x", Ast.Const 0.0) ]
       ~update:[ ("y", Ast.Const 1.0) ]
       wait_report);
  check_compile_error "unknown vector column" ~sub:"unknown packet field 'nope'"
    (Ast.program (Ast.Measure (Ast.Vector [ "rtt_us"; "nope" ]) :: wait_report))

(* --- the classic report fold, compiled vs interpreted --- *)

let classic_fold =
  Ast.Fold
    {
      Ast.init =
        [
          ("acked", Ast.Const 0.0);
          ("cnt", Ast.Const 0.0);
          ("minrtt", Ast.Var "minrtt_us");
          ("maxrtt", Ast.Const 0.0);
          ("last_rtt", Ast.Const 0.0);
          ("prev_rtt", Ast.Const 0.0);
        ];
      update =
        [
          ("acked", Ast.Bin (Ast.Add, Ast.Var "acked", Ast.Pkt "bytes_acked"));
          ("cnt", Ast.Bin (Ast.Add, Ast.Var "cnt", Ast.Const 1.0));
          ("minrtt", Ast.Call ("min", [ Ast.Var "minrtt"; Ast.Pkt "rtt_us" ]));
          ("maxrtt", Ast.Call ("max", [ Ast.Var "maxrtt"; Ast.Pkt "rtt_us" ]));
          ("last_rtt", Ast.Pkt "rtt_us");
          ("prev_rtt", Ast.Var "last_rtt");
        ];
    }

let classic_program =
  Ast.program ~repeat:true
    [
      Ast.Measure classic_fold;
      Ast.Cwnd (Ast.Bin (Ast.Add, Ast.Var "cwnd", Ast.Bin (Ast.Mul, Ast.Const 2.0, Ast.Var "mss")));
      Ast.Wait_rtts (Ast.Const 1.0);
      Ast.Report;
    ]

let deterministic_flow =
  (* One distinctive finite value per flow slot. *)
  Array.init Compile.flow_var_count (fun i -> 1000.0 +. (137.0 *. float_of_int i))

let test_classic_fold_equivalent () =
  let pkts =
    Array.init 25 (fun k ->
        Array.init Compile.pkt_field_count (fun i ->
            float_of_int (((k * 7919) + (i * 104729)) mod 100_000)))
  in
  match Compile.equivalent classic_program ~flow:deterministic_flow ~pkts with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "classic fold diverged: %s" msg

(* --- every well-typed program compiles --- *)

let prop_well_typed_compiles =
  Prop.test_case ~cases:200 ~name:"every admitted program compiles"
    ~gen:Ast_gen.well_typed_program ~show:Pretty.program_to_string (fun p ->
      match Compile.compile p with
      | Ok cp -> ignore (Compile.machine_for cp)
      | Error msg -> Prop.fail "admitted program failed to compile: %s" msg)

(* --- seeded differential property: compiled = interpreted, incidents included --- *)

type diff_case = { program : Ast.program; flow : float array; pkts : float array array }

let show_diff d =
  Printf.sprintf "%s\nflow=[%s]\n%d packets" (Pretty.program_to_string d.program)
    (String.concat "; " (Array.to_list (Array.map string_of_float d.flow)))
    (Array.length d.pkts)

let nasty = [| 0.0; -0.0; -1.0; 1e300; -1e300; 4.9e-324; infinity; neg_infinity; nan |]

let gen_cell rng =
  match Rng.int rng 8 with
  | 0 -> nasty.(Rng.int rng (Array.length nasty))
  | 1 -> -.Rng.float rng 1e6
  | 2 -> float_of_int (Rng.int rng 65_536)
  | _ -> Rng.float rng 1e7

let gen_diff rng =
  let program =
    (* Half adversarial (unknown names, wrong arities, overflow constants),
       half guaranteed-admissible. *)
    if Rng.bool rng then Ast_gen.program rng else Ast_gen.well_typed_program rng
  in
  let flow = Array.init Compile.flow_var_count (fun _ -> gen_cell rng) in
  let pkts =
    Array.init (Rng.int rng 31) (fun _ ->
        Array.init Compile.pkt_field_count (fun _ -> gen_cell rng))
  in
  { program; flow; pkts }

let prop_compiled_equals_interpreted =
  Prop.test_case ~cases:1000 ~name:"compiled = interpreted (differential)" ~gen:gen_diff
    ~show:show_diff (fun d ->
      match Compile.compile d.program with
      | Error msg -> (
          (* Compile errors must be a subset of typecheck errors: anything
             the compiler refuses, admission already refuses. *)
          match Typecheck.check d.program with
          | Error _ -> ()
          | Ok _ -> Prop.fail "compile rejected (%s) but typecheck accepted" msg)
      | Ok _ -> (
          match Compile.equivalent d.program ~flow:d.flow ~pkts:d.pkts with
          | Ok () -> ()
          | Error msg -> Prop.fail "divergence: %s" msg))

(* --- the per-ACK step allocates nothing --- *)

let test_fold_step_allocation_free () =
  let cp = Compile.compile_exn classic_program in
  let m = Compile.machine_for cp in
  Array.blit deterministic_flow 0 m.Compile.flow 0 Compile.flow_var_count;
  let plan =
    match
      Array.to_list cp.Compile.prims
      |> List.filter_map (function Compile.Measure_fold p -> Some p | _ -> None)
    with
    | [ p ] -> p
    | _ -> Alcotest.fail "expected exactly one fold"
  in
  let fold = Compile.Fold.create plan ~m in
  let incidents = Eval.fresh_counter () in
  m.Compile.pkt.(Compile.pkt_index_exn "rtt_us") <- 10_233.0;
  m.Compile.pkt.(Compile.pkt_index_exn "bytes_acked") <- 1448.0;
  for _ = 1 to 1_000 do
    Compile.Fold.step fold ~m ~incidents
  done;
  Gc.full_major ();
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Compile.Fold.step fold ~m ~incidents
  done;
  let delta = Gc.minor_words () -. before in
  if delta > 100.0 then
    Alcotest.failf "fold step allocated: %.0f minor words over 10k steps" delta;
  Alcotest.(check int) "packets counted" 11_000 (Compile.Fold.packet_count fold)

(* --- compilation is part of admission, even with validation off --- *)

let fake_ctl sim ~flow =
  let cwnd = ref 14_480 and rate = ref 0.0 in
  ({
     Congestion_iface.flow;
     mss = 1448;
     now = (fun () -> Sim.now sim);
     get_cwnd = (fun () -> !cwnd);
     set_cwnd = (fun b -> cwnd := b);
     get_rate = (fun () -> !rate);
     set_rate = (fun r -> rate := r);
     srtt = (fun () -> Some (Time_ns.ms 10));
     latest_rtt = (fun () -> Some (Time_ns.ms 11));
     min_rtt = (fun () -> Some (Time_ns.ms 10));
     inflight = (fun () -> 0);
     send_rate_ewma = (fun () -> None);
     delivery_rate_ewma = (fun () -> None);
   }
    : Congestion_iface.ctl)

let test_unresolvable_install_rejected () =
  (* An unresolvable program must come back as a structured rejection
     that names the unknown variable, not install a program that would
     fault per-packet. *)
  let sim = Sim.create () in
  let channel =
    Ccp_ipc.Channel.create ~sim ~latency:(Ccp_ipc.Latency_model.Constant (Time_ns.us 20)) ()
  in
  let to_agent = ref [] in
  Ccp_ipc.Channel.on_receive channel Ccp_ipc.Channel.Agent_end (fun m ->
      to_agent := m :: !to_agent);
  let ext = Ccp_ext.create ~sim ~channel () in
  (Ccp_ext.congestion_control ext).Congestion_iface.on_init (fake_ctl sim ~flow:1);
  Ccp_ipc.Channel.send channel ~from:Ccp_ipc.Channel.Agent_end
    (Ccp_ipc.Message.Install
       { flow = 1; program = Ast.program (Ast.Cwnd (Ast.Var "bogus") :: wait_report) });
  Sim.run ~until:(Time_ns.ms 1) sim;
  Alcotest.(check int) "rejected count" 1 (Ccp_ext.installs_rejected ext);
  Alcotest.(check bool) "nothing installed" true
    (Ccp_ext.installed_program ext ~flow:1 = None);
  let verdicts =
    List.filter_map
      (function Ccp_ipc.Message.Install_result { verdict; _ } -> Some verdict | _ -> None)
      (List.rev !to_agent)
  in
  match verdicts with
  | [ Ccp_ipc.Message.Rejected { reason = Limits.Invalid_program; detail } ] ->
      Alcotest.(check bool) "detail names the variable" true
        (contains ~sub:"unknown variable 'bogus'" detail)
  | [ Ccp_ipc.Message.Rejected { reason; _ } ] ->
      Alcotest.failf "wrong reason: %s" (Limits.reason_to_string reason)
  | vs -> Alcotest.failf "expected one rejection, got %d verdicts" (List.length vs)

let suite =
  [
    ( "compile",
      [
        Alcotest.test_case "name/arity errors caught at compile time" `Quick
          test_compile_rejects_bad_names;
        Alcotest.test_case "classic fold: compiled = interpreted" `Quick
          test_classic_fold_equivalent;
        Alcotest.test_case "fold step allocates nothing" `Quick
          test_fold_step_allocation_free;
        Alcotest.test_case "unresolvable install rejected with its name" `Quick
          test_unresolvable_install_rejected;
        prop_well_typed_compiles;
      ] );
    ("compile.differential", [ prop_compiled_equals_interpreted ]);
  ]
