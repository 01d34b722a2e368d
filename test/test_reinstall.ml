(* Re-installing the program a flow already runs. For a bit-identical
   program ({!Ast.identical_program}) the datapath keeps the flow's
   admitted, compiled program and its machine, and the agent's handle
   keeps its typecheck verdict. These tests pin that contract:

   - the sign of zero survives a re-install, bit for bit;
   - identical programs get the same admission verdict and bitwise-equal
     compiled code;
   - compiled code on a machine full of garbage, after the datapath's
     usual refreshes, computes what it computes on a fresh machine;
   - over random install sequences, every verdict, count and installed
     program matches direct admission and compilation;
   - the channel matches an [Install]'s program bytes against the flow's
     running program, and yields the running AST exactly when the
     programs are bit-identical;
   - the agent's once-encoded [Install] frame puts the same bytes on the
     wire as encoding the message afresh;
   - a repeat really skips the work, measured with [Gc.minor_words];
   - across flows, a program bit-identical to the one admitted last (and
     typechecked last) is admitted and typechecked once for the fleet,
     while one a constant apart, a rejected one, or a quarantined flow's
     re-install keeps its own verdict and guard window. *)

open Ccp_util
open Ccp_eventsim
open Ccp_ipc
open Ccp_datapath
open Ccp_lang

let bits = Int64.bits_of_float

(* --- a datapath with one registered flow --- *)

let fake_ctl sim ~flow : Congestion_iface.ctl =
  let cwnd = ref 14_480 and rate = ref 0.0 in
  {
    flow;
    mss = 1448;
    now = (fun () -> Sim.now sim);
    get_cwnd = (fun () -> !cwnd);
    set_cwnd = (fun b -> cwnd := b);
    get_rate = (fun () -> !rate);
    set_rate = (fun r -> rate := r);
    srtt = (fun () -> Some (Time_ns.ms 10));
    latest_rtt = (fun () -> Some (Time_ns.ms 11));
    min_rtt = (fun () -> Some (Time_ns.ms 10));
    inflight = (fun () -> 5000);
    send_rate_ewma = (fun () -> Some 1e6);
    delivery_rate_ewma = (fun () -> Some 9e5);
  }

type env = {
  sim : Sim.t;
  channel : Channel.t;
  ext : Ccp_ext.t;
  to_agent : Message.t list ref;  (* newest first *)
}

let flow = 1

(* A datapath with flows [1..n] registered, fed by hand. *)
let make_fleet ?(config = Ccp_ext.default_config) ~n () =
  let sim = Sim.create () in
  let channel = Channel.create ~sim ~latency:(Latency_model.Constant (Time_ns.us 20)) () in
  let to_agent = ref [] in
  Channel.on_receive channel Channel.Agent_end (fun m -> to_agent := m :: !to_agent);
  let ext = Ccp_ext.create ~sim ~channel ~config () in
  for f = 1 to n do
    (Ccp_ext.congestion_control ext).Congestion_iface.on_init (fake_ctl sim ~flow:f)
  done;
  Sim.run sim;
  to_agent := [];
  { sim; channel; ext; to_agent }

let make_env ?config () = make_fleet ?config ~n:1 ()

let run_for env d = Sim.run ~until:(Time_ns.add (Sim.now env.sim) d) env.sim

let install_on env ~flow program =
  Channel.send env.channel ~from:Channel.Agent_end (Message.Install { flow; program })

let install env program = install_on env ~flow program

let last_report env =
  List.find_map (function Message.Report r -> Some r | _ -> None) !(env.to_agent)

let report_field = Ccp_agent.Algorithm.field

(* --- (a) the sign of zero survives a re-install --- *)

let zero_fold z =
  Ast.program
    [
      Ast.Measure (Ast.Fold { Ast.init = [ ("z", Ast.Const z) ]; update = [ ("z", Ast.Var "z") ] });
      Ast.Wait_rtts (Ast.Const 1.0);
      Ast.Report;
    ]

let test_sign_of_zero () =
  let env = make_env () in
  let reported () =
    match Option.bind (last_report env) (fun r -> report_field r "z") with
    | Some v -> bits v
    | None -> Alcotest.fail "no report carrying z"
  in
  install env (zero_fold 0.0);
  run_for env (Time_ns.ms 15);
  Alcotest.(check int64) "0.0 reported" (bits 0.0) (reported ());
  (* [equal_program] calls these two programs equal; the datapath must
     not, or it keeps running the 0.0 fold. *)
  install env (zero_fold (-0.0));
  run_for env (Time_ns.ms 15);
  Alcotest.(check int64) "-0.0 reported bit for bit" (bits (-0.0)) (reported ());
  Alcotest.(check int) "both accepted" 2 (Ccp_ext.installs_accepted env.ext);
  match Ccp_ext.installed_program env.ext ~flow with
  | Some p ->
    Alcotest.(check bool) "the -0.0 program is installed" true
      (Ast.identical_program p (zero_fold (-0.0)))
  | None -> Alcotest.fail "nothing installed"

(* --- rebuilding programs constant by constant --- *)

(* Rebuild [p] with every constant passed through [f], which also gets
   the constant's index in traversal order. The result shares no float
   box with [p]. *)
let map_consts f (p : Ast.program) =
  let i = ref (-1) in
  let rec expr = function
    | Ast.Const x ->
      incr i;
      Ast.Const (f !i x)
    | (Ast.Var _ | Ast.Pkt _) as e -> e
    | Ast.Bin (op, l, r) ->
      let l = expr l in
      Ast.Bin (op, l, expr r)
    | Ast.Neg e -> Ast.Neg (expr e)
    | Ast.Call (name, args) -> Ast.Call (name, List.map expr args)
  in
  let bindings = List.map (fun (n, e) -> (n, expr e)) in
  let prim = function
    | Ast.Measure (Ast.Fold d) ->
      let init = bindings d.Ast.init in
      Ast.Measure (Ast.Fold { Ast.init; update = bindings d.Ast.update })
    | Ast.Measure (Ast.Vector _) as m -> m
    | Ast.Rate e -> Ast.Rate (expr e)
    | Ast.Cwnd e -> Ast.Cwnd (expr e)
    | Ast.Wait e -> Ast.Wait (expr e)
    | Ast.Wait_rtts e -> Ast.Wait_rtts (expr e)
    | Ast.Report -> Ast.Report
  in
  Ast.program ~repeat:p.Ast.repeat (List.map prim p.Ast.prims)

let consts p =
  let acc = ref [] in
  ignore
    (map_consts
       (fun _ x ->
         acc := x :: !acc;
         x)
       p);
  Array.of_list (List.rev !acc)

let set_const p k x = map_consts (fun i c -> if i = k then x else c) p

let nan_a = Int64.float_of_bits 0x7FF8000000000001L
let nan_b = Int64.float_of_bits 0x7FF8000000000002L

(* Two values for one constant: bit-identical, or equal as numbers but
   not as bits, or one ulp apart. *)
let const_pair rng v =
  match Rng.int rng 8 with
  | 0 -> (0.0, -0.0)
  | 1 -> (-0.0, -0.0)
  | 2 -> (nan_a, nan_b)
  | 3 -> (nan_b, nan_b)
  | 4 -> (v, Float.succ v)
  | 5 -> (infinity, infinity)
  | _ -> (v, v)

(* --- (b) identical programs admit and compile alike --- *)

type pair = { a : Ast.program; b : Ast.program; x : float; y : float }

let show_pair d =
  Printf.sprintf "a = %s\nb = %s\nconstant %h / %h" (Pretty.program_to_string d.a)
    (Pretty.program_to_string d.b) d.x d.y

let gen_pair rng =
  let base = if Rng.bool rng then Ast_gen.program rng else Ast_gen.well_typed_program rng in
  let cs = consts base in
  if Array.length cs = 0 then { a = base; b = map_consts (fun _ c -> c) base; x = 0.0; y = 0.0 }
  else begin
    let k = Rng.int rng (Array.length cs) in
    let x, y = const_pair rng cs.(k) in
    { a = set_const base k x; b = set_const base k y; x; y }
  end

(* The compiled program holds only ints, floats, strings and arrays of
   them; marshalling without sharing compares it bit for bit. *)
let compiled_bits cp = Marshal.to_string (cp : Compile.program) [ Marshal.No_sharing ]

let prop_identical_admits_and_compiles_alike =
  Prop.test_case ~cases:500 ~name:"identical programs admit and compile alike" ~gen:gen_pair
    ~show:show_pair (fun d ->
      Prop.require "identical_program = constants equal as bits"
        (Ast.identical_program d.a d.b = (bits d.x = bits d.y));
      Prop.require "equal_program = constants equal as numbers"
        (Ast.equal_program d.a d.b = Float.equal d.x d.y);
      Prop.require "identical_program is reflexive on a rebuilt copy"
        (Ast.identical_program d.a (map_consts (fun _ c -> c) d.a));
      if Ast.identical_program d.a d.b then begin
        if Limits.admit d.a <> Limits.admit d.b then Prop.fail "admission verdicts differ";
        match (Compile.compile d.a, Compile.compile d.b) with
        | Ok ca, Ok cb ->
          Prop.require "compiled code bitwise equal" (compiled_bits ca = compiled_bits cb)
        | Error ea, Error eb -> Prop.check_eq ~what:"compile error" Fun.id ea eb
        | Ok _, Error e | Error e, Ok _ -> Prop.fail "only one compiles: %s" e
      end)

(* --- (c) a reused machine computes what a fresh one does --- *)

type machine_case = {
  program : Ast.program;
  flows : float array array;  (* one flow table per refresh, cycled *)
  pkts : float array array;
  garbage : float array;
}

let nasty = [| nan; nan_a; infinity; neg_infinity; -0.0; 1e308; -1e308; 4.9e-324 |]

let gen_cell rng =
  match Rng.int rng 4 with
  | 0 -> nasty.(Rng.int rng (Array.length nasty))
  | 1 -> -.Rng.float rng 1e6
  | _ -> Rng.float rng 1e7

let gen_machine_case rng =
  let program = Ast_gen.well_typed_program rng in
  let table n = Array.init n (fun _ -> gen_cell rng) in
  {
    program;
    flows = Array.init (1 + Rng.int rng 4) (fun _ -> table Compile.flow_var_count);
    pkts = Array.init (Rng.int rng 12) (fun _ -> table Compile.pkt_field_count);
    garbage = table 64;
  }

let show_machine_case c =
  Printf.sprintf "%s\n%d flow tables, %d packets" (Pretty.program_to_string c.program)
    (Array.length c.flows) (Array.length c.pkts)

(* Drive every primitive of [cp] once on [m] the way [Ccp_ext] does:
   flow slots refreshed by mask before code that reads them (from the
   next flow table each time), every packet slot written before a fold
   step or vector row. Returns every observable value as bits, and the
   incident counts. *)
let drive (c : machine_case) cp (m : Compile.machine) =
  let incidents = Eval.fresh_counter () in
  let out = ref [] in
  let emit v = out := bits v :: !out in
  let next_table = ref 0 in
  let refresh_flow mask =
    let table = c.flows.(!next_table mod Array.length c.flows) in
    incr next_table;
    Array.iteri (fun i v -> if mask land (1 lsl i) <> 0 then m.Compile.flow.(i) <- v) table
  in
  let refresh_pkt pkt = Array.blit pkt 0 m.Compile.pkt 0 Compile.pkt_field_count in
  let emit_fold fold = Array.iter (fun (_, v) -> emit v) (Compile.Fold.fields fold) in
  Array.iter
    (function
      | Compile.Rate code | Compile.Cwnd code | Compile.Wait code | Compile.Wait_rtts code ->
        refresh_flow code.Compile.flow_mask;
        Compile.exec code ~m ~slots:Compile.no_slots ~incidents;
        emit m.Compile.stack.(0)
      | Compile.Report -> ()
      | Compile.Measure_vector { col_idx; _ } ->
        Array.iter
          (fun pkt ->
            refresh_pkt pkt;
            Array.iter (fun i -> emit m.Compile.pkt.(i)) col_idx)
          c.pkts
      | Compile.Measure_fold plan ->
        refresh_flow (Compile.Fold.init_flow_mask plan);
        let fold = Compile.Fold.create plan ~m in
        emit_fold fold;
        Array.iter
          (fun pkt ->
            refresh_flow (Compile.Fold.step_flow_mask plan);
            refresh_pkt pkt;
            Compile.Fold.step fold ~m ~incidents;
            emit_fold fold)
          c.pkts;
        refresh_flow (Compile.Fold.init_flow_mask plan);
        Compile.Fold.reset fold ~m;
        emit_fold fold)
    cp.Compile.prims;
  (List.rev !out, (incidents.Eval.div_by_zero, incidents.Eval.non_finite))

let prop_reused_machine_matches_fresh =
  Prop.test_case ~cases:500 ~name:"garbage-filled machine = fresh machine"
    ~gen:gen_machine_case ~show:show_machine_case (fun c ->
      match Compile.compile c.program with
      | Error msg -> Prop.fail "admitted program failed to compile: %s" msg
      | Ok cp ->
        let fresh = Compile.machine_for cp in
        let used = Compile.machine_for cp in
        let fill a =
          Array.iteri (fun i _ -> a.(i) <- c.garbage.(i mod Array.length c.garbage)) a
        in
        fill used.Compile.stack;
        fill used.Compile.flow;
        fill used.Compile.pkt;
        let values_fresh, incidents_fresh = drive c cp fresh in
        let values_used, incidents_used = drive c cp used in
        Prop.require "same values, bit for bit" (values_fresh = values_used);
        Prop.require "same incident counts" (incidents_fresh = incidents_used))

(* --- (d) install sequences against direct admission --- *)

(* A benign fold program with three constant slots. [z] is reported
   as initialised (a NaN init is clamped to 0.0 uncounted, like any
   init-time incident); the window and wait stay inside the guard
   envelope, so it never scores an incident. *)
let benign ~z ~cwnd ~rtts =
  Ast.program
    [
      Ast.Measure
        (Ast.Fold
           {
             Ast.init = [ ("z", Ast.Const z); ("acked", Ast.Const 0.0) ];
             update =
               [
                 ("acked", Ast.Bin (Ast.Add, Ast.Var "acked", Ast.Pkt "bytes_acked"));
                 ("z", Ast.Var "z");
               ];
           });
      Ast.Cwnd (Ast.Const cwnd);
      Ast.Wait_rtts (Ast.Const rtts);
      Ast.Report;
    ]

type step_kind = Benign | Repeat | Flip_zero | Swap_nan | One_constant | Invalid | Hostile

type step = { kind : step_kind; program : Ast.program; run_ms : int }

let rec deep n e = if n = 0 then e else deep (n - 1) (Ast.Neg e)

(* Each is rejected by admission. *)
let invalid_programs =
  [|
    Ast.program [ Ast.Cwnd (Ast.Var "bogus"); Ast.Wait_rtts (Ast.Const 1.0); Ast.Report ];
    Ast.program
      [
        Ast.Measure
          (Ast.Fold
             { Ast.init = [ ("x", Ast.Const 0.0); ("x", Ast.Const 1.0) ]; update = [] });
        Ast.Wait_rtts (Ast.Const 1.0);
        Ast.Report;
      ];
    Ast.program [ Ast.Cwnd (Ast.Const 20_000.0); Ast.Wait (Ast.Const 50.0); Ast.Report ];
    Ast.program
      [ Ast.Cwnd (deep 40 (Ast.Const 20_000.0)); Ast.Wait_rtts (Ast.Const 1.0); Ast.Report ];
  |]

(* Computes a window below the 1-segment floor on every pass: one
   incident per RTT, quarantined at the second. *)
let hostile = Ast.program [ Ast.Cwnd (Ast.Const 0.0); Ast.Wait_rtts (Ast.Const 1.0); Ast.Report ]

let gen_sequence rng =
  let z () = [| 0.0; -0.0; nan_a; nan_b; 1.5 |].(Rng.int rng 5) in
  let fresh_benign () =
    benign ~z:(z ())
      ~cwnd:(20_000.0 +. float_of_int (Rng.int rng 2))
      ~rtts:(Prop.choose rng [ 1.0; 0.5 ])
  in
  let rec steps n prev acc =
    if n = 0 then List.rev acc
    else
      let kind =
        Prop.choose rng
          [
            Benign; Repeat; Repeat; Repeat; Flip_zero; Swap_nan; One_constant; Invalid; Hostile;
          ]
      in
      let with_first_const f = set_const prev 0 (f (consts prev).(0)) in
      let program =
        match kind with
        | Benign -> fresh_benign ()
        | Repeat -> map_consts (fun _ c -> c) prev
        | Flip_zero -> with_first_const (fun z -> if bits z = bits 0.0 then -0.0 else 0.0)
        | Swap_nan -> with_first_const (fun z -> if bits z = bits nan_a then nan_b else nan_a)
        | One_constant ->
          let k = Rng.int rng (Array.length (consts prev)) in
          set_const prev k (Float.succ (consts prev).(k))
        | Invalid -> invalid_programs.(Rng.int rng (Array.length invalid_programs))
        | Hostile -> hostile
      in
      (* Mutations apply to the last benign program, so a sequence keeps
         revisiting near-identical variants of it. *)
      let prev = match kind with Invalid | Hostile -> prev | _ -> program in
      let step = { kind; program; run_ms = Prop.choose rng [ 1; 12; 25 ] } in
      steps (n - 1) prev (step :: acc)
  in
  let first = fresh_benign () in
  steps (4 + Rng.int rng 16) first []

let show_kind = function
  | Benign -> "benign"
  | Repeat -> "repeat"
  | Flip_zero -> "flip-zero"
  | Swap_nan -> "swap-nan"
  | One_constant -> "one-constant"
  | Invalid -> "invalid"
  | Hostile -> "hostile"

let show_sequence steps =
  String.concat "\n"
    (List.map
       (fun st ->
         Printf.sprintf "%-12s %2d ms  %s" (show_kind st.kind) st.run_ms
           (Pretty.program_to_string st.program))
       steps)

let reinstall_config =
  {
    Ccp_ext.default_config with
    guard =
      {
        Ccp_ext.default_guard with
        Ccp_ext.quarantine_after = 2;
        quarantine_mode = Some (Ccp_ext.Clamp { cwnd_segments = 2 });
      };
  }

(* What the datapath must answer, computed without it. *)
let expected_verdict program =
  match Limits.admit program with
  | Error (reason, detail) -> Message.Rejected { reason; detail }
  | Ok () -> (
    match Compile.compile program with
    | Ok _ -> Message.Accepted
    | Error detail -> Message.Rejected { reason = Limits.Invalid_program; detail })

let show_verdict = function
  | Message.Accepted -> "accepted"
  | Message.Rejected { reason; detail } ->
    Printf.sprintf "rejected %s: %s" (Limits.reason_to_string reason) detail

(* The fold's reported [z]: a NaN init is clamped to 0.0. *)
let reported_z program =
  match program.Ast.prims with
  | Ast.Measure (Ast.Fold { Ast.init = ("z", Ast.Const z) :: _; _ }) :: _ ->
    Some (if Float.is_nan z then 0.0 else z)
  | _ -> None

let prop_install_sequences_match_direct_admission =
  Prop.test_case ~cases:150 ~name:"install sequences = direct admission" ~gen:gen_sequence
    ~show:show_sequence (fun steps ->
      let env = make_env ~config:reinstall_config () in
      let accepted = ref 0 and rejected = ref 0 in
      let running = ref None in
      List.iteri
        (fun i st ->
          let what fmt = Printf.sprintf ("step %d: " ^^ fmt) i in
          env.to_agent := [];
          install env st.program;
          run_for env (Time_ns.ms st.run_ms);
          let verdicts =
            List.filter_map
              (function Message.Install_result r -> Some r.Message.verdict | _ -> None)
              !(env.to_agent)
          in
          let expected = expected_verdict st.program in
          (match verdicts with
          | [ v ] -> Prop.check_eq ~what:(what "verdict") show_verdict expected v
          | vs -> Prop.fail "step %d: %d Install_results" i (List.length vs));
          (match expected with
          | Message.Accepted ->
            incr accepted;
            running := Some st.program
          | Message.Rejected _ -> incr rejected);
          if Ccp_ext.in_quarantine env.ext ~flow then running := None;
          Prop.check_eq ~what:(what "installs_accepted") string_of_int !accepted
            (Ccp_ext.installs_accepted env.ext);
          Prop.check_eq ~what:(what "installs_rejected") string_of_int !rejected
            (Ccp_ext.installs_rejected env.ext);
          (match (!running, Ccp_ext.installed_program env.ext ~flow) with
          | Some want, Some have ->
            Prop.require (what "installed program is bit-identical to the last accepted")
              (Ast.identical_program want have)
          | None, None -> ()
          | Some _, None -> Prop.fail "step %d: nothing installed" i
          | None, Some _ -> Prop.fail "step %d: a program survived quarantine" i);
          Prop.require (what "compiled program agrees with installed_program")
            (Ccp_ext.has_compiled_program env.ext ~flow
            = (Ccp_ext.installed_program env.ext ~flow <> None));
          (* A report one RTT after the install comes from the running
             program, whether this install hit, missed or was refused. *)
          match Option.bind !running reported_z with
          | Some z when st.run_ms >= 12 -> (
            match Option.bind (last_report env) (fun r -> report_field r "z") with
            | Some v ->
              Prop.check_eq ~what:(what "reported z bits") (Printf.sprintf "%Lx") (bits z)
                (bits v)
            | None -> Prop.fail "step %d: no report from the running program" i)
          | _ -> ())
        steps)

(* --- (e) installs matched against the running program --- *)

(* Rename the first name [p] mentions (a variable, packet field, builtin
   or fold field); [None] if it mentions none. *)
let rename_first (p : Ast.program) =
  let done_ = ref false in
  let name n =
    if !done_ then n
    else begin
      done_ := true;
      n ^ "_"
    end
  in
  let rec expr = function
    | Ast.Const _ as e -> e
    | Ast.Var n -> Ast.Var (name n)
    | Ast.Pkt n -> Ast.Pkt (name n)
    | Ast.Bin (op, l, r) ->
      let l = expr l in
      Ast.Bin (op, l, expr r)
    | Ast.Neg e -> Ast.Neg (expr e)
    | Ast.Call (n, args) ->
      let n = name n in
      Ast.Call (n, List.map expr args)
  in
  let bindings = List.map (fun (n, e) -> let n = name n in (n, expr e)) in
  let prim = function
    | Ast.Measure (Ast.Fold d) ->
      let init = bindings d.Ast.init in
      Ast.Measure (Ast.Fold { Ast.init; update = bindings d.Ast.update })
    | Ast.Measure (Ast.Vector fields) -> Ast.Measure (Ast.Vector (List.map name fields))
    | Ast.Rate e -> Ast.Rate (expr e)
    | Ast.Cwnd e -> Ast.Cwnd (expr e)
    | Ast.Wait e -> Ast.Wait (expr e)
    | Ast.Wait_rtts e -> Ast.Wait_rtts (expr e)
    | Ast.Report -> Ast.Report
  in
  let q = Ast.program ~repeat:p.Ast.repeat (List.map prim p.Ast.prims) in
  if !done_ then Some q else None

type match_case = { p : Ast.program; q : Ast.program; variant : string; cut : int; flip : int }

(* A datapath only ever runs a program it decoded, so [p] is one the
   decoder accepts; [q] may be anything. *)
let rec decodable rng =
  let p = if Rng.bool rng then Ast_gen.program rng else Ast_gen.well_typed_program rng in
  match Codec.decode_program (Codec.encode_program p) with
  | _ -> p
  | exception (Codec.Decode_error _ | Wire.Reader.Truncated | Wire.Reader.Malformed _) ->
    decodable rng

let gen_match_case rng =
  let program rng = if Rng.bool rng then Ast_gen.program rng else Ast_gen.well_typed_program rng in
  let p = decodable rng in
  let unrelated () = ("unrelated", program rng) in
  let variant, q =
    match Rng.int rng 5 with
    | 0 -> ("itself", p)
    | 1 -> ("rebuilt copy", map_consts (fun _ c -> c) p)
    | 2 -> (
      let cs = consts p in
      if Array.length cs = 0 then unrelated ()
      else
        let k = Rng.int rng (Array.length cs) in
        let flipped = Int64.float_of_bits (Int64.logxor (bits cs.(k)) (Int64.shift_left 1L (Rng.int rng 64))) in
        ("one constant's bits", set_const p k flipped))
    | 3 -> ( match rename_first p with Some q -> ("one name", q) | None -> unrelated ())
    | _ -> unrelated ()
  in
  { p; q; variant; cut = Rng.int rng 1_000_000; flip = Rng.int rng 1_000_000 }

let show_match_case c =
  Printf.sprintf "%s\np = %s\nq = %s" c.variant (Pretty.program_to_string c.p)
    (Pretty.program_to_string c.q)

(* A channel whose datapath end runs [p] on flow 1, as [Ccp_ext]
   registers it, and records what it is handed. *)
let matching_channel p =
  let sim = Sim.create () in
  let channel = Channel.create ~sim ~latency:(Latency_model.Constant (Time_ns.us 20)) () in
  let got = ref [] in
  Channel.on_receive channel Channel.Datapath_end (fun m -> got := m :: !got);
  let running = Some { Codec.bytes = Codec.encode_program p; program = p } in
  Channel.match_installs channel
    ~kept:(fun () -> None)
    (fun f -> if f = flow then running else None);
  (channel, got)

let prop_install_matched_against_running =
  Prop.test_case ~cases:500 ~name:"installs matched against the running program"
    ~gen:gen_match_case ~show:show_match_case (fun c ->
      let channel, got = matching_channel c.p in
      let deliver frame =
        got := [];
        Channel.deliver_raw channel ~toward:Channel.Datapath_end frame;
        !got
      in
      let failures () = Channel.decode_failures channel in
      let frame = Codec.encode (Message.Install { flow; program = c.q }) in
      let plain_q = match Codec.decode frame with m -> Some m | exception _ -> None in
      (match (deliver frame, plain_q) with
      | [ Message.Install { flow = 1; program } ], Some (Message.Install plain) ->
        Prop.require "identical to a plain decode" (Ast.identical_program program plain.program);
        Prop.require "physically p exactly when identical_program p q"
          (program == c.p = Ast.identical_program c.p c.q)
      | [], None -> Prop.require "q fails to decode, as plainly" (failures () = 1)
      | _, _ -> Prop.fail "delivery of q disagrees with a plain decode");
      (* Another flow has no running program: always a fresh decode. *)
      (match deliver (Codec.encode (Message.Install { flow = 2; program = c.q })) with
      | [ Message.Install { program; _ } ] -> Prop.require "no match on flow 2" (program != c.p)
      | [] -> Prop.require "q fails to decode on flow 2 too" (plain_q = None)
      | _ -> Prop.fail "more than one message for flow 2");
      let p_frame = Codec.encode (Message.Install { flow; program = c.p }) in
      (* A truncated copy of p's frame never decodes. *)
      let before = failures () in
      let cut = c.cut mod String.length p_frame in
      Prop.require "truncated: nothing delivered" (deliver (String.sub p_frame 0 cut) = []);
      Prop.check_eq ~what:"truncated: one decode failure" string_of_int (before + 1) (failures ());
      (* Nor does one with a trailing byte that is no trace block. *)
      Prop.require "trailing garbage: nothing delivered" (deliver (p_frame ^ "\007") = []);
      Prop.check_eq ~what:"trailing garbage: one more failure" string_of_int (before + 2)
        (failures ());
      (* A flipped byte decodes as a plain decode would, never to p. *)
      let i = c.flip mod String.length p_frame in
      let corrupt =
        String.mapi (fun j ch -> if j = i then Char.chr (Char.code ch lxor 0x5a) else ch) p_frame
      in
      let plain = match Codec.decode_traced corrupt with m -> Some m | exception _ -> None in
      match (deliver corrupt, plain) with
      | [], None ->
        Prop.check_eq ~what:"corrupt: one more failure" string_of_int (before + 3) (failures ())
      | [ m ], Some (expected, _) ->
        Prop.require "corrupt: decodes as a plain decode" (Message.equal m expected);
        (match m with
        | Message.Install { program; _ } -> Prop.require "corrupt: never p" (program != c.p)
        | _ -> ())
      | _, _ -> Prop.fail "corrupt: delivery disagrees with a plain decode")

(* --- (f) the agent's once-encoded Install frame --- *)

type frame_case = { program : Ast.program; frame_flow : int; span : int }

let gen_frame_case rng =
  {
    program = (if Rng.bool rng then Ast_gen.program rng else Ast_gen.well_typed_program rng);
    frame_flow = Rng.int rng (1 lsl (7 * Rng.int rng 5));
    span = (match Rng.int rng 3 with 0 -> Message.no_trace | 1 -> Rng.int rng 1024 | _ -> Rng.int rng max_int);
  }

let show_frame_case c =
  Printf.sprintf "flow %d span %d\n%s" c.frame_flow c.span (Pretty.program_to_string c.program)

let prop_preencoded_install_bytes =
  Prop.test_case ~cases:500 ~name:"pre-encoded Install = encode_traced" ~gen:gen_frame_case
    ~show:show_frame_case (fun c ->
      let msg = Message.Install { flow = c.frame_flow; program = c.program } in
      Prop.check_eq ~what:"wire bytes" String.escaped
        (Codec.encode_traced ~span:c.span msg)
        (Codec.with_trace ~span:c.span (Codec.encode msg)))

(* --- repeats skip the work --- *)

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let reno = Ccp_algorithms.Prog.window_program ~cwnd:20_000 ()

let test_repeat_frame_skips_admission () =
  let env = make_env () in
  let frame program = Codec.encode (Message.Install { flow; program }) in
  let deliver frame =
    minor_words (fun () -> Channel.deliver_raw env.channel ~toward:Channel.Datapath_end frame)
  in
  (* Warm the channel and the flow on a different program, so the
     measured pair differs only in hit versus miss. *)
  ignore (deliver (frame (Ccp_algorithms.Prog.window_program ~cwnd:30_000 ())) : float);
  run_for env (Time_ns.us 100);
  let reno_frame = frame reno in
  let first = deliver reno_frame in
  run_for env (Time_ns.us 100);
  let running = Ccp_ext.installed_program env.ext ~flow in
  let repeat = deliver reno_frame in
  run_for env (Time_ns.us 100);
  Alcotest.(check int) "all accepted" 3 (Ccp_ext.installs_accepted env.ext);
  if first -. repeat < 2000.0 then
    Alcotest.failf
      "repeat Install allocated %.0f minor words against %.0f for the first: admission and \
       compile were not skipped"
      repeat first;
  (* The frame is matched against the running program's bytes, so the
     whole repeat delivery, restart included, allocates less than
     decoding the program's AST alone would. *)
  let decode = minor_words (fun () -> ignore (Codec.decode reno_frame : Message.t)) in
  if repeat >= decode then
    Alcotest.failf "repeat Install allocated %.0f minor words; decoding its AST alone takes %.0f"
      repeat decode;
  match (running, Ccp_ext.installed_program env.ext ~flow) with
  | Some before, Some after ->
    Alcotest.(check bool) "the running AST is kept" true (before == after)
  | _ -> Alcotest.fail "nothing installed"

(* An algorithm that hands its handle out. *)
let capture_handle () =
  let handle = ref None in
  let algorithm =
    {
      Ccp_agent.Algorithm.name = "capture";
      make =
        (fun h ->
          handle := Some h;
          Ccp_agent.Algorithm.no_op_handlers);
    }
  in
  let sim = Sim.create () in
  let channel = Channel.create ~sim ~latency:(Latency_model.Constant (Time_ns.us 20)) () in
  Channel.on_receive channel Channel.Datapath_end ignore;
  let agent = Ccp_agent.Agent.create ~sim ~channel ~choose:(fun _ -> algorithm) () in
  Channel.send channel ~from:Channel.Datapath_end
    (Message.Ready { flow; mss = 1448; init_cwnd = 14_480 });
  Sim.run sim;
  match !handle with
  | Some h -> (sim, agent, h)
  | None -> Alcotest.fail "algorithm never instantiated"

let test_repeat_handle_install_skips_typecheck () =
  let sim, agent, h = capture_handle () in
  let install p =
    let words = minor_words (fun () -> h.Ccp_agent.Algorithm.install p) in
    Sim.run sim;
    words
  in
  ignore (install (Ccp_algorithms.Prog.window_program ~cwnd:30_000 ()) : float);
  let first = install reno in
  let repeat = install (map_consts (fun _ c -> c) reno) in
  Alcotest.(check int) "every install sent" 3 (Ccp_agent.Agent.installs_sent agent);
  if first -. repeat < 600.0 then
    Alcotest.failf
      "repeat install allocated %.0f minor words against %.0f for the first: the typecheck \
       was not skipped"
      repeat first;
  let invalid = Ast.program [ Ast.Cwnd (Ast.Const 20_000.0) ] in
  let raises () =
    match h.Ccp_agent.Algorithm.install invalid with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "invalid program raises" true (raises ());
  Alcotest.(check bool) "and raises again" true (raises ());
  Alcotest.(check int) "nothing invalid sent" 3 (Ccp_agent.Agent.installs_sent agent)

(* Through a tracing channel and a policy that rewrites programs, every
   install a handle sends, first or repeat, with or without a running
   span, arrives as the policed program with its span, and costs the
   bytes encoding it afresh would. *)
let test_agent_reinstall_frame () =
  let obs = Ccp_obs.Obs.create ~recorder:false ~tracer:true () in
  let tracer = Ccp_obs.Obs.tracer_exn obs in
  let handle = ref None in
  let algorithm =
    {
      Ccp_agent.Algorithm.name = "capture";
      make =
        (fun h ->
          handle := Some h;
          Ccp_agent.Algorithm.no_op_handlers);
    }
  in
  let sim = Sim.create () in
  let channel = Channel.create ~sim ~latency:(Latency_model.Constant (Time_ns.us 20)) ~obs () in
  let got = ref [] in
  Channel.on_receive channel Channel.Datapath_end (fun m ->
      got := (m, Channel.rx_span channel) :: !got);
  let policy = Ccp_agent.Policy.with_max_rate 1e6 in
  let (_ : Ccp_agent.Agent.t) =
    Ccp_agent.Agent.create ~sim ~channel ~choose:(fun _ -> algorithm) ~policy:(fun _ -> policy)
      ~obs ()
  in
  Channel.send channel ~from:Channel.Datapath_end
    (Message.Ready { flow; mss = 1448; init_cwnd = 14_480 });
  Sim.run sim;
  let h = match !handle with Some h -> h | None -> Alcotest.fail "no handle" in
  let send ~traced program =
    got := [];
    let span =
      if traced then Ccp_obs.Tracer.start tracer ~now:(Sim.now sim) ~flow ~kind:Ccp_obs.Tracer.Report_span
      else Message.no_trace
    in
    let before = Channel.bytes_sent channel Channel.Agent_end in
    if traced then Ccp_obs.Tracer.handler_begin tracer span;
    h.Ccp_agent.Algorithm.install program;
    if traced then Ccp_obs.Tracer.handler_end tracer span ~now:(Sim.now sim);
    Sim.run sim;
    let expected =
      Message.Install { flow; program = Ccp_agent.Policy.apply_program policy program }
    in
    Alcotest.(check int) "bytes on the wire"
      (String.length (Codec.encode_traced ~span expected))
      (Channel.bytes_sent channel Channel.Agent_end - before);
    match !got with
    | [ (m, rx) ] ->
      Alcotest.(check bool) "policed program delivered" true (Message.equal expected m);
      Alcotest.(check int) "span carried" span rx
    | l -> Alcotest.failf "%d messages delivered" (List.length l)
  in
  let rate r = Ast.program [ Ast.Rate (Ast.Const r); Ast.Wait_rtts (Ast.Const 1.0); Ast.Report ] in
  List.iter
    (fun (traced, program) -> send ~traced program)
    [
      (false, rate 2e6); (false, rate 2e6); (true, rate 2e6); (true, rate 3e6); (false, rate 3e6);
      (false, rate 2e6);
    ]

(* --- (g) one admission for the fleet ---

   The datapath keeps the program it admitted last and the agent the
   last program its typecheck passed, for whichever flow: a flow whose
   first install is bit-identical to it shares the verdict and the
   compiled code, with a machine and fold of its own. *)

let reports_of env ~flow =
  List.filter_map
    (function Message.Report r when r.Message.flow = flow -> Some r | _ -> None)
    !(env.to_agent)

(* Through the agent, the channel and the datapath: every flow builds
   its own copy of one program, and the fleet pays one typecheck and one
   admission for all of them. *)
let test_fleet_one_admission () =
  let n = 12 in
  let reports = Array.make (n + 1) 0 in
  let algorithm =
    {
      Ccp_agent.Algorithm.name = "fleet";
      make =
        (fun h ->
          {
            Ccp_agent.Algorithm.no_op_handlers with
            on_ready = (fun () -> h.install (Ccp_algorithms.Prog.measurement_program ()));
            on_report =
              (fun r -> reports.(r.Message.flow) <- reports.(r.Message.flow) + 1);
          });
    }
  in
  let sim = Sim.create () in
  let channel = Channel.create ~sim ~latency:(Latency_model.Constant (Time_ns.us 20)) () in
  let ext = Ccp_ext.create ~sim ~channel () in
  let agent = Ccp_agent.Agent.create ~sim ~channel ~choose:(fun _ -> algorithm) () in
  for f = 1 to n do
    (Ccp_ext.congestion_control ext).Congestion_iface.on_init (fake_ctl sim ~flow:f)
  done;
  Sim.run ~until:(Time_ns.ms 50) sim;
  Alcotest.(check int) "every install sent" n (Ccp_agent.Agent.installs_sent agent);
  Alcotest.(check int) "every install accepted" n (Ccp_ext.installs_accepted ext);
  Alcotest.(check int) "one agent typecheck" 1 (Ccp_agent.Agent.typechecks agent);
  Alcotest.(check int) "one admission" 1 (Ccp_ext.admissions ext);
  for f = 1 to n do
    if reports.(f) < 3 then Alcotest.failf "flow %d sent %d reports in 50 ms" f reports.(f)
  done;
  match Ccp_ext.installed_program ext ~flow:1 with
  | Some first ->
    for f = 2 to n do
      match Ccp_ext.installed_program ext ~flow:f with
      | Some p -> Alcotest.(check bool) "one shared AST" true (p == first)
      | None -> Alcotest.failf "flow %d runs nothing" f
    done
  | None -> Alcotest.fail "flow 1 runs nothing"

(* A later flow's first install, on each side of the channel, costs a
   bounded number of minor words: no typecheck, decode, admission,
   compilation or layout interning. The bounds are about twice what
   this test measured when they were set: 86 words on the agent (the
   flow's own [Install] frame and its send), 100 on the datapath (the
   decoded message, the flow's machine and fold, and its
   [Install_result]). Before the fleet shared one admission, a later
   flow's first install cost 820 words on the agent and 3,262 on the
   datapath. *)
let agent_first_install_bound = 180.0
let datapath_first_install_bound = 200.0

let test_later_first_install_words () =
  (* Agent side: flow 2's handle installs what flow 1's did. *)
  let handles = ref [] in
  let algorithm =
    {
      Ccp_agent.Algorithm.name = "capture";
      make =
        (fun h ->
          handles := h :: !handles;
          Ccp_agent.Algorithm.no_op_handlers);
    }
  in
  let sim = Sim.create () in
  let channel = Channel.create ~sim ~latency:(Latency_model.Constant (Time_ns.us 20)) () in
  Channel.on_receive channel Channel.Datapath_end ignore;
  let agent = Ccp_agent.Agent.create ~sim ~channel ~choose:(fun _ -> algorithm) () in
  List.iter
    (fun f ->
      Channel.send channel ~from:Channel.Datapath_end
        (Message.Ready { flow = f; mss = 1448; init_cwnd = 14_480 }))
    [ 1; 2 ];
  Sim.run sim;
  let program () = Ccp_algorithms.Prog.measurement_program () in
  (match List.rev !handles with
  | [ h1; h2 ] ->
    h1.Ccp_agent.Algorithm.install (program ());
    Sim.run sim;
    let p = program () in
    let words = minor_words (fun () -> h2.Ccp_agent.Algorithm.install p) in
    Sim.run sim;
    Alcotest.(check int) "one typecheck" 1 (Ccp_agent.Agent.typechecks agent);
    if words > agent_first_install_bound then
      Alcotest.failf "agent: a later flow's first install allocated %.0f minor words (bound %.0f)"
        words agent_first_install_bound
  | _ -> Alcotest.fail "two handles expected");
  (* Datapath side: flow 2's first Install frame, after flow 1's. *)
  let env = make_fleet ~n:2 () in
  let deliver f =
    let frame = Codec.encode (Message.Install { flow = f; program = program () }) in
    minor_words (fun () -> Channel.deliver_raw env.channel ~toward:Channel.Datapath_end frame)
  in
  ignore (deliver 1 : float);
  run_for env (Time_ns.us 100);
  let words = deliver 2 in
  run_for env (Time_ns.ms 15);
  Alcotest.(check int) "both accepted" 2 (Ccp_ext.installs_accepted env.ext);
  Alcotest.(check int) "one admission" 1 (Ccp_ext.admissions env.ext);
  if words > datapath_first_install_bound then
    Alcotest.failf
      "datapath: a later flow's first install allocated %.0f minor words (bound %.0f)" words
      datapath_first_install_bound;
  Alcotest.(check bool) "flow 2 reports" true (reports_of env ~flow:2 <> [])

(* Programs that differ in one constant's bits are two programs: each is
   admitted, and each flow reports its own constant. *)
let test_near_programs_admitted_afresh () =
  let env = make_fleet ~n:4 () in
  let z_of ~flow =
    match reports_of env ~flow with
    | r :: _ -> (
      match report_field r "z" with Some v -> bits v | None -> Alcotest.fail "no z field")
    | [] -> Alcotest.failf "flow %d sent no report" flow
  in
  install_on env ~flow:1 (zero_fold 0.0);
  install_on env ~flow:2 (zero_fold (-0.0));
  install_on env ~flow:3 (zero_fold 0.0);
  run_for env (Time_ns.ms 15);
  Alcotest.(check int) "0.0, -0.0, 0.0: three admissions" 3 (Ccp_ext.admissions env.ext);
  Alcotest.(check int64) "flow 1 reports 0.0" (bits 0.0) (z_of ~flow:1);
  Alcotest.(check int64) "flow 2 reports -0.0" (bits (-0.0)) (z_of ~flow:2);
  Alcotest.(check int64) "flow 3 reports 0.0" (bits 0.0) (z_of ~flow:3);
  let p = benign ~z:1.5 ~cwnd:20_000.0 ~rtts:1.0 in
  install_on env ~flow:4 p;
  install_on env ~flow:2 (map_consts (fun _ c -> c) p);
  install_on env ~flow:1 (set_const p 1 (Float.succ 20_000.0));
  run_for env (Time_ns.ms 15);
  Alcotest.(check int) "a rebuilt copy: shared; one constant apart: admitted" 5
    (Ccp_ext.admissions env.ext);
  Alcotest.(check int) "all accepted" 6 (Ccp_ext.installs_accepted env.ext)

(* A program that fails admission is not kept: the next flow's copy is
   admitted and rejected again, and the kept program survives it. *)
let test_rejected_rejected_again () =
  let env = make_fleet ~n:3 () in
  let valid = benign ~z:1.5 ~cwnd:20_000.0 ~rtts:1.0 in
  let invalid = invalid_programs.(2) in
  install_on env ~flow:1 valid;
  install_on env ~flow:2 invalid;
  install_on env ~flow:3 (map_consts (fun _ c -> c) invalid);
  run_for env (Time_ns.ms 1);
  Alcotest.(check int) "rejected on both flows" 2 (Ccp_ext.installs_rejected env.ext);
  Alcotest.(check bool) "nothing runs on flow 3" true
    (Ccp_ext.installed_program env.ext ~flow:3 = None);
  install_on env ~flow:2 (map_consts (fun _ c -> c) valid);
  run_for env (Time_ns.ms 1);
  Alcotest.(check int) "the valid program is still kept" 3 (Ccp_ext.admissions env.ext);
  Alcotest.(check int) "accepted" 2 (Ccp_ext.installs_accepted env.ext);
  (* The agent likewise remembers only a program that passed. *)
  let _, agent, h = capture_handle () in
  let raises p =
    match h.Ccp_agent.Algorithm.install p with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  h.Ccp_agent.Algorithm.install valid;
  Alcotest.(check bool) "invalid raises" true (raises invalid_programs.(0));
  Alcotest.(check bool) "and raises again" true (raises invalid_programs.(0));
  h.Ccp_agent.Algorithm.install (map_consts (fun _ c -> c) valid);
  Alcotest.(check int) "the invalid program checked twice, the valid one once" 3
    (Ccp_agent.Agent.typechecks agent)

(* A quarantine stops the flow's program; the flow's next install of the
   same bytes shares the kept admission and starts a fresh guard window. *)
let test_quarantined_reinstall_fresh_window () =
  let env = make_fleet ~config:reinstall_config ~n:2 () in
  install_on env ~flow:1 hostile;
  run_for env (Time_ns.ms 40);
  Alcotest.(check bool) "flow 1 quarantined" true (Ccp_ext.in_quarantine env.ext ~flow:1);
  let incidents ~flow = Ccp_ext.guard_incidents env.ext ~flow Ccp_ipc.Message.Cwnd_clamped in
  Alcotest.(check int) "two incidents before quarantine" 2 (incidents ~flow:1);
  install_on env ~flow:1 (map_consts (fun _ c -> c) hostile);
  run_for env (Time_ns.us 100);
  Alcotest.(check bool) "re-install accepted" false (Ccp_ext.in_quarantine env.ext ~flow:1);
  Alcotest.(check int) "one admission for both installs" 1 (Ccp_ext.admissions env.ext);
  Alcotest.(check int) "fresh window: only the new program's first incident" 1
    (incidents ~flow:1);
  install_on env ~flow:2 hostile;
  run_for env (Time_ns.us 100);
  Alcotest.(check int) "flow 2 shares it too" 1 (Ccp_ext.admissions env.ext);
  Alcotest.(check int) "flow 2's window is its own" 1 (incidents ~flow:2)

let suite =
  [
    ( "reinstall.shared",
      [
        Alcotest.test_case "a fleet pays one typecheck and one admission" `Quick
          test_fleet_one_admission;
        Alcotest.test_case "a later flow's first install is cheap" `Quick
          test_later_first_install_words;
        Alcotest.test_case "programs a constant apart are admitted afresh" `Quick
          test_near_programs_admitted_afresh;
        Alcotest.test_case "a rejected program is rejected again" `Quick
          test_rejected_rejected_again;
        Alcotest.test_case "a quarantined flow's re-install gets a fresh window" `Quick
          test_quarantined_reinstall_fresh_window;
      ] );
    ( "reinstall",
      [
        Alcotest.test_case "sign of zero survives a re-install" `Quick test_sign_of_zero;
        Alcotest.test_case "repeat Install frame skips admission" `Quick
          test_repeat_frame_skips_admission;
        Alcotest.test_case "repeat handle install skips the typecheck" `Quick
          test_repeat_handle_install_skips_typecheck;
        prop_identical_admits_and_compiles_alike;
        prop_reused_machine_matches_fresh;
        prop_install_sequences_match_direct_admission;
        prop_install_matched_against_running;
        prop_preencoded_install_bytes;
        Alcotest.test_case "agent re-install puts the same frame on the wire" `Quick
          test_agent_reinstall_frame;
      ] );
  ]
