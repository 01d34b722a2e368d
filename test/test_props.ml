(* Property-based tests on the seeded {!Prop} runner (satellite of the
   fault-injection PR): codec round-trips over the full message grammar —
   including Install carrying random control programs, which the qcheck
   generator in test_ipc.ml leaves out — and the datapath fold engine
   checked against an independent reference implementation on random
   measurement vectors. *)

open Ccp_util
open Ccp_lang

(* --- random messages, programs included --- *)

let gen_float rng =
  (* Finite, sign-mixed, spanning a few magnitudes; exact under the codec. *)
  let m = Rng.float rng 1e6 -. 5e5 in
  if Rng.bool rng then m /. 1024.0 else m

let gen_field_name rng =
  Prop.choose rng [ "rtt_us"; "bytes_acked"; "bytes_lost"; "ecn"; "inflight_bytes" ]

let rec gen_expr rng depth =
  if depth = 0 then
    match Rng.int rng 3 with
    | 0 -> Ast.Const (gen_float rng)
    | 1 -> Ast.Var (Prop.choose rng [ "cwnd"; "mss"; "srtt_us"; "minrtt_us" ])
    | _ -> Ast.Pkt (gen_field_name rng)
  else
    match Rng.int rng 4 with
    | 0 ->
        let op = Prop.choose rng [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Div ] in
        Ast.Bin (op, gen_expr rng (depth - 1), gen_expr rng (depth - 1))
    | 1 -> Ast.Neg (gen_expr rng (depth - 1))
    | 2 ->
        let f = Prop.choose rng [ "min"; "max" ] in
        Ast.Call (f, [ gen_expr rng (depth - 1); gen_expr rng (depth - 1) ])
    | _ -> Ast.Const (gen_float rng)

let gen_program rng =
  let gen_prim rng =
    match Rng.int rng 6 with
    | 0 ->
        let fields = Prop.list rng ~min:1 ~max:4 gen_field_name in
        Ast.Measure (Ast.Vector (List.sort_uniq compare fields))
    | 1 ->
        let bindings rng =
          Prop.list rng ~min:1 ~max:3 (fun rng ->
              (Prop.choose rng [ "acked"; "minrtt"; "cnt" ], gen_expr rng 2))
        in
        Ast.Measure
          (Ast.Fold { Ast.init = bindings rng; update = bindings rng })
    | 2 -> Ast.Rate (gen_expr rng 2)
    | 3 -> Ast.Cwnd (gen_expr rng 2)
    | 4 -> Ast.Wait (gen_expr rng 1)
    | _ -> Ast.Wait_rtts (gen_expr rng 1)
  in
  let prims = Prop.list rng ~min:1 ~max:5 gen_prim @ [ Ast.Report ] in
  Ast.program ~repeat:(Rng.bool rng) prims

let gen_message rng : Ccp_ipc.Message.t =
  let flow = Rng.int rng 1_000 in
  match Rng.int rng 10 with
  | 0 ->
      Ccp_ipc.Message.Ready
        { flow; mss = Prop.int_range rng 500 9000; init_cwnd = Rng.int rng 1_000_000 }
  | 1 ->
      let fields =
        Array.of_list
          (Prop.list rng ~min:0 ~max:6 (fun rng -> (gen_field_name rng, gen_float rng)))
      in
      Ccp_ipc.Message.Report
        {
          Ccp_ipc.Message.flow;
          layout = Ccp_ipc.Message.layout (Array.map fst fields);
          values = Array.map snd fields;
        }
  | 2 ->
      let columns = Array.of_list (Prop.list rng ~min:1 ~max:4 gen_field_name) in
      let rows =
        Array.init (Rng.int rng 6) (fun _ ->
            Array.init (Array.length columns) (fun _ -> gen_float rng))
      in
      Ccp_ipc.Message.Report_vector { Ccp_ipc.Message.flow; columns; rows }
  | 3 ->
      Ccp_ipc.Message.Urgent
        {
          Ccp_ipc.Message.flow;
          kind =
            Prop.choose rng
              [ Ccp_ipc.Message.Dup_ack_loss; Ccp_ipc.Message.Timeout; Ccp_ipc.Message.Ecn ];
          cwnd_at_event = Rng.int rng 1_000_000;
          inflight_at_event = Rng.int rng 1_000_000;
        }
  | 4 -> Ccp_ipc.Message.Closed { flow }
  | 5 -> Ccp_ipc.Message.Install { flow; program = gen_program rng }
  | 6 -> Ccp_ipc.Message.Set_cwnd { flow; bytes = Rng.int rng 10_000_000 }
  | 7 -> Ccp_ipc.Message.Set_rate { flow; bytes_per_sec = Float.abs (gen_float rng) }
  | 8 ->
      let verdict =
        if Rng.bool rng then Ccp_ipc.Message.Accepted
        else
          Ccp_ipc.Message.Rejected
            {
              reason = Prop.choose rng Limits.all_reasons;
              detail =
                Prop.choose rng [ ""; "too long"; "Wait(0.05) below floor" ];
            }
      in
      Ccp_ipc.Message.Install_result { flow; verdict }
  | _ ->
      Ccp_ipc.Message.Quarantined
        {
          flow;
          incidents = Rng.int rng 1_000;
          dominant = Prop.choose rng Ccp_ipc.Message.all_incident_kinds;
        }

let prop_codec_roundtrip =
  Prop.test_case ~cases:300 ~name:"codec round-trip (programs included)" ~gen:gen_message
    ~show:Ccp_ipc.Message.describe (fun m ->
      let m' = Ccp_ipc.Codec.decode (Ccp_ipc.Codec.encode m) in
      Prop.require "decode (encode m) = m" (Ccp_ipc.Message.equal m m'))

let prop_encoded_size =
  Prop.test_case ~cases:300 ~name:"encoded_size matches encode" ~gen:gen_message
    ~show:Ccp_ipc.Message.describe (fun m ->
      Prop.check_eq ~what:"encoded_size" string_of_int
        (String.length (Ccp_ipc.Codec.encode m))
        (Ccp_ipc.Codec.encoded_size m))

(* --- fold engine vs a reference implementation --- *)

(* One acked packet's measurements. *)
type pkt = { rtt_us : float; bytes_acked : float }

let show_pkt p = Printf.sprintf "{rtt_us=%g; bytes_acked=%g}" p.rtt_us p.bytes_acked
let show_pkts ps = "[" ^ String.concat "; " (List.map show_pkt ps) ^ "]"

let gen_pkt rng =
  { rtt_us = 100.0 +. Rng.float rng 100_000.0; bytes_acked = float_of_int (Rng.int rng 65_536) }

let flow_env = function
  | "mss" -> Some 1448.0
  | "cwnd" -> Some 14_480.0
  | "minrtt_us" -> Some 20_000.0
  | _ -> None

let pkt_env p = function
  | "rtt_us" -> Some p.rtt_us
  | "bytes_acked" -> Some p.bytes_acked
  | _ -> None

(* The classic report fold (what ccp_agent's Reno/Cubic install), with the
   reference computed by plain OCaml folds over the same vector. The fold
   engine must commit all updates simultaneously, so [prev_rtt] reading
   [last_rtt] in the same update block must see the pre-update value. *)
let fold_def : Ast.fold_def =
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

let reference pkts =
  let acked = List.fold_left (fun a p -> a +. p.bytes_acked) 0.0 pkts in
  let cnt = float_of_int (List.length pkts) in
  let minrtt = List.fold_left (fun a p -> Float.min a p.rtt_us) 20_000.0 pkts in
  let maxrtt = List.fold_left (fun a p -> Float.max a p.rtt_us) 0.0 pkts in
  let last_rtt = match List.rev pkts with [] -> 0.0 | p :: _ -> p.rtt_us in
  let prev_rtt = match List.rev pkts with _ :: p :: _ -> p.rtt_us | _ -> 0.0 in
  [
    ("acked", acked);
    ("cnt", cnt);
    ("minrtt", minrtt);
    ("maxrtt", maxrtt);
    ("last_rtt", last_rtt);
    ("prev_rtt", prev_rtt);
  ]

let prop_fold_matches_reference =
  Prop.test_case ~cases:200 ~name:"fold engine = reference on random vectors"
    ~gen:(fun rng -> Prop.list rng ~min:0 ~max:40 gen_pkt)
    ~show:show_pkts
    (fun pkts ->
      let fold = Fold.create fold_def ~flow_env in
      List.iter (fun p -> Fold.step fold ~flow_env ~pkt_env:(pkt_env p)) pkts;
      Prop.check_eq ~what:"packet_count" string_of_int (List.length pkts)
        (Fold.packet_count fold);
      List.iter2
        (fun (name, expected) (name', actual) ->
          Prop.check_eq ~what:"field name" Fun.id name name';
          Prop.check_eq ~what:(name ^ " value") string_of_float expected actual)
        (reference pkts) (Fold.fields fold))

let prop_fold_reset_replays_init =
  Prop.test_case ~cases:100 ~name:"fold reset replays init"
    ~gen:(fun rng -> Prop.list rng ~min:1 ~max:20 gen_pkt)
    ~show:show_pkts
    (fun pkts ->
      let fold = Fold.create fold_def ~flow_env in
      List.iter (fun p -> Fold.step fold ~flow_env ~pkt_env:(pkt_env p)) pkts;
      Fold.reset fold ~flow_env;
      Prop.check_eq ~what:"count after reset" string_of_int 0 (Fold.packet_count fold);
      List.iter2
        (fun (name, expected) (_, actual) ->
          Prop.check_eq ~what:(name ^ " after reset") string_of_float expected actual)
        (reference []) (Fold.fields fold))

let suite =
  [
    ( "props.codec",
      [ prop_codec_roundtrip; prop_encoded_size ] );
    ( "props.fold",
      [ prop_fold_matches_reference; prop_fold_reset_replays_init ] );
  ]
