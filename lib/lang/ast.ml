type binop = Add | Sub | Mul | Div

type expr =
  | Const of float
  | Var of string
  | Pkt of string
  | Bin of binop * expr * expr
  | Neg of expr
  | Call of string * expr list

type fold_def = {
  init : (string * expr) list;
  update : (string * expr) list;
}

type measure_spec = Vector of string list | Fold of fold_def

type prim =
  | Measure of measure_spec
  | Rate of expr
  | Cwnd of expr
  | Wait of expr
  | Wait_rtts of expr
  | Report

type program = { prims : prim list; repeat : bool }

let program ?(repeat = true) prims = { prims; repeat }

(* One structural traversal, parameterised by the test applied to
   constants: [equal_*] compares them as numbers ([Float.equal], so
   [0.0 = -0.0]), [identical_program] by IEEE bit pattern. The list
   walks are explicit so that comparing allocates nothing. *)
let rec equal_expr_by feq a b =
  match (a, b) with
  | Const x, Const y -> feq x y
  | Var x, Var y | Pkt x, Pkt y -> String.equal x y
  | Bin (op1, l1, r1), Bin (op2, l2, r2) ->
    op1 = op2 && equal_expr_by feq l1 l2 && equal_expr_by feq r1 r2
  | Neg x, Neg y -> equal_expr_by feq x y
  | Call (f, args1), Call (g, args2) -> String.equal f g && equal_args feq args1 args2
  | (Const _ | Var _ | Pkt _ | Bin _ | Neg _ | Call _), _ -> false

and equal_args feq l1 l2 =
  match (l1, l2) with
  | [], [] -> true
  | a :: r1, b :: r2 -> equal_expr_by feq a b && equal_args feq r1 r2
  | _, _ -> false

let rec equal_bindings feq b1 b2 =
  match (b1, b2) with
  | [], [] -> true
  | (n1, e1) :: r1, (n2, e2) :: r2 ->
    String.equal n1 n2 && equal_expr_by feq e1 e2 && equal_bindings feq r1 r2
  | _, _ -> false

let equal_spec feq s1 s2 =
  match (s1, s2) with
  | Vector f1, Vector f2 -> f1 = f2
  | Fold d1, Fold d2 ->
    equal_bindings feq d1.init d2.init && equal_bindings feq d1.update d2.update
  | (Vector _ | Fold _), _ -> false

let equal_prim feq p1 p2 =
  match (p1, p2) with
  | Measure s1, Measure s2 -> equal_spec feq s1 s2
  | Rate e1, Rate e2 | Cwnd e1, Cwnd e2 | Wait e1, Wait e2 | Wait_rtts e1, Wait_rtts e2 ->
    equal_expr_by feq e1 e2
  | Report, Report -> true
  | (Measure _ | Rate _ | Cwnd _ | Wait _ | Wait_rtts _ | Report), _ -> false

let rec equal_prims feq l1 l2 =
  match (l1, l2) with
  | [], [] -> true
  | a :: r1, b :: r2 -> equal_prim feq a b && equal_prims feq r1 r2
  | _, _ -> false

let equal_program_by feq p1 p2 = p1.repeat = p2.repeat && equal_prims feq p1.prims p2.prims
let equal_expr = equal_expr_by Float.equal
let equal_program = equal_program_by Float.equal
let same_bits x y = Int64.bits_of_float x = Int64.bits_of_float y
let identical_program = equal_program_by same_bits

module Vars = struct
  let flow_vars =
    [
      ("cwnd", "congestion window, bytes");
      ("rate", "pacing rate, bytes/second (0 when unset)");
      ("mss", "maximum segment size, bytes");
      ("srtt_us", "smoothed RTT, microseconds");
      ("rtt_us", "latest RTT sample, microseconds");
      ("minrtt_us", "minimum RTT observed, microseconds");
      ("inflight_bytes", "bytes currently unacknowledged");
      ("now_us", "datapath clock, microseconds");
    ]

  let pkt_fields =
    [
      ("rtt_us", "RTT sample of the acknowledged segment, microseconds");
      ("bytes_acked", "bytes newly acknowledged by this ACK");
      ("bytes_lost", "bytes newly declared lost");
      ("ecn", "1.0 if this ACK echoed an ECN mark, else 0.0");
      ("send_rate", "sender throughput sample, bytes/second");
      ("recv_rate", "delivery rate sample, bytes/second");
      ("inflight_bytes", "bytes in flight after this ACK");
      ("now_us", "arrival time of this ACK, microseconds");
    ]

  let builtins =
    [
      ("min", 2); ("max", 2); ("abs", 1); ("sqrt", 1); ("pow", 2);
      ("if_lt", 4); ("if_le", 4); ("if_gt", 4); ("if_ge", 4);
    ]

  let is_flow_var name = List.mem_assoc name flow_vars
  let is_pkt_field name = List.mem_assoc name pkt_fields
  let builtin_arity name = List.assoc_opt name builtins
end
