open Ast

(* Number formatting must survive a parse round-trip: %.17g would be exact
   but ugly; %g loses precision. Use the shortest representation that
   parses back to the same float. *)
let float_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else begin
    let short = Printf.sprintf "%.12g" f in
    if float_of_string short = f then short else Printf.sprintf "%.17g" f
  end

let binop_to_string = function Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/"
let precedence = function Add | Sub -> 1 | Mul | Div -> 2

let rec expr_buf buf ~prec = function
  | Const f ->
    if f < 0.0 then Buffer.add_string buf (Printf.sprintf "(%s)" (float_to_string f))
    else Buffer.add_string buf (float_to_string f)
  | Var name -> Buffer.add_string buf name
  | Pkt field ->
    Buffer.add_string buf "pkt.";
    Buffer.add_string buf field
  | Neg e ->
    Buffer.add_string buf "(-";
    expr_buf buf ~prec:3 e;
    Buffer.add_char buf ')'
  | Bin (op, l, r) ->
    let p = precedence op in
    let need_parens = p < prec in
    if need_parens then Buffer.add_char buf '(';
    expr_buf buf ~prec:p l;
    Buffer.add_char buf ' ';
    Buffer.add_string buf (binop_to_string op);
    Buffer.add_char buf ' ';
    (* Right operand needs parens at equal precedence: a - (b - c). *)
    expr_buf buf ~prec:(p + 1) r;
    if need_parens then Buffer.add_char buf ')'
  | Call (name, args) ->
    Buffer.add_string buf name;
    Buffer.add_char buf '(';
    List.iteri
      (fun i arg ->
        if i > 0 then Buffer.add_string buf ", ";
        expr_buf buf ~prec:0 arg)
      args;
    Buffer.add_char buf ')'

let bindings_buf buf bindings =
  List.iteri
    (fun i (name, e) ->
      if i > 0 then Buffer.add_string buf "; ";
      Buffer.add_string buf name;
      Buffer.add_string buf " = ";
      expr_buf buf ~prec:0 e)
    bindings

let spec_buf buf = function
  | Vector fields -> Buffer.add_string buf (String.concat ", " fields)
  | Fold def ->
    Buffer.add_string buf "fold { init { ";
    bindings_buf buf def.init;
    Buffer.add_string buf " } update { ";
    bindings_buf buf def.update;
    Buffer.add_string buf " } }"

let prim_buf buf = function
  | Measure spec ->
    Buffer.add_string buf "Measure(";
    spec_buf buf spec;
    Buffer.add_char buf ')'
  | Rate e ->
    Buffer.add_string buf "Rate(";
    expr_buf buf ~prec:0 e;
    Buffer.add_char buf ')'
  | Cwnd e ->
    Buffer.add_string buf "Cwnd(";
    expr_buf buf ~prec:0 e;
    Buffer.add_char buf ')'
  | Wait e ->
    Buffer.add_string buf "Wait(";
    expr_buf buf ~prec:0 e;
    Buffer.add_char buf ')'
  | Wait_rtts e ->
    Buffer.add_string buf "WaitRtts(";
    expr_buf buf ~prec:0 e;
    Buffer.add_char buf ')'
  | Report -> Buffer.add_string buf "Report()"

let program_to_string program =
  let buf = Buffer.create 256 in
  List.iteri
    (fun i prim ->
      if i > 0 then Buffer.add_char buf '.';
      prim_buf buf prim)
    program.prims;
  if not program.repeat then Buffer.add_string buf ".Once()";
  Buffer.contents buf
