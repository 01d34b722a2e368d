open Ast

(* The bounds every admitted program stays within. *)
let prim_limit = 256
let depth_limit = 32
let fold_field_limit = 64
let vector_column_limit = 32
let wait_floor_us = 100.0
let wait_floor_rtts = 0.1

type reason =
  | Program_too_long
  | Expr_too_deep
  | Fold_too_large
  | Vector_too_wide
  | Wait_too_short
  | Invalid_program

let all_reasons =
  [
    Program_too_long; Expr_too_deep; Fold_too_large; Vector_too_wide; Wait_too_short;
    Invalid_program;
  ]

let reason_to_string = function
  | Program_too_long -> "program-too-long"
  | Expr_too_deep -> "expr-too-deep"
  | Fold_too_large -> "fold-too-large"
  | Vector_too_wide -> "vector-too-wide"
  | Wait_too_short -> "wait-too-short"
  | Invalid_program -> "invalid-program"

let equal_reason (a : reason) (b : reason) = a = b
let pp_reason fmt r = Format.pp_print_string fmt (reason_to_string r)

let rec expr_depth = function
  | Const _ | Var _ | Pkt _ -> 1
  | Neg e -> 1 + expr_depth e
  | Bin (_, l, r) -> 1 + max (expr_depth l) (expr_depth r)
  | Call (_, args) -> 1 + List.fold_left (fun acc e -> max acc (expr_depth e)) 0 args

let prim_exprs = function
  | Measure (Vector _) -> []
  | Measure (Fold { init; update }) -> List.map snd init @ List.map snd update
  | Rate e | Cwnd e | Wait e | Wait_rtts e -> [ e ]
  | Report -> []

(* Static resource limits only; [admit] combines them with {!Typecheck}.
   The wait floors can only be enforced statically on constant arguments —
   computed waits are the runtime guard envelope's job. *)
let check (program : program) =
  let err reason fmt = Format.kasprintf (fun detail -> Error (reason, detail)) fmt in
  let n = List.length program.prims in
  if n > prim_limit then err Program_too_long "program has %d primitives (limit %d)" n prim_limit
  else
    let rec scan = function
      | [] -> Ok ()
      | prim :: rest -> (
        let too_deep =
          List.find_opt (fun e -> expr_depth e > depth_limit) (prim_exprs prim)
        in
        match (too_deep, prim) with
        | Some e, _ ->
          err Expr_too_deep "expression depth %d exceeds limit %d" (expr_depth e) depth_limit
        | None, Measure (Fold { init; _ }) when List.length init > fold_field_limit ->
          err Fold_too_large "fold declares %d state fields (limit %d)" (List.length init)
            fold_field_limit
        | None, Measure (Vector fields) when List.length fields > vector_column_limit ->
          err Vector_too_wide "vector report has %d columns (limit %d)" (List.length fields)
            vector_column_limit
        | None, Wait (Const us) when us < wait_floor_us ->
          err Wait_too_short "Wait(%g us) is below the %g us floor" us wait_floor_us
        | None, Wait_rtts (Const rtts) when rtts < wait_floor_rtts ->
          err Wait_too_short "WaitRtts(%g) is below the %g RTT floor" rtts wait_floor_rtts
        | None, _ -> scan rest)
    in
    scan program.prims

let admit program =
  match Typecheck.check program with
  | Error (first :: _) ->
    Error (Invalid_program, (first : Typecheck.error).message)
  | Error [] -> Error (Invalid_program, "unknown static error")
  | Ok _warnings -> check program
