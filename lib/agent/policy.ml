open Ccp_lang.Ast

type t = {
  max_rate_bps : float option;
  max_cwnd_bytes : int option;
  min_cwnd_bytes : int option;
}

let unrestricted = { max_rate_bps = None; max_cwnd_bytes = None; min_cwnd_bytes = None }
let with_max_rate cap = { unrestricted with max_rate_bps = Some cap }

let clamp_rate t rate =
  match t.max_rate_bps with Some cap -> Float.min cap rate | None -> rate

let clamp_cwnd t cwnd =
  let cwnd = match t.max_cwnd_bytes with Some cap -> min cap cwnd | None -> cwnd in
  match t.min_cwnd_bytes with Some floor -> max floor cwnd | None -> cwnd

let cap_expr cap e = Call ("min", [ e; Const cap ])
let floor_expr floor e = Call ("max", [ e; Const floor ])

let rewrite_prim t = function
  | Rate e ->
    let e = match t.max_rate_bps with Some cap -> cap_expr cap e | None -> e in
    Rate e
  | Cwnd e ->
    let e =
      match t.max_cwnd_bytes with Some cap -> cap_expr (float_of_int cap) e | None -> e
    in
    let e =
      match t.min_cwnd_bytes with Some f -> floor_expr (float_of_int f) e | None -> e
    in
    Cwnd e
  | (Measure _ | Wait _ | Wait_rtts _ | Report) as prim -> prim

let apply_program t program =
  if t.max_rate_bps = None && t.max_cwnd_bytes = None && t.min_cwnd_bytes = None then program
  else { program with prims = List.map (rewrite_prim t) program.prims }
