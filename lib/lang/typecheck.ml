open Ast

type error = { message : string }
type warning = { message : string }

type ctx = { mutable errors : error list; mutable warnings : warning list }

let err ctx fmt = Format.kasprintf (fun message -> ctx.errors <- { message } :: ctx.errors) fmt
let warn ctx fmt = Format.kasprintf (fun message -> ctx.warnings <- { message } :: ctx.warnings) fmt

(* [state] is the set of declared fold fields when checking inside a fold
   update, [None] elsewhere; [pkt_ok] allows pkt.* references. *)
let rec check_expr ctx ~state ~pkt_ok ~where = function
  | Const _ -> ()
  | Var name ->
    let in_state = match state with Some fields -> List.mem name fields | None -> false in
    if not (in_state || Vars.is_flow_var name) then
      err ctx "%s: unknown variable '%s'" where name
  | Pkt field ->
    if not pkt_ok then err ctx "%s: pkt.%s is only available inside fold updates" where field
    else if not (Vars.is_pkt_field field) then
      err ctx "%s: unknown packet field '%s'" where field
  | Neg e -> check_expr ctx ~state ~pkt_ok ~where e
  | Bin (_, l, r) ->
    check_expr ctx ~state ~pkt_ok ~where l;
    check_expr ctx ~state ~pkt_ok ~where r
  | Call (name, args) -> (
    List.iter (check_expr ctx ~state ~pkt_ok ~where) args;
    match Vars.builtin_arity name with
    | None -> err ctx "%s: unknown function '%s'" where name
    | Some arity ->
      if List.length args <> arity then
        err ctx "%s: '%s' expects %d arguments, got %d" where name arity (List.length args))

let check_duplicates ctx ~where names =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun name ->
      if Hashtbl.mem seen name then err ctx "%s: duplicate field '%s'" where name
      else Hashtbl.add seen name ())
    names

let check_fold ctx (def : fold_def) =
  let declared = List.map fst def.init in
  check_duplicates ctx ~where:"fold init" declared;
  List.iter
    (fun (name, e) ->
      check_expr ctx ~state:None ~pkt_ok:false ~where:(Printf.sprintf "fold init '%s'" name) e)
    def.init;
  List.iter
    (fun (name, e) ->
      if not (List.mem name declared) then
        err ctx "fold update assigns undeclared field '%s'" name;
      check_expr ctx ~state:(Some declared) ~pkt_ok:true
        ~where:(Printf.sprintf "fold update '%s'" name)
        e)
    def.update;
  if def.update = [] then warn ctx "fold has no update bindings; state never changes"

let check_measure ctx = function
  | Vector [] -> err ctx "Measure: vector spec has no fields; it would report nothing"
  | Vector fields ->
    check_duplicates ctx ~where:"Measure" fields;
    List.iter
      (fun f -> if not (Vars.is_pkt_field f) then err ctx "Measure: unknown packet field '%s'" f)
      fields
  | Fold def -> check_fold ctx def

let check_prim ctx = function
  | Measure spec -> check_measure ctx spec
  | Rate e -> check_expr ctx ~state:None ~pkt_ok:false ~where:"Rate" e
  | Cwnd e -> check_expr ctx ~state:None ~pkt_ok:false ~where:"Cwnd" e
  | Wait (Const us) when not (us > 0.0) ->
    err ctx "Wait: duration %g us is not positive; the program would never advance" us
  | Wait e -> check_expr ctx ~state:None ~pkt_ok:false ~where:"Wait" e
  | Wait_rtts (Const rtts) when not (rtts > 0.0) ->
    err ctx "WaitRtts: duration %g RTTs is not positive; the program would never advance" rtts
  | Wait_rtts e -> check_expr ctx ~state:None ~pkt_ok:false ~where:"WaitRtts" e
  | Report -> ()

let check program =
  let ctx = { errors = []; warnings = [] } in
  if program.prims = [] then err ctx "empty program";
  List.iter (check_prim ctx) program.prims;
  let has_wait = List.exists (function Wait _ | Wait_rtts _ -> true | _ -> false) program.prims in
  let has_report = List.exists (( = ) Report) program.prims in
  if program.repeat && not has_wait then
    err ctx "repeating program has no Wait/WaitRtts; it would spin without advancing time";
  if program.repeat && not has_report then
    warn ctx "repeating program never reports; the agent will not hear from this flow";
  (match (program.repeat, List.rev program.prims) with
  | false, last :: _ when last <> Report ->
    warn ctx "Once-program does not end with Report(); trailing state is never sent"
  | _ -> ());
  match ctx.errors with
  | [] -> Ok (List.rev ctx.warnings)
  | errors -> Error (List.rev errors)

let pp_error fmt ({ message } : error) = Format.pp_print_string fmt message
