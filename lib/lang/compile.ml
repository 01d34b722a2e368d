(* Install-time compiler for control programs: names become integer
   slots, expression trees become flat postfix instruction arrays, and
   the per-ACK path executes them over preallocated float arrays with
   zero minor-heap allocation. The {!Eval}/{!Fold} interpreter remains
   the reference semantics; [equivalent] keeps the two bit-identical. *)

(* The interpreter fold, needed by [equivalent] after our own [Fold]
   submodule shadows the name. *)
module Interp_fold = Fold

(* --- slot spaces --- *)

let flow_names = Array.of_list (List.map fst Ast.Vars.flow_vars)
let pkt_names = Array.of_list (List.map fst Ast.Vars.pkt_fields)
let flow_var_count = Array.length flow_names
let pkt_field_count = Array.length pkt_names

let index_in names name =
  let rec find i =
    if i >= Array.length names then None
    else if String.equal names.(i) name then Some i
    else find (i + 1)
  in
  find 0

let flow_index name = index_in flow_names name
let pkt_index name = index_in pkt_names name

let index_exn what index name =
  match index name with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Compile.%s_index_exn: unknown name %S" what name)

let flow_index_exn name = index_exn "flow" flow_index name
let pkt_index_exn name = index_exn "pkt" pkt_index name

(* --- compiled code ---

   Packed instruction word: bits 0-4 opcode, bits 5-24 the result's
   operand-stack index (dst), bits 25+ the operand index (constant-pool
   or slot-table index for the load opcodes, unused otherwise). *)

let op_const = 0
let op_load_slot = 1
let op_load_flow = 2
let op_load_pkt = 3
let op_add = 4
let op_sub = 5
let op_mul = 6
let op_div = 7
let op_neg = 8
let op_min = 9
let op_max = 10
let op_abs = 11
let op_sqrt = 12
let op_pow = 13
let op_if_lt = 14
let op_if_le = 15
let op_if_gt = 16
let op_if_ge = 17

let op_const_nonfinite = 18
(* A non-finite literal, classified at compile time: the interpreter's
   per-node clamp turns it into 0.0 and counts a [non_finite] incident
   on every evaluation, so the opcode does exactly that with no
   constant pool entry. *)

let pack op ~dst ~arg = op lor (dst lsl 5) lor (arg lsl 25)

type code = { ops : int array; consts : float array; max_stack : int; flow_mask : int }

type machine = {
  stack : float array;
  flow : float array;
  pkt : float array;
}

let no_slots : float array = [||]

(* --- execution ---

   The loop is written for the per-ACK fast path: no closures, no refs,
   no float-returning helper calls (each would box its result without
   flambda). Finiteness is tested as [v -. v = 0.0] — exactly
   [Float.is_finite]'s definition — and min/max hand-inline the stdlib
   [Float.min]/[Float.max] bodies so results stay bit-identical to the
   interpreter while the floats stay in registers.

   There is no run-time stack pointer: the stack discipline is fully
   static, so each packed word carries its result index (dst) —
   instruction [i] reads its operands at [dst .. dst+arity-1] and
   writes [dst]. Accesses are unchecked: the emitter tracks the exact
   depth of every instruction (the [assert (em.cur = 1)] in
   [compile_expr]) and [machine_for] sizes the stack to the verified
   peak, so every index below is in bounds by construction; slot and
   constant-pool indices were validated/assigned at compile time. *)

let[@inline always] get (a : float array) i = Array.unsafe_get a i
let[@inline always] set (a : float array) i v = Array.unsafe_set a i v

let exec code ~(m : machine) ~(slots : float array)
    ~(incidents : Eval.incident_counter) =
  let stack = m.stack and flow = m.flow and pkt = m.pkt in
  let ops = code.ops and consts = code.consts in
  (* [fin] mirrors [Eval]'s per-node clamp: a non-finite result
     collapses to 0.0 and counts. It is inlined only into the opcodes
     that can produce a non-finite value from finite operands — loads
     from the external flow/pkt tables, add/sub/mul/div/pow — which
     provably cannot change incident counts: every other opcode maps
     finite inputs to finite outputs (slot loads read post-clamp
     state, sqrt is negative-guarded, min/max/if select an operand),
     so the interpreter's clamp never fires there either. *)
  for i = 0 to Array.length ops - 1 do
    let w = Array.unsafe_get ops i in
    let dst = (w lsr 5) land 0xFFFFF in
    match w land 0x1F with
    | 0 (* const, finite *) -> set stack dst (get consts (w lsr 25))
    | 1 (* load_slot *) -> set stack dst (get slots (w lsr 25))
    | 2 (* load_flow *) ->
      let v = get flow (w lsr 25) in
      if v -. v = 0.0 then set stack dst v
      else begin
        incidents.Eval.non_finite <- incidents.Eval.non_finite + 1;
        set stack dst 0.0
      end
    | 3 (* load_pkt *) ->
      let v = get pkt (w lsr 25) in
      if v -. v = 0.0 then set stack dst v
      else begin
        incidents.Eval.non_finite <- incidents.Eval.non_finite + 1;
        set stack dst 0.0
      end
    | 4 (* add *) ->
      let v = get stack dst +. get stack (dst + 1) in
      if v -. v = 0.0 then set stack dst v
      else begin
        incidents.Eval.non_finite <- incidents.Eval.non_finite + 1;
        set stack dst 0.0
      end
    | 5 (* sub *) ->
      let v = get stack dst -. get stack (dst + 1) in
      if v -. v = 0.0 then set stack dst v
      else begin
        incidents.Eval.non_finite <- incidents.Eval.non_finite + 1;
        set stack dst 0.0
      end
    | 6 (* mul *) ->
      let v = get stack dst *. get stack (dst + 1) in
      if v -. v = 0.0 then set stack dst v
      else begin
        incidents.Eval.non_finite <- incidents.Eval.non_finite + 1;
        set stack dst 0.0
      end
    | 7 (* div *) ->
      let b = get stack (dst + 1) in
      if b = 0.0 then begin
        incidents.Eval.div_by_zero <- incidents.Eval.div_by_zero + 1;
        set stack dst 0.0
      end
      else begin
        let v = get stack dst /. b in
        if v -. v = 0.0 then set stack dst v
        else begin
          incidents.Eval.non_finite <- incidents.Eval.non_finite + 1;
          set stack dst 0.0
        end
      end
    | 8 (* neg *) -> set stack dst (-.get stack dst)
    (* min/max are bit-identical to [Float.min]/[Float.max] on the
       values that can reach them: operands are always post-clamp
       finite, so NaN and infinities are impossible and only the
       signed-zero tie needs the sign probe — [1.0 /. x < 0.0]
       distinguishes -0.0 without the C call [Float.sign_bit] would
       cost on the hot path. *)
    | 9 (* min *) ->
      let x = get stack dst and y = get stack (dst + 1) in
      set stack dst
        (if y > x then x
         else if x > y then y
         else if x = 0.0 && 1.0 /. x < 0.0 then x
         else y)
    | 10 (* max *) ->
      let x = get stack dst and y = get stack (dst + 1) in
      set stack dst
        (if y > x then y
         else if x > y then x
         else if x = 0.0 && 1.0 /. x < 0.0 then y
         else x)
    | 11 (* abs *) -> set stack dst (Float.abs (get stack dst))
    | 12 (* sqrt *) ->
      let a = get stack dst in
      set stack dst (if a < 0.0 then 0.0 else sqrt a)
    | 13 (* pow *) ->
      let v = get stack dst ** get stack (dst + 1) in
      if v -. v = 0.0 then set stack dst v
      else begin
        incidents.Eval.non_finite <- incidents.Eval.non_finite + 1;
        set stack dst 0.0
      end
    | 14 (* if_lt *) ->
      set stack dst
        (if get stack dst < get stack (dst + 1) then get stack (dst + 2)
         else get stack (dst + 3))
    | 15 (* if_le *) ->
      set stack dst
        (if get stack dst <= get stack (dst + 1) then get stack (dst + 2)
         else get stack (dst + 3))
    | 16 (* if_gt *) ->
      set stack dst
        (if get stack dst > get stack (dst + 1) then get stack (dst + 2)
         else get stack (dst + 3))
    | 17 (* if_ge *) ->
      set stack dst
        (if get stack dst >= get stack (dst + 1) then get stack (dst + 2)
         else get stack (dst + 3))
    | _ (* const_nonfinite *) ->
      incidents.Eval.non_finite <- incidents.Eval.non_finite + 1;
      set stack dst 0.0
  done

(* --- compilation --- *)

exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

(* Stack effects: pushes +1, unary 0, binary -1, 4-ary selectors -3.
   The instruction's result index (dst) is the depth after it executes
   minus one — packed into the word so execution needs no stack
   pointer. *)
type emitter = {
  mutable rev : int list;  (* packed words, reversed *)
  mutable consts_rev : float list;
  mutable n_consts : int;
  mutable cur : int;
  mutable peak : int;
  mutable mask : int;
}

let emit em op arg delta =
  em.cur <- em.cur + delta;
  em.rev <- pack op ~dst:(em.cur - 1) ~arg :: em.rev;
  if em.cur > em.peak then em.peak <- em.cur

let emit_const em f =
  if f -. f = 0.0 then begin
    let idx = em.n_consts in
    em.consts_rev <- f :: em.consts_rev;
    em.n_consts <- idx + 1;
    emit em op_const idx 1
  end
  else
    (* Classified at compile time: [Eval]'s clamp fires on every
       evaluation of a non-finite literal, so no pool entry is needed —
       the opcode itself is "count an incident, produce 0.0". *)
    emit em op_const_nonfinite 0 1

let builtin_op ~where name args =
  let op, delta =
    match name with
    | "min" -> (op_min, -1)
    | "max" -> (op_max, -1)
    | "abs" -> (op_abs, 0)
    | "sqrt" -> (op_sqrt, 0)
    | "pow" -> (op_pow, -1)
    | "if_lt" -> (op_if_lt, -3)
    | "if_le" -> (op_if_le, -3)
    | "if_gt" -> (op_if_gt, -3)
    | "if_ge" -> (op_if_ge, -3)
    | _ -> error "%s: unknown function '%s'" where name
  in
  (match Ast.Vars.builtin_arity name with
  | Some arity when arity <> List.length args ->
    error "%s: '%s' expects %d arguments, got %d" where name arity (List.length args)
  | _ -> ());
  (op, delta)

(* [state] is the declared fold-field table inside fold updates, where
   state fields shadow flow variables (the language definition); [pkt_ok]
   allows pkt.* references, also only inside fold updates. *)
let compile_expr ~state ~pkt_ok ~where e =
  let em = { rev = []; consts_rev = []; n_consts = 0; cur = 0; peak = 0; mask = 0 } in
  let rec go e =
    match e with
    | Ast.Const f -> emit_const em f
    | Ast.Var name -> (
      match state with
      | Some fields when index_in fields name <> None ->
        emit em op_load_slot (Option.get (index_in fields name)) 1
      | _ -> (
        match flow_index name with
        | Some i ->
          em.mask <- em.mask lor (1 lsl i);
          emit em op_load_flow i 1
        | None -> error "%s: unknown variable '%s'" where name))
    | Ast.Pkt field -> (
      if not pkt_ok then error "%s: pkt.%s is only available inside fold updates" where field;
      match pkt_index field with
      | Some i -> emit em op_load_pkt i 1
      | None -> error "%s: unknown packet field '%s'" where field)
    | Ast.Neg e ->
      go e;
      emit em op_neg 0 0
    | Ast.Bin (op, l, r) ->
      go l;
      go r;
      emit em
        (match op with
        | Ast.Add -> op_add
        | Ast.Sub -> op_sub
        | Ast.Mul -> op_mul
        | Ast.Div -> op_div)
        0 (-1)
    | Ast.Call (name, args) ->
      let op, delta = builtin_op ~where name args in
      List.iter go args;
      emit em op 0 delta
  in
  go e;
  assert (em.cur = 1);
  {
    ops = Array.of_list (List.rev em.rev);
    consts = Array.of_list (List.rev em.consts_rev);
    max_stack = em.peak;
    flow_mask = em.mask;
  }

(* Fuse a binding list into one code: binding [j]'s instructions are
   shifted up by [j] stack slots, so after one [exec] pass result [j]
   sits at [stack.(j)] — the operand stack doubles as the staging
   buffer and the whole list runs in a single dispatch loop. Constant
   pools are concatenated, so [Const] operands are rebased. *)
let fuse codes =
  let n_ops = Array.fold_left (fun a c -> a + Array.length c.ops) 0 codes in
  let ops = Array.make n_ops 0 in
  let consts = Array.concat (Array.to_list (Array.map (fun c -> c.consts) codes)) in
  let pos = ref 0 and const_base = ref 0 in
  let max_stack = ref 0 and mask = ref 0 in
  Array.iteri
    (fun j c ->
      Array.iter
        (fun w ->
          let op = w land 0x1F and dst = (w lsr 5) land 0xFFFFF and arg = w lsr 25 in
          let arg = if op = op_const then arg + !const_base else arg in
          ops.(!pos) <- pack op ~dst:(dst + j) ~arg;
          incr pos)
        c.ops;
      const_base := !const_base + Array.length c.consts;
      if j + c.max_stack > !max_stack then max_stack := j + c.max_stack;
      mask := !mask lor c.flow_mask)
    codes;
  { ops; consts; max_stack = !max_stack; flow_mask = !mask }

(* --- compiled folds --- *)

module Fold = struct
  type plan = {
    field_names : string array;
    init : code;  (** fused init bindings: result [i] at [stack.(i)] *)
    update : code;  (** fused update bindings: result [j] at [stack.(j)] *)
    update_targets : int array;  (** field slot each binding commits to *)
    init_mask : int;
    step_mask : int;
    stack_need : int;
  }

  type t = {
    plan : plan;
    values : float array;
    mutable packets : int;
    discard : Eval.incident_counter;
        (* init/reset evaluate uncounted, matching [Fold.create] *)
  }

  let init_flow_mask p = p.init_mask
  let step_flow_mask p = p.step_mask
  let plan t = t.plan

  let compile_plan (def : Ast.fold_def) =
    let field_names = Array.of_list (List.map fst def.Ast.init) in
    Array.iteri
      (fun i name ->
        for j = 0 to i - 1 do
          if String.equal field_names.(j) name then error "fold init: duplicate field '%s'" name
        done)
      field_names;
    let init =
      fuse
        (Array.of_list
           (List.map
              (fun (name, e) ->
                compile_expr ~state:None ~pkt_ok:false
                  ~where:(Printf.sprintf "fold init '%s'" name)
                  e)
              def.Ast.init))
    in
    let update_targets =
      Array.of_list
        (List.map
           (fun (name, _) ->
             match index_in field_names name with
             | Some i -> i
             | None -> error "fold update assigns undeclared field '%s'" name)
           def.Ast.update)
    in
    let update =
      fuse
        (Array.of_list
           (List.map
              (fun (name, e) ->
                compile_expr ~state:(Some field_names) ~pkt_ok:true
                  ~where:(Printf.sprintf "fold update '%s'" name)
                  e)
              def.Ast.update))
    in
    {
      field_names;
      init;
      update;
      update_targets;
      init_mask = init.flow_mask;
      step_mask = update.flow_mask;
      stack_need = max init.max_stack update.max_stack;
    }

  let run_init t ~m =
    exec t.plan.init ~m ~slots:no_slots ~incidents:t.discard;
    for i = 0 to Array.length t.values - 1 do
      t.values.(i) <- m.stack.(i)
    done

  let create plan ~m =
    let t =
      {
        plan;
        values = Array.make (Array.length plan.field_names) 0.0;
        packets = 0;
        discard = Eval.fresh_counter ();
      }
    in
    run_init t ~m;
    t

  let step t ~m ~incidents =
    (* One fused exec; every binding reads the pre-packet [t.values],
       results land at [m.stack.(0..n-1)] and commit afterwards (in
       binding order, so a duplicate target's last binding wins, like
       the interpreter). *)
    exec t.plan.update ~m ~slots:t.values ~incidents;
    let targets = t.plan.update_targets in
    for j = 0 to Array.length targets - 1 do
      set t.values (Array.unsafe_get targets j) (get m.stack j)
    done;
    t.packets <- t.packets + 1

  let reset t ~m =
    run_init t ~m;
    t.packets <- 0

  let get t name = Option.map (fun i -> t.values.(i)) (index_in t.plan.field_names name)
  let fields t = Array.mapi (fun i name -> (name, t.values.(i))) t.plan.field_names
  let values t = t.values

  (* Loop without a closure or ref: this runs per ACK. *)
  let rec diverged_from values limit i =
    i < Array.length values
    &&
    let x = Array.unsafe_get values i in
    x -. x <> 0.0 || Float.abs x > limit || diverged_from values limit (i + 1)

  let diverged t ~limit = diverged_from t.values limit 0
  let packet_count t = t.packets
end

(* --- compiled programs --- *)

type prim =
  | Measure_vector of { columns : string array; col_idx : int array }
  | Measure_fold of Fold.plan
  | Rate of code
  | Cwnd of code
  | Wait of code
  | Wait_rtts of code
  | Report

type program = { prims : prim array; repeat : bool; max_stack : int }

let compile_prim = function
  | Ast.Measure (Ast.Vector fields) ->
    let columns = Array.of_list fields in
    let col_idx =
      Array.map
        (fun f ->
          match pkt_index f with
          | Some i -> i
          | None -> error "Measure: unknown packet field '%s'" f)
        columns
    in
    Measure_vector { columns; col_idx }
  | Ast.Measure (Ast.Fold def) -> Measure_fold (Fold.compile_plan def)
  | Ast.Rate e -> Rate (compile_expr ~state:None ~pkt_ok:false ~where:"Rate" e)
  | Ast.Cwnd e -> Cwnd (compile_expr ~state:None ~pkt_ok:false ~where:"Cwnd" e)
  | Ast.Wait e -> Wait (compile_expr ~state:None ~pkt_ok:false ~where:"Wait" e)
  | Ast.Wait_rtts e -> Wait_rtts (compile_expr ~state:None ~pkt_ok:false ~where:"WaitRtts" e)
  | Ast.Report -> Report

let prim_stack = function
  | Measure_vector _ | Report -> 0
  | Measure_fold plan -> plan.Fold.stack_need
  | Rate c | Cwnd c | Wait c | Wait_rtts c -> c.max_stack

let compile_exn (p : Ast.program) =
  let prims = Array.of_list (List.map compile_prim p.Ast.prims) in
  let max_stack = Array.fold_left (fun acc pr -> max acc (prim_stack pr)) 0 prims in
  { prims; repeat = p.Ast.repeat; max_stack }

let compile p = try Ok (compile_exn p) with Error msg -> Result.Error msg

let machine_for (p : program) =
  {
    stack = Array.make (max 1 p.max_stack) 0.0;
    flow = Array.make flow_var_count 0.0;
    pkt = Array.make pkt_field_count 0.0;
  }

(* --- differential harness --- *)

exception Diverged of string

let diverged fmt = Format.kasprintf (fun s -> raise (Diverged s)) fmt

let bits = Int64.bits_of_float

(* Feed the packet stream through both measurement engines in batches
   at every wait (and drain the tail at program end), mirroring how
   ACKs interleave with a sleeping program in the datapath. *)
let pkts_per_wait = 3

let equivalent (prog : Ast.program) ~flow ~pkts =
  if Array.length flow <> flow_var_count then
    invalid_arg "Compile.equivalent: flow table has the wrong width";
  Array.iter
    (fun row ->
      if Array.length row <> pkt_field_count then
        invalid_arg "Compile.equivalent: packet row has the wrong width")
    pkts;
  match compile prog with
  | Result.Error e -> Result.Error (Printf.sprintf "does not compile: %s" e)
  | Ok cp -> (
    let m = machine_for cp in
    Array.blit flow 0 m.flow 0 flow_var_count;
    let inc_i = Eval.fresh_counter () and inc_c = Eval.fresh_counter () in
    let flow_env name = Option.map (fun i -> flow.(i)) (flow_index name) in
    let pkt_env row name = Option.map (fun i -> row.(i)) (pkt_index name) in
    let ifold = ref None and cfold = ref None in
    let ivec = ref None and cvec = ref None in
    let compare_folds ~when_ () =
      match (!ifold, !cfold) with
      | None, None -> ()
      | Some fi, Some fc ->
        if Interp_fold.packet_count fi <> Fold.packet_count fc then
          diverged "%s: packet counts differ (interp %d, compiled %d)" when_
            (Interp_fold.packet_count fi) (Fold.packet_count fc);
        List.iter2
          (fun (ni, vi) (nc, vc) ->
            if not (String.equal ni nc) then
              diverged "%s: field order differs (%s vs %s)" when_ ni nc;
            if bits vi <> bits vc then
              diverged "%s: field %s differs (interp %h, compiled %h)" when_ ni vi vc)
          (Interp_fold.fields fi)
          (Array.to_list (Fold.fields fc))
      | _ -> diverged "%s: one side has a fold, the other does not" when_
    in
    let feed_one row =
      (match (!ifold, !cfold) with
      | Some fi, Some fc ->
        Interp_fold.step ~incidents:inc_i fi ~flow_env ~pkt_env:(pkt_env row);
        Array.blit row 0 m.pkt 0 pkt_field_count;
        Fold.step fc ~m ~incidents:inc_c;
        compare_folds ~when_:"after packet" ()
      | None, None -> ()
      | _ -> diverged "fold presence mismatch");
      match (!ivec, !cvec) with
      | Some columns, Some (cprim : prim) -> (
        match cprim with
        | Measure_vector { col_idx; _ } ->
          Array.blit row 0 m.pkt 0 pkt_field_count;
          List.iteri
            (fun k f ->
              let vi = Option.value (pkt_env row f) ~default:0.0 in
              let vc = m.pkt.(col_idx.(k)) in
              if bits vi <> bits vc then
                diverged "vector column %s differs (interp %h, compiled %h)" f vi vc)
            columns
        | _ -> diverged "vector/compiled prim mismatch")
      | None, None -> ()
      | _ -> diverged "vector presence mismatch"
    in
    let cursor = ref 0 in
    let n_pkts = Array.length pkts in
    let feed k =
      let stop = min n_pkts (!cursor + k) in
      while !cursor < stop do
        feed_one pkts.(!cursor);
        incr cursor
      done
    in
    let decide ~what e code_ =
      let vi =
        Eval.eval ~incidents:inc_i { Eval.lookup_var = flow_env; lookup_pkt = (fun _ -> None) } e
      in
      exec code_ ~m ~slots:no_slots ~incidents:inc_c;
      let vc = m.stack.(0) in
      if bits vi <> bits vc then
        diverged "%s decision differs (interp %h, compiled %h)" what vi vc
    in
    let aprims = Array.of_list prog.Ast.prims in
    try
      let pc = ref 0 and steps = ref 0 in
      let running = ref (Array.length aprims > 0) in
      while !running && !steps < 4096 do
        incr steps;
        if !pc >= Array.length aprims then
          if prog.Ast.repeat && !cursor < n_pkts then pc := 0 else running := false
        else begin
          let i = !pc in
          incr pc;
          (match (aprims.(i), cp.prims.(i)) with
          | Ast.Measure (Ast.Fold def), (Measure_fold plan as _cprim) ->
            ifold := Some (Interp_fold.create def ~flow_env);
            cfold := Some (Fold.create plan ~m);
            ivec := None;
            cvec := None;
            compare_folds ~when_:"after init" ()
          | Ast.Measure (Ast.Vector fields), (Measure_vector _ as cprim) ->
            ifold := None;
            cfold := None;
            ivec := Some fields;
            cvec := Some cprim
          | Ast.Rate e, Rate c -> decide ~what:"Rate" e c
          | Ast.Cwnd e, Cwnd c -> decide ~what:"Cwnd" e c
          | Ast.Wait e, Wait c ->
            decide ~what:"Wait" e c;
            feed pkts_per_wait
          | Ast.Wait_rtts e, Wait_rtts c ->
            decide ~what:"WaitRtts" e c;
            feed pkts_per_wait
          | Ast.Report, Report -> (
            compare_folds ~when_:"at report" ();
            match (!ifold, !cfold) with
            | Some fi, Some fc ->
              Interp_fold.reset fi ~flow_env;
              Fold.reset fc ~m;
              compare_folds ~when_:"after report reset" ()
            | _ -> ())
          | _ -> diverged "prim shape mismatch at %d" i)
        end
      done;
      feed n_pkts;
      compare_folds ~when_:"at end" ();
      if inc_i.Eval.div_by_zero <> inc_c.Eval.div_by_zero then
        diverged "div_by_zero counts differ (interp %d, compiled %d)" inc_i.Eval.div_by_zero
          inc_c.Eval.div_by_zero;
      if inc_i.Eval.non_finite <> inc_c.Eval.non_finite then
        diverged "non_finite counts differ (interp %d, compiled %d)" inc_i.Eval.non_finite
          inc_c.Eval.non_finite;
      if inc_i.Eval.unknown_name <> 0 || inc_c.Eval.unknown_name <> 0 then
        diverged "unknown_name incidents on a compiled program (interp %d, compiled %d)"
          inc_i.Eval.unknown_name inc_c.Eval.unknown_name;
      Ok ()
    with Diverged msg -> Result.Error msg)
