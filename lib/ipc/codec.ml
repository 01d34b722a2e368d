open Ccp_lang.Ast

exception Decode_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Decode_error s)) fmt

(* --- expressions --- *)

let binop_tag = function Add -> 0 | Sub -> 1 | Mul -> 2 | Div -> 3

let binop_of_tag = function
  | 0 -> Add
  | 1 -> Sub
  | 2 -> Mul
  | 3 -> Div
  | n -> fail "bad binop tag %d" n

let rec write_expr w = function
  | Const f ->
    Wire.Writer.byte w 0;
    Wire.Writer.float w f
  | Var name ->
    Wire.Writer.byte w 1;
    Wire.Writer.string w name
  | Pkt field ->
    Wire.Writer.byte w 2;
    Wire.Writer.string w field
  | Bin (op, l, r) ->
    Wire.Writer.byte w 3;
    Wire.Writer.byte w (binop_tag op);
    write_expr w l;
    write_expr w r
  | Neg e ->
    Wire.Writer.byte w 4;
    write_expr w e
  | Call (name, args) ->
    Wire.Writer.byte w 5;
    Wire.Writer.string w name;
    Wire.Writer.varint w (List.length args);
    List.iter (write_expr w) args

let rec read_expr r =
  match Wire.Reader.byte r with
  | 0 -> Const (Wire.Reader.float r)
  | 1 -> Var (Wire.Reader.string r)
  | 2 -> Pkt (Wire.Reader.string r)
  | 3 ->
    let op = binop_of_tag (Wire.Reader.byte r) in
    let l = read_expr r in
    let rhs = read_expr r in
    Bin (op, l, rhs)
  | 4 -> Neg (read_expr r)
  | 5 ->
    let name = Wire.Reader.string r in
    let n = Wire.Reader.varint r in
    if n > 16 then fail "call with %d arguments" n;
    let args = List.init n (fun _ -> read_expr r) in
    Call (name, args)
  | tag -> fail "bad expr tag %d" tag

(* --- programs --- *)

let write_bindings w bindings =
  Wire.Writer.varint w (List.length bindings);
  List.iter
    (fun (name, e) ->
      Wire.Writer.string w name;
      write_expr w e)
    bindings

let read_bindings r =
  let n = Wire.Reader.varint r in
  if n > 256 then fail "fold with %d bindings" n;
  List.init n (fun _ ->
      let name = Wire.Reader.string r in
      (name, read_expr r))

let write_spec w = function
  | Vector fields ->
    Wire.Writer.byte w 0;
    Wire.Writer.varint w (List.length fields);
    List.iter (Wire.Writer.string w) fields
  | Fold { init; update } ->
    Wire.Writer.byte w 1;
    write_bindings w init;
    write_bindings w update

let read_spec r =
  match Wire.Reader.byte r with
  | 0 ->
    let n = Wire.Reader.varint r in
    if n > 64 then fail "vector with %d fields" n;
    Vector (List.init n (fun _ -> Wire.Reader.string r))
  | 1 ->
    let init = read_bindings r in
    let update = read_bindings r in
    Fold { init; update }
  | tag -> fail "bad measure-spec tag %d" tag

let write_prim w = function
  | Measure spec ->
    Wire.Writer.byte w 0;
    write_spec w spec
  | Rate e ->
    Wire.Writer.byte w 1;
    write_expr w e
  | Cwnd e ->
    Wire.Writer.byte w 2;
    write_expr w e
  | Wait e ->
    Wire.Writer.byte w 3;
    write_expr w e
  | Wait_rtts e ->
    Wire.Writer.byte w 4;
    write_expr w e
  | Report -> Wire.Writer.byte w 5

let read_prim r =
  match Wire.Reader.byte r with
  | 0 -> Measure (read_spec r)
  | 1 -> Rate (read_expr r)
  | 2 -> Cwnd (read_expr r)
  | 3 -> Wait (read_expr r)
  | 4 -> Wait_rtts (read_expr r)
  | 5 -> Report
  | tag -> fail "bad prim tag %d" tag

let write_program w (program : program) =
  Wire.Writer.byte w (if program.repeat then 1 else 0);
  Wire.Writer.varint w (List.length program.prims);
  List.iter (write_prim w) program.prims

let read_program r =
  let repeat =
    match Wire.Reader.byte r with
    | 0 -> false
    | 1 -> true
    | b -> fail "bad repeat flag %d" b
  in
  let n = Wire.Reader.varint r in
  if n > 1024 then fail "program with %d primitives" n;
  let prims = List.init n (fun _ -> read_prim r) in
  { prims; repeat }

(* One scratch writer per domain serves every encode on it: [reset]
   keeps the grown buffer, so the steady-state encode path allocates
   only the result string instead of a fresh 128-byte buffer per
   message, and encodes on two domains never share a buffer. A domain's
   first encode makes its writer; the initial domain's is made here, as
   the module loads, so a run on one domain allocates what it did with
   one module-level writer. *)
let scratch_key = Domain.DLS.new_key Wire.Writer.create
let () = ignore (Domain.DLS.get scratch_key : Wire.Writer.t)

let encode_program p =
  let scratch = Domain.DLS.get scratch_key in
  Wire.Writer.reset scratch;
  write_program scratch p;
  Wire.Writer.contents scratch

let decode_program s = read_program (Wire.Reader.of_string s)

(* --- decode memo ---

   What a receiver already holds, so that a steady stream decodes without
   rebuilding it: each flow's running program with its encoding. Encoding
   is canonical (constants are IEEE bits), so program bytes equal to the
   running program's bytes decode to a program identical to it, and the
   decoder hands out the running AST instead of building a copy. *)

type running = { bytes : string; program : Ccp_lang.Ast.program }

type memo = {
  mutable running : int -> running option;
  mutable kept : unit -> running option;
      (* the program the receiver admitted last, whichever flow it was
         for: tried when the flow's own running program does not match *)
}

let no_running (_ : int) : running option = None
let no_kept () : running option = None
let memo () = { running = no_running; kept = no_kept }
let set_running memo lookup = memo.running <- lookup
let set_kept memo lookup = memo.kept <- lookup

(* The memo of a decode that was given none: nothing can install a
   lookup in it, so every such decode may share it. *)
let empty = memo ()

(* --- messages --- *)

let reason_tag : Ccp_lang.Limits.reason -> int = function
  | Program_too_long -> 0
  | Expr_too_deep -> 1
  | Fold_too_large -> 2
  | Vector_too_wide -> 3
  | Wait_too_short -> 4
  | Invalid_program -> 5

let reason_of_tag : int -> Ccp_lang.Limits.reason = function
  | 0 -> Program_too_long
  | 1 -> Expr_too_deep
  | 2 -> Fold_too_large
  | 3 -> Vector_too_wide
  | 4 -> Wait_too_short
  | 5 -> Invalid_program
  | n -> fail "bad install-reject reason tag %d" n

let incident_tag = Message.incident_index

let incident_of_tag : int -> Message.incident_kind = function
  | 0 -> Cwnd_clamped
  | 1 -> Rate_clamped
  | 2 -> Wait_clamped
  | 3 -> Non_finite
  | 4 -> Div_by_zero_storm
  | 5 -> Report_throttled
  | 6 -> Fold_divergence
  | 7 -> Eval_budget_exhausted
  | n -> fail "bad incident-kind tag %d" n

let write_message w (msg : Message.t) =
  match msg with
  | Ready { flow; mss; init_cwnd } ->
    Wire.Writer.byte w 0;
    Wire.Writer.varint w flow;
    Wire.Writer.varint w mss;
    Wire.Writer.varint w init_cwnd
  | Report { flow; layout; values } ->
    let n = Array.length values in
    if Array.length layout.names <> n then invalid_arg "Codec: report layout/values length mismatch";
    Wire.Writer.byte w 1;
    Wire.Writer.varint w flow;
    Wire.Writer.word w layout.id;
    Wire.Writer.varint w n;
    for i = 0 to n - 1 do
      Wire.Writer.float_at w values i
    done
  | Report_vector { flow; columns; rows } ->
    Wire.Writer.byte w 2;
    Wire.Writer.varint w flow;
    Wire.Writer.varint w (Array.length columns);
    Array.iter (Wire.Writer.string w) columns;
    Wire.Writer.varint w (Array.length rows);
    Array.iter
      (fun row ->
        if Array.length row <> Array.length columns then
          invalid_arg "Codec: vector row width mismatch";
        Array.iter (Wire.Writer.float w) row)
      rows
  | Urgent { flow; kind; cwnd_at_event; inflight_at_event } ->
    Wire.Writer.byte w 3;
    Wire.Writer.varint w flow;
    Wire.Writer.byte w
      (match kind with Message.Dup_ack_loss -> 0 | Message.Timeout -> 1 | Message.Ecn -> 2);
    Wire.Writer.varint w cwnd_at_event;
    Wire.Writer.varint w inflight_at_event
  | Closed { flow } ->
    Wire.Writer.byte w 4;
    Wire.Writer.varint w flow
  | Install_result { flow; verdict } ->
    Wire.Writer.byte w 8;
    Wire.Writer.varint w flow;
    (match verdict with
    | Message.Accepted -> Wire.Writer.byte w 0
    | Message.Rejected { reason; detail } ->
      Wire.Writer.byte w 1;
      Wire.Writer.byte w (reason_tag reason);
      Wire.Writer.string w detail)
  | Quarantined { flow; incidents; dominant } ->
    Wire.Writer.byte w 9;
    Wire.Writer.varint w flow;
    Wire.Writer.varint w incidents;
    Wire.Writer.byte w (incident_tag dominant)
  | Install { flow; program } ->
    Wire.Writer.byte w 5;
    Wire.Writer.varint w flow;
    write_program w program
  | Set_cwnd { flow; bytes } ->
    Wire.Writer.byte w 6;
    Wire.Writer.varint w flow;
    Wire.Writer.varint w bytes
  | Set_rate { flow; bytes_per_sec } ->
    Wire.Writer.byte w 7;
    Wire.Writer.varint w flow;
    Wire.Writer.float w bytes_per_sec

(* A report names its layout by id and carries values only: the layout
   is found in the process's table, never interned here, and its length
   must be the value count on the wire. *)
let read_report r : Message.t =
  let flow = Wire.Reader.varint r in
  let id = Wire.Reader.word r in
  let layout =
    match Message.find_layout id with
    | layout -> layout
    | exception Not_found -> fail "report of unknown layout %d" id
  in
  let n = Wire.Reader.varint r in
  if n <> Array.length layout.names then
    fail "report of %d values for a layout of %d fields" n (Array.length layout.names);
  let values = Array.make n 0.0 in
  for i = 0 to n - 1 do
    Wire.Reader.float_into r values i
  done;
  Report { flow; layout; values }

let read_message r memo : Message.t =
  match Wire.Reader.byte r with
  | 0 ->
    let flow = Wire.Reader.varint r in
    let mss = Wire.Reader.varint r in
    let init_cwnd = Wire.Reader.varint r in
    Ready { flow; mss; init_cwnd }
  | 1 -> read_report r
  | 2 ->
    let flow = Wire.Reader.varint r in
    let ncols = Wire.Reader.varint r in
    if ncols > 64 then fail "vector report with %d columns" ncols;
    let columns = Array.init ncols (fun _ -> Wire.Reader.string r) in
    let nrows = Wire.Reader.varint r in
    if nrows > 1_000_000 || nrows * ncols > 1_000_000 then fail "vector report too large";
    let rows = Array.init nrows (fun _ -> Array.init ncols (fun _ -> Wire.Reader.float r)) in
    Report_vector { flow; columns; rows }
  | 3 ->
    let flow = Wire.Reader.varint r in
    let kind =
      match Wire.Reader.byte r with
      | 0 -> Message.Dup_ack_loss
      | 1 -> Message.Timeout
      | 2 -> Message.Ecn
      | k -> fail "bad urgent kind %d" k
    in
    let cwnd_at_event = Wire.Reader.varint r in
    let inflight_at_event = Wire.Reader.varint r in
    Urgent { flow; kind; cwnd_at_event; inflight_at_event }
  | 4 -> Closed { flow = Wire.Reader.varint r }
  | 5 ->
    let flow = Wire.Reader.varint r in
    let program =
      match memo.running flow with
      | Some running when Wire.Reader.skip_bytes r running.bytes -> running.program
      | Some _ | None -> (
        match memo.kept () with
        | Some kept when Wire.Reader.skip_bytes r kept.bytes -> kept.program
        | Some _ | None -> read_program r)
    in
    Install { flow; program }
  | 6 ->
    let flow = Wire.Reader.varint r in
    let bytes = Wire.Reader.varint r in
    Set_cwnd { flow; bytes }
  | 7 ->
    let flow = Wire.Reader.varint r in
    let bytes_per_sec = Wire.Reader.float r in
    Set_rate { flow; bytes_per_sec }
  | 8 ->
    let flow = Wire.Reader.varint r in
    let verdict =
      match Wire.Reader.byte r with
      | 0 -> Message.Accepted
      | 1 ->
        let reason = reason_of_tag (Wire.Reader.byte r) in
        let detail = Wire.Reader.string r in
        Message.Rejected { reason; detail }
      | v -> fail "bad install verdict %d" v
    in
    Install_result { flow; verdict }
  | 9 ->
    let flow = Wire.Reader.varint r in
    let incidents = Wire.Reader.varint r in
    let dominant = incident_of_tag (Wire.Reader.byte r) in
    Quarantined { flow; incidents; dominant }
  | tag -> fail "bad message tag %d" tag

let encode_with w msg =
  Wire.Writer.reset w;
  write_message w msg;
  Wire.Writer.contents w

let encode msg = encode_with (Domain.DLS.get scratch_key) msg

let decode s =
  let r = Wire.Reader.of_string s in
  let msg = read_message r empty in
  if not (Wire.Reader.at_end r) then fail "trailing bytes after message";
  msg

let encoded_size msg = String.length (encode msg)

(* --- trace context ---

   An optional trailing block after the message body: byte 1 (the
   trace-context block tag) followed by the varint span token. A message
   encoded without a span is byte-identical to the pre-tracing format,
   and [decode_traced] on such bytes yields [Message.no_trace] — the
   field is backward and forward compatible. Plain [decode] still rejects
   any trailing bytes, so untraced consumers keep their strict framing. *)

let write_trace w span =
  if span >= 0 then begin
    Wire.Writer.byte w 1;
    Wire.Writer.varint w span
  end

let encode_traced ?(span = Message.no_trace) msg =
  if span < 0 then encode msg
  else begin
    let scratch = Domain.DLS.get scratch_key in
    Wire.Writer.reset scratch;
    write_message scratch msg;
    write_trace scratch span;
    Wire.Writer.contents scratch
  end

let with_trace ~span encoded =
  if span < 0 then encoded
  else begin
    let scratch = Domain.DLS.get scratch_key in
    Wire.Writer.reset scratch;
    Wire.Writer.raw scratch encoded;
    write_trace scratch span;
    Wire.Writer.contents scratch
  end

(* The trace block after a message, up to the reader's bound. *)
let read_trace r =
  if Wire.Reader.at_end r then Message.no_trace
  else begin
    (match Wire.Reader.byte r with
    | 1 -> ()
    | tag -> fail "bad trailing block tag %d" tag);
    let span = Wire.Reader.varint r in
    if not (Wire.Reader.at_end r) then fail "trailing bytes after trace context";
    span
  end

let decode_traced ?memo:m s =
  let r = Wire.Reader.of_string s in
  let msg = read_message r (match m with Some m -> m | None -> empty) in
  let span = read_trace r in
  (msg, span)

(* --- batch frames ---

   Cross-flow batching: one wire frame carrying many messages' traced
   encodings as length-prefixed entries, so the per-frame delivery cost
   is amortized over every flow that reported in the same flush window,
   and over the agent's replies to them on the way back. The frame tag
   (10) sits outside the single-message tag
   space (0..9), which keeps the two framings unambiguous in both
   directions: a batching-unaware [decode] rejects a batch frame cleanly
   ("bad message tag 10") instead of misparsing it, and [decode_batch]
   on a legacy single-message frame fails the tag check the same way.
   Each entry is an [encode_traced] encoding, so each batched report
   keeps its own span token.

   Both ends work in place. The sender appends each entry to one body
   writer and frames the body once at the flush; the receiver reads
   each entry through the frame's reader, bounded to the entry. *)

let batch_tag = 10
let max_batch_entries = 4096

let is_batch s = String.length s > 0 && Char.code s.[0] = batch_tag

(* Append the entry [scratch] holds to [body], length prefix first. *)
let append_entry body scratch =
  let len = Wire.Writer.length scratch in
  Wire.Writer.varint body len;
  Wire.Writer.append body scratch;
  len

let add_batch_entry body ~span msg =
  let scratch = Domain.DLS.get scratch_key in
  Wire.Writer.reset scratch;
  write_message scratch msg;
  write_trace scratch span;
  append_entry body scratch

let add_batch_encoded body ~span encoded =
  let scratch = Domain.DLS.get scratch_key in
  Wire.Writer.reset scratch;
  Wire.Writer.raw scratch encoded;
  write_trace scratch span;
  append_entry body scratch

let seal_batch body ~count =
  if count > max_batch_entries then
    invalid_arg
      (Printf.sprintf "Codec.seal_batch: %d entries exceeds max %d" count max_batch_entries);
  let scratch = Domain.DLS.get scratch_key in
  Wire.Writer.reset scratch;
  Wire.Writer.byte scratch batch_tag;
  Wire.Writer.varint scratch count;
  Wire.Writer.concat scratch body

let encode_batch msgs =
  let body = Wire.Writer.create () in
  Array.iter (fun (msg, span) -> ignore (add_batch_entry body ~span msg : int)) msgs;
  seal_batch body ~count:(Array.length msgs)

let decode_batch ?memo:m s =
  let m = match m with Some m -> m | None -> empty in
  let r = Wire.Reader.of_string s in
  (match Wire.Reader.byte r with
  | tag when tag = batch_tag -> ()
  | tag -> fail "bad batch tag %d" tag);
  let n = Wire.Reader.varint r in
  if n > max_batch_entries then fail "batch with %d entries" n;
  let out = Array.make n (Message.Closed { flow = 0 }, Message.no_trace) in
  (* Explicit loop: the reader is stateful, entries must parse in order. *)
  for i = 0 to n - 1 do
    let frame_end = Wire.Reader.push_limit r (Wire.Reader.varint r) in
    let msg = read_message r m in
    let span = read_trace r in
    Wire.Reader.pop_limit r frame_end;
    out.(i) <- (msg, span)
  done;
  if not (Wire.Reader.at_end r) then fail "trailing bytes after batch";
  out
