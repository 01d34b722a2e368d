open Ccp_ipc

type flow_info = { flow : int; mss : int; init_cwnd : int }

type handle = {
  info : flow_info;
  install : Ccp_lang.Ast.program -> unit;
  install_text : string -> unit;
  set_cwnd : int -> unit;
  set_rate : float -> unit;
  now_us : unit -> float;
}

type handlers = {
  on_ready : unit -> unit;
  on_report : Message.report -> unit;
  on_report_vector : Message.vector_report -> unit;
  on_urgent : Message.urgent -> unit;
  on_install_result : Message.install_result -> unit;
  on_quarantine : Message.quarantine -> unit;
  on_checkpoint : unit -> (string * float) array;
  on_restore : (string * float) array -> unit;
}

type t = {
  name : string;
  make : handle -> handlers;
}

let no_op_handlers =
  {
    on_ready = (fun () -> ());
    on_report = (fun _ -> ());
    on_report_vector = (fun _ -> ());
    on_urgent = (fun _ -> ());
    on_install_result = (fun _ -> ());
    on_quarantine = (fun _ -> ());
    on_checkpoint = (fun () -> [||]);
    on_restore = (fun _ -> ());
  }

(* The first index of [name] in [names], or -1: a plain loop, so a
   lookup allocates nothing before its result. *)
let rec index_of names name i =
  if i >= Array.length names then -1
  else if String.equal (Array.unsafe_get names i) name then i
  else index_of names name (i + 1)

let field (report : Message.report) name =
  let i = index_of report.layout.names name 0 in
  if i < 0 then None else Some report.values.(i)

exception Missing_field of string

let field_exn (report : Message.report) name =
  let i = index_of report.layout.names name 0 in
  if i < 0 then raise (Missing_field name) else report.values.(i)

let column (report : Message.vector_report) name =
  let found = ref None in
  Array.iteri (fun i n -> if n = name && !found = None then found := Some i) report.columns;
  !found
