(** The user-space congestion-control algorithm API (Table 3).

    An algorithm is a factory: for every new flow the agent calls [make]
    with a {!handle} and gets back the flow's event handlers — [on_ready]
    (the paper's [Init]), [on_report]/[on_report_vector] ([OnMeasurement]
    for the two batching modes), and [on_urgent] ([OnUrgent]). Per-flow
    algorithm state lives in the closure returned by [make]. The handle
    provides [Install] plus the direct window/rate commands. *)

open Ccp_ipc

type flow_info = { flow : int; mss : int; init_cwnd : int }

type handle = {
  info : flow_info;
  install : Ccp_lang.Ast.program -> unit;
      (** Validate (raising [Invalid_argument] on a static error), apply
          the agent's policy, and send to the datapath. Every program
          sent has passed the typecheck; a program bit-identical
          ({!Ccp_lang.Ast.identical_program}) to the last one that passed
          on this handle reuses that verdict and that install's frame
          ({!Ccp_ipc.Channel.send_install_frame}), so a repeat neither
          typechecks nor encodes. *)
  install_text : string -> unit;
      (** Parse surface syntax, then as [install]. *)
  set_cwnd : int -> unit;
  set_rate : float -> unit;  (** bytes/second *)
  now_us : unit -> float;  (** agent clock (simulation time) *)
}

type handlers = {
  on_ready : unit -> unit;
  on_report : Message.report -> unit;
  on_report_vector : Message.vector_report -> unit;
  on_urgent : Message.urgent -> unit;
  on_install_result : Message.install_result -> unit;
      (** the datapath's admission verdict for this flow's last [Install] *)
  on_quarantine : Message.quarantine -> unit;
      (** the datapath quarantined the flow to native CC; re-[install] a
          corrected program to win it back *)
  on_checkpoint : unit -> (string * float) array;
      (** dump the algorithm's per-flow registers for a warm-restart
          checkpoint ({!Ccp_ipc.Checkpoint}); [[||]] (the default) means
          the algorithm keeps no restorable state *)
  on_restore : (string * float) array -> unit;
      (** called on a fresh instance, before [on_ready], with the
          registers a crashed predecessor checkpointed — restore what you
          recognize, ignore the rest *)
}

type t = {
  name : string;
  make : handle -> handlers;
}

val no_op_handlers : handlers
(** Handlers that ignore everything; convenient base for algorithms that
    only use some events. *)

(** {1 Report helpers} *)

exception Missing_field of string

val field : Message.report -> string -> float option
(** The value of the report's first field called [name]: a search of
    [layout.names] by index, then [values] at that index. *)

val field_exn : Message.report -> string -> float
(** As {!field}, with no option on the way. Raises {!Missing_field} if
    the report lacks the field. *)

val column : Message.vector_report -> string -> int option
(** Index of a column in a vector report. *)
