(** Static resource limits on control programs (admission control, §2.4).

    {!Typecheck} answers "is this program well-formed?"; this module
    answers "is it cheap enough to run in the datapath?". The datapath
    enforces both on every program it runs — it cannot trust the agent,
    let alone the channel — and answers each [Install] with an
    [Install_result] carrying one of the structured {!reason} codes
    below, so a rejection is observable end to end instead of a silent
    drop.

    The limits are fixed: at most 256 primitives per program, expression
    depth 32, 64 fold state fields and 32 vector columns, and constant
    [Wait] and [WaitRtts] arguments of at least 100 us and 0.1 RTT. The
    wait floors only bind on {e constant} arguments; a computed wait that
    evaluates too low is caught at runtime by the datapath's guard
    envelope ({!Ccp_datapath.Ccp_ext.guard_envelope}). *)

(** Structured rejection codes; stable across the IPC wire. *)
type reason =
  | Program_too_long
  | Expr_too_deep
  | Fold_too_large
  | Vector_too_wide
  | Wait_too_short
  | Invalid_program  (** failed {!Typecheck.check} *)

val all_reasons : reason list
val reason_to_string : reason -> string
val equal_reason : reason -> reason -> bool
val pp_reason : Format.formatter -> reason -> unit

val check : Ast.program -> (unit, reason * string) result
(** Resource limits only; never raises. *)

val admit : Ast.program -> (unit, reason * string) result
(** [Typecheck.check] plus {!check}: the full admission decision a
    datapath runs on [Install]. Never raises. *)
