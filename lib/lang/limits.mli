(** Static resource limits on control programs (admission control, §2.4).

    {!Typecheck} answers "is this program well-formed?"; this module
    answers "is it cheap enough to run in the datapath?". The datapath
    enforces both on every program it runs — it cannot trust the agent,
    let alone the channel — and answers each [Install] with an
    [Install_result] carrying one of the structured {!reason} codes
    below, so a rejection is observable end to end instead of a silent
    drop.

    The wait floors only bind on {e constant} arguments; a computed wait
    that evaluates too low is caught at runtime by the datapath's guard
    envelope ({!Ccp_datapath.Ccp_ext.guard_envelope}). *)

type t = {
  max_prims : int;  (** total primitives per program *)
  max_expr_depth : int;  (** nesting depth of any expression *)
  max_fold_fields : int;  (** declared fold state fields *)
  max_vector_columns : int;  (** columns of a vector measure spec *)
  min_wait_us : float;  (** floor on constant [Wait] arguments *)
  min_wait_rtts : float;  (** floor on constant [WaitRtts] arguments *)
}

val default : t
(** 256 prims, depth 32, 64 fold fields, 32 columns, 100 us / 0.1 RTT
    wait floors. *)

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

val check : ?limits:t -> Ast.program -> (unit, reason * string) result
(** Resource limits only; never raises. *)

val admit : ?limits:t -> Ast.program -> (unit, reason * string) result
(** [Typecheck.check] plus {!check}: the full admission decision a
    datapath runs on [Install]. Never raises. *)
