(** Abstract syntax of the CCP control-program language (Table 2).

    A control program is a sequence of primitives the datapath executes on
    behalf of the user-space algorithm:

    {v
    Measure(rtt_us, bytes_acked).Cwnd(cwnd + 2 * mss).WaitRtts(1.0).Report()
    v}

    Programs loop back to their first primitive when they finish (BBR's
    pulse pattern in the paper relies on this) unless terminated with
    [Once()]. Expressions are evaluated in the datapath against flow-level
    variables ({!Vars.flow_vars}) and, inside fold updates, per-packet
    fields ({!Vars.pkt_fields}) and the fold's own state. *)

type binop = Add | Sub | Mul | Div

type expr =
  | Const of float
  | Var of string
      (** A flow variable, or (inside a fold update) a fold state field;
          state shadows flow variables. *)
  | Pkt of string  (** [pkt.field]: per-packet measurement, folds only. *)
  | Bin of binop * expr * expr
  | Neg of expr
  | Call of string * expr list  (** builtin functions, see {!Vars.builtins} *)

type fold_def = {
  init : (string * expr) list;  (** state fields and initial values *)
  update : (string * expr) list;
      (** per-packet simultaneous update: every right-hand side sees the
          pre-update state, matching the paper's [fold (old, pkt) -> new] *)
}

type measure_spec =
  | Vector of string list  (** append these per-packet fields to a vector *)
  | Fold of fold_def  (** summarize packets into constant-size state *)

type prim =
  | Measure of measure_spec
  | Rate of expr  (** set the pacing rate, bytes/second *)
  | Cwnd of expr  (** set the congestion window, bytes *)
  | Wait of expr  (** wait this many microseconds *)
  | Wait_rtts of expr  (** wait this many (current, smoothed) RTTs *)
  | Report  (** flush collected measurements to the agent *)

type program = { prims : prim list; repeat : bool }

val program : ?repeat:bool -> prim list -> program

val equal_expr : expr -> expr -> bool
val equal_program : program -> program -> bool
(** Structural equality with constants compared as numbers
    ([Float.equal]: [0.0] equals [-0.0], NaN equals NaN). *)

val identical_program : program -> program -> bool
(** {!equal_program} with constants compared by IEEE bit pattern, so
    [0.0] and [-0.0] differ, and so do two NaN payloads. Two identical
    programs admit, compile and run to bitwise-equal results. *)

(** Canonical variable and function names shared between the language, the
    datapath, and the agent. *)
module Vars : sig
  val flow_vars : (string * string) list
  (** (name, description) of the datapath flow variables readable from any
      expression: cwnd, rate, mss, srtt_us, rtt_us, minrtt_us,
      inflight_bytes, now_us. *)

  val pkt_fields : (string * string) list
  (** Per-packet measurement fields available as [pkt.x] in folds and as
      column names in [Measure(vector ...)]: rtt_us, bytes_acked,
      bytes_lost, ecn, send_rate, recv_rate, inflight_bytes, now_us. *)

  val builtins : (string * int) list
  (** (function name, arity): min, max, abs, sqrt, pow plus the branchless
      conditionals if_lt/if_le/if_gt/if_ge with arity 4 —
      [if_lt(a,b,x,y) = if a < b then x else y]. *)

  val is_flow_var : string -> bool
  val is_pkt_field : string -> bool
  val builtin_arity : string -> int option
end
