(** Install-time compilation of control programs (§2.3).

    The paper's cost argument is that per-ACK datapath work must stay
    tiny — that is the whole point of batching measurement into folds.
    The tree-walking {!Eval}/{!Fold} pair pays a string scan per name, a
    closure environment per lookup and a list allocation per packet;
    fine for a reference semantics, hostile to a fast path. This module
    does what real deployments do (NIC and eBPF datapaths alike): all
    name resolution and arity checking happens {e once}, at Install
    admission time, and the per-ACK path runs a flat postfix instruction
    array over a preallocated float stack — no strings, no closures, no
    lists, and {b no minor-heap allocation} in steady state.

    Semantics are {e bit-identical} to the interpreter, incident
    counting included: division by zero yields 0 and counts, every
    instruction result is clamped to 0 when non-finite and counted, and
    builtins reproduce [Eval.apply_builtin] exactly. The one intended
    difference: unknown names, unknown builtins and wrong arities —
    which the interpreter only discovers per-packet at run time — are
    compile errors, reported to the agent as a structured
    [Install_result] rejection. {!equivalent} is the differential
    harness the property tests drive to keep the two in lockstep. *)

(** {1 Slot spaces}

    Flow variables and packet fields are resolved to dense integer
    indices in the order of {!Ast.Vars.flow_vars} / [pkt_fields]. The
    datapath fills a [float array] per space instead of answering
    string lookups. *)

val flow_var_count : int
val pkt_field_count : int

val flow_index_exn : string -> int
(** Raises [Invalid_argument] on unknown names; for datapath wiring
    that hardcodes the slot layout once at module initialisation. *)

val pkt_index_exn : string -> int

(** {1 Compiled code}

    Expressions lower to a flat postfix instruction stream packed into
    an [int array]: each word carries the opcode (bits 0–4), the
    result's operand-stack index (bits 5–24) and an operand index into
    [consts] or a slot table (bits 25+). The stack discipline is fully
    static, so there is no run-time stack pointer — instruction [i]
    reads its operands at [dst .. dst+arity-1] and writes [dst], and the
    whole expression's result lands at [stack.(0)]. Dispatch is a dense
    integer switch over sequential memory: no pointer chasing, no
    allocation. *)

type code = {
  ops : int array;  (** packed instructions, postfix order *)
  consts : float array;  (** literal pool indexed by [Const] operands *)
  max_stack : int;  (** exact peak operand-stack depth *)
  flow_mask : int;  (** bitmask of flow-variable slots this code reads *)
}

(** Preallocated execution state: one per flow, reused for every
    evaluation. [flow] and [pkt] are the slot tables the datapath
    refreshes in place before executing code that reads them
    ([flow_mask] says which flow slots matter). *)
type machine = {
  stack : float array;
  flow : float array;  (** [flow_var_count] wide *)
  pkt : float array;  (** [pkt_field_count] wide *)
}

val no_slots : float array
(** The empty slot table for code compiled outside a fold. *)

val exec :
  code -> m:machine -> slots:float array -> incidents:Eval.incident_counter -> unit
(** Execute [code]; the result is left in [m.stack.(0)] (returning it
    would box the float on every call). Allocation-free. [slots] is the
    fold state table ([no_slots] outside folds); [incidents] receives
    div-by-zero and non-finite counts exactly as {!Eval.eval} would. *)

(** {1 Compiled folds} *)

module Fold : sig
  type plan
  (** A compiled fold definition: init and update bindings each fused
      into one instruction array (binding [j]'s result lands at
      [stack.(j)]), with resolved commit-target slots. *)

  type t
  (** Runtime state: one [values] table. During {!step} the machine's
      operand stack doubles as the staging buffer, so all updates read
      the pre-packet state and commit simultaneously — the paper's
      [foldFn (old, pkt) -> new]. *)

  val init_flow_mask : plan -> int
  (** Flow slots the init (and reset) code reads. *)

  val step_flow_mask : plan -> int
  (** Flow slots the update code reads; refresh these before {!step}. *)

  val create : plan -> m:machine -> t
  (** Runs the init code against [m.flow] (refresh it first). Like
      {!Fold.create}, init-time incidents are not counted. *)

  val step : t -> m:machine -> incidents:Eval.incident_counter -> unit
  (** Fold one packet from [m.pkt]. The per-ACK fast path: zero
      minor-heap allocations (asserted by a [Gc.minor_words] test). *)

  val reset : t -> m:machine -> unit
  (** Re-run init (after a report flush); packet count returns to 0. *)

  val plan : t -> plan
  val get : t -> string -> float option
  val fields : t -> (string * float) array
  (** Current state in declaration order (allocates). *)

  val values : t -> float array
  (** The live state table, in the order of {!fields}: read it, never
      write it. It is the same array for the fold's whole life, so a
      report copies it out without allocating. *)

  val diverged : t -> limit:float -> bool
  val packet_count : t -> int
end

(** {1 Compiled programs} *)

type prim =
  | Measure_vector of { columns : string array; col_idx : int array }
  | Measure_fold of Fold.plan
  | Rate of code
  | Cwnd of code
  | Wait of code
  | Wait_rtts of code
  | Report

type program = { prims : prim array; repeat : bool; max_stack : int }

val compile : Ast.program -> (program, string) result
(** Resolve every name to a slot and lower every expression. Fails —
    with a human-readable reason — exactly on programs {!Typecheck}
    would reject for name/arity errors: unknown variables, packet
    fields or builtins, wrong builtin arity, [pkt.*] outside a fold
    update, updates to undeclared fields, duplicate fold fields. Any
    program {!Limits.admit} accepts compiles. *)

val compile_exn : Ast.program -> program

val machine_for : program -> machine
(** A machine sized to the program's peak stack depth. *)

(** {1 Differential harness} *)

val equivalent :
  Ast.program -> flow:float array -> pkts:float array array -> (unit, string) result
(** Run the program through the compiled pipeline and the {!Eval} /
    {!Fold} interpreter side by side on a fixed flow-variable table
    ([flow_var_count] wide) and a packet stream ([pkt_field_count]-wide
    rows, fed through the active measurement in batches at each wait),
    mirroring the datapath's execution order: decisions evaluated per
    primitive, folds stepped per packet, state flushed and reset at
    [Report]. Returns [Error] describing the first divergence in fold
    state (bit-compared), decision values (bit-compared), packet counts
    or incident counters; [Error] if the program does not compile. *)
