(** Agent-side policy enforcement (§2: "the agent ... imposes policies on
    the decisions of the congestion control algorithms, e.g.,
    per-connection maximum transmission rates").

    Direct commands are clamped; installed programs are rewritten so that
    every [Rate(e)] becomes [Rate(min(e, cap))] and every [Cwnd(e)]
    becomes [Cwnd(min(e, cap))] — the policy travels with the program and
    holds between agent decisions. *)

type t = {
  max_rate_bps : float option;  (** cap on the pacing rate, bytes/second *)
  max_cwnd_bytes : int option;
  min_cwnd_bytes : int option;  (** floor, e.g. one MSS *)
}

val unrestricted : t
val with_max_rate : float -> t

val clamp_rate : t -> float -> float
val clamp_cwnd : t -> int -> int

val apply_program : t -> Ccp_lang.Ast.program -> Ccp_lang.Ast.program
(** Rewrite [Rate]/[Cwnd] primitives to respect the caps; identity for
    {!unrestricted}. *)
