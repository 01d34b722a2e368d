(** Static validation of control programs.

    The agent validates every program before installing it; the datapath
    validates again on receipt (it cannot trust the channel). Checks:

    - every variable resolves (flow variable, or declared fold state field
      within fold updates);
    - [pkt.x] appears only inside fold updates and names a known field;
    - builtins exist and are applied at the right arity;
    - [Measure(vector ...)] columns name known packet fields;
    - fold updates only assign declared state fields; no duplicate fields;
    - a repeating program contains a [Wait]/[WaitRtts] (otherwise the
      datapath would spin through the loop without advancing time).

    Warnings (don't block installation): no [Report] in a repeating
    program; dead primitives after a final [Report] in a [Once] program. *)

type error = { message : string }
type warning = { message : string }

val check : Ast.program -> (warning list, error list) result

val pp_error : Format.formatter -> error -> unit
