(** Pretty-printing of control programs back to surface syntax.

    [parse (print p)] yields a program equal to [p] (round-trip property,
    tested with qcheck). *)

val program_to_string : Ast.program -> string
