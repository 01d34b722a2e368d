(** Declarative specs for the JSON documents the simulator writes.

    A document spec is a list of fields. Each field has a name, a JSON
    kind and a getter from the OCaml value, and a document may carry one
    cross-field invariant. {!encode} and {!validate} are both derived
    from that one list, so a format is stated once and its writer and
    its checker cannot drift apart.

    Validation errors name their location once per nesting level, with
    the list index where there is one:
    ["cells 0: recoveries 0: pre_crash_cwnd -1 out of [0, inf)"]. *)

type 'a t
(** A spec for a JSON object built from an ['a]. *)

type 'a kind
(** How one JSON value carries an ['a]: its encoder and its check. *)

val string : string kind

val one_of : string list -> string kind
(** A string from a fixed set. *)

val number : ?gt:float -> ?ge:float -> ?le:float -> unit -> float kind
(** A finite number within the given bounds. [null] is rejected, which
    also rejects a NaN or infinity the encoder wrote as [null]. *)

val count : int kind
(** A non-negative integer. *)

val positive : int kind
(** An integer [>= 1]. *)

val bool : bool kind

val nullable : 'a kind -> 'a option kind
(** [null] for [None]. *)

val list : 'a kind -> 'a list kind
val obj : 'a t -> 'a kind

type 'r field

val field : string -> 'a kind -> ('r -> 'a) -> 'r field

val optional : string -> 'a kind -> ('r -> 'a option) -> 'r field
(** Omitted from the object when the getter gives [None]; checked only
    when present. *)

val tag : string -> 'r field
(** The ["schema"] field, fixed to the given version tag. *)

type 'r case

val case : string -> ('r -> 'a option) -> 'a t -> 'r case
(** [case tag project spec]: the variant case named [tag], encoded with
    [spec] whenever [project] gives [Some]. *)

val variant : string -> 'r case list -> 'r field
(** A kind-tagged variant: the field holds the case's tag and the
    case's own fields follow it in the same object. The first case
    whose projection matches encodes the value; encoding raises
    [Invalid_argument] when none does. *)

val doc : ?check:(Json.t -> (unit, string) result) -> 'r field list -> 'r t
(** [check] is the document's cross-field invariant. It runs on the
    object only after every field has passed, so it may read them with
    the [get_*] accessors below. *)

val encode : 'r t -> 'r -> Json.t

val validate : 'r t -> count:string -> Json.t -> (int, string) result
(** Check a parsed document; [Ok n] gives the length of its list field
    named [count]. *)

(** {2 For cross-field invariants} *)

val get_num : Json.t -> string -> float
val get_str : Json.t -> string -> string
val get_bool : Json.t -> string -> bool
val get_list : Json.t -> string -> Json.t list
(** Read an already validated field; raise [Invalid_argument] when it is
    absent or of another JSON type. *)

val require : bool -> ('a, unit, string, (unit, string) result) format4 -> 'a
(** [require ok fmt ...] is [Ok ()] when [ok], else the formatted error. *)

val each : string -> (Json.t -> (unit, string) result) -> Json.t -> (unit, string) result
(** [each name check obj] applies [check] to every element of the list
    field [name], prefixing an error with the element's location. *)
