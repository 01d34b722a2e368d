(* Declarative JSON document specs: one field list per document, from
   which both the encoder and the validator are derived. A kind pairs a
   value's encoder with its check; a field adds the name and the getter;
   a document is a field list plus an optional cross-field invariant
   that runs once every field has passed. *)

type 'a kind = {
  enc : 'a -> Json.t;
  check : string -> Json.t -> (unit, string) result;
      (* [check name v]; errors start with [name] *)
}

type 'r field = {
  put : 'r -> (string * Json.t) list;
  get : Json.t -> (unit, string) result;  (* checks this field of an object *)
}

type 'r t = { fields : 'r field list; invariant : Json.t -> (unit, string) result }

let ( let* ) = Result.bind
let error fmt = Printf.ksprintf Result.error fmt
let require ok fmt = Printf.ksprintf (fun msg -> if ok then Ok () else Error msg) fmt

let rec check_all check = function
  | [] -> Ok ()
  | x :: rest ->
    let* () = check x in
    check_all check rest

let check_items name check items =
  check_all (fun (i, v) -> check (Printf.sprintf "%s %d" name i) v)
    (List.mapi (fun i v -> (i, v)) items)

let doc ?(check = fun _ -> Ok ()) fields = { fields; invariant = check }
let encode_fields d r = List.concat_map (fun f -> f.put r) d.fields
let encode d r = Json.Obj (encode_fields d r)

let check_doc d json =
  let* () = check_all (fun f -> f.get json) d.fields in
  d.invariant json

(* ---- kinds ---------------------------------------------------------------- *)

let scalar what enc is =
  { enc; check = (fun name v -> if is v then Ok () else error "%s is not %s" name what) }

let string = scalar "a string" (fun s -> Json.Str s) (function Json.Str _ -> true | _ -> false)

let one_of allowed =
  {
    string with
    check =
      (fun name -> function
        | Json.Str s when List.mem s allowed -> Ok ()
        | Json.Str s -> error "%s %S is not one of %s" name s (String.concat ", " allowed)
        | v -> string.check name v);
  }

let finite name = function
  | Json.Num v when Float.is_finite v -> Ok v
  | _ -> error "%s is not a finite number" name

let number ?gt ?ge ?le () =
  let lo, above =
    match (gt, ge) with
    | Some b, _ -> (Printf.sprintf "(%g" b, fun v -> v > b)
    | None, Some b -> (Printf.sprintf "[%g" b, fun v -> v >= b)
    | None, None -> ("(-inf", fun _ -> true)
  in
  let hi, below =
    match le with
    | Some b -> (Printf.sprintf "%g]" b, fun v -> v <= b)
    | None -> ("inf)", fun _ -> true)
  in
  {
    enc = (fun v -> Json.Num v);
    check =
      (fun name j ->
        let* v = finite name j in
        if above v && below v then Ok () else error "%s %g out of %s, %s" name v lo hi);
  }

let integer ~min what =
  {
    enc = (fun n -> Json.Num (float_of_int n));
    check =
      (fun name j ->
        let* v = finite name j in
        if v >= min && Float.is_integer v then Ok ()
        else error "%s %g is not a %s integer" name v what);
  }

let count = integer ~min:0.0 "non-negative"
let positive = integer ~min:1.0 "positive"

let bool = scalar "a bool" (fun b -> Json.Bool b) (function Json.Bool _ -> true | _ -> false)

let nullable k =
  {
    enc = (function None -> Json.Null | Some v -> k.enc v);
    check = (fun name -> function Json.Null -> Ok () | v -> k.check name v);
  }

let list k =
  {
    enc = (fun l -> Json.List (List.map k.enc l));
    check =
      (fun name -> function
        | Json.List items -> check_items name k.check items
        | _ -> error "%s is not an array" name);
  }

let obj d =
  {
    enc = encode d;
    check =
      (fun name -> function
        | Json.Obj _ as j -> Result.map_error (Printf.sprintf "%s: %s" name) (check_doc d j)
        | _ -> error "%s is not an object" name);
  }

(* ---- fields --------------------------------------------------------------- *)

let field name kind get =
  {
    put = (fun r -> [ (name, kind.enc (get r)) ]);
    get =
      (fun json ->
        match Json.member name json with
        | Some v -> kind.check name v
        | None -> error "missing field %S" name);
  }

let optional name kind get =
  {
    put = (fun r -> match get r with Some v -> [ (name, kind.enc v) ] | None -> []);
    get =
      (fun json ->
        match Json.member name json with Some v -> kind.check name v | None -> Ok ());
  }

let tag value = field "schema" (one_of [ value ]) (fun _ -> value)

type 'r case = Case : string * ('r -> 'a option) * 'a t -> 'r case

let case tag project d = Case (tag, project, d)

let variant name cases =
  let tags = List.map (fun (Case (tag, _, _)) -> tag) cases in
  let tag_field = field name (one_of tags) Fun.id in
  let rec put r = function
    | [] -> invalid_arg (Printf.sprintf "Schema.variant %s: no case matches" name)
    | Case (tag, project, d) :: rest -> (
      match project r with
      | Some v -> (name, Json.Str tag) :: encode_fields d v
      | None -> put r rest)
  in
  {
    put = (fun r -> put r cases);
    get =
      (fun json ->
        let* () = tag_field.get json in
        let tag = Option.get (Option.bind (Json.member name json) Json.to_str) in
        match List.find (fun (Case (t, _, _)) -> String.equal t tag) cases with
        | Case (_, _, d) -> check_doc d json);
  }

(* ---- validation ----------------------------------------------------------- *)

let get what project json name =
  match Option.bind (Json.member name json) project with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Schema.get_%s: no %s field %S" what what name)

let get_num = get "num" Json.to_float
let get_str = get "str" Json.to_str
let get_bool = get "bool" (function Json.Bool b -> Some b | _ -> None)
let get_list = get "list" (function Json.List l -> Some l | _ -> None)

let each name check json =
  check_items name (fun where v -> Result.map_error (Printf.sprintf "%s: %s" where) (check v))
    (get_list json name)

let validate d ~count json =
  let* () = check_doc d json in
  Ok (List.length (get_list json count))
