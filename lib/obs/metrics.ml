type counter = { c_name : string; c_unit : string; mutable count : int }

type gauge = { g_name : string; g_unit : string; value : float array }
(* [value] is a 1-element float array: an unboxed cell we can set from the
   hot path without allocating (a mutable float field in a mixed record
   would box on every store). *)

type histogram = {
  h_name : string;
  h_unit : string;
  bounds : float array; (* inclusive upper edges, strictly increasing *)
  counts : int array; (* length = Array.length bounds + 1 (overflow) *)
  sums : float array; (* 1 element: running sum, unboxed *)
  mutable observations : int;
}

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type t = { table : (string, metric) Hashtbl.t }

let create () = { table = Hashtbl.create 64 }

let default_bounds =
  (* 1-2-5 series covering 1 .. 5e8: ns-scale latencies up to ~0.5 s,
     byte counts up to ~500 MB. *)
  let edges = ref [] in
  let mag = ref 1.0 in
  while !mag <= 1e8 do
    edges := (5.0 *. !mag) :: (2.0 *. !mag) :: !mag :: !edges;
    mag := !mag *. 10.0
  done;
  Array.of_list (List.rev !edges)

let counter t ?(unit_ = "") name =
  match Hashtbl.find_opt t.table name with
  | Some (Counter c) -> c
  | Some _ -> invalid_arg (name ^ " already registered as a non-counter")
  | None ->
    let c = { c_name = name; c_unit = unit_; count = 0 } in
    Hashtbl.replace t.table name (Counter c);
    c

let private_counter ?(unit_ = "") name = { c_name = name; c_unit = unit_; count = 0 }

let gauge t ?(unit_ = "") name =
  match Hashtbl.find_opt t.table name with
  | Some (Gauge g) -> g
  | Some _ -> invalid_arg (name ^ " already registered as a non-gauge")
  | None ->
    let g = { g_name = name; g_unit = unit_; value = [| 0.0 |] } in
    Hashtbl.replace t.table name (Gauge g);
    g

let check_bounds bounds =
  if Array.length bounds = 0 then invalid_arg "histogram needs >= 1 bound";
  for i = 1 to Array.length bounds - 1 do
    if bounds.(i) <= bounds.(i - 1) then
      invalid_arg "histogram bounds must be strictly increasing"
  done

let histogram t ?(unit_ = "") ?(bounds = default_bounds) name =
  match Hashtbl.find_opt t.table name with
  | Some (Histogram h) -> h
  | Some _ -> invalid_arg (name ^ " already registered as a non-histogram")
  | None ->
    check_bounds bounds;
    let h =
      {
        h_name = name;
        h_unit = unit_;
        bounds = Array.copy bounds;
        counts = Array.make (Array.length bounds + 1) 0;
        sums = [| 0.0 |];
        observations = 0;
      }
    in
    Hashtbl.replace t.table name (Histogram h);
    h

(* ---- hot path ---------------------------------------------------------- *)

let incr c = c.count <- c.count + 1
let add c n = c.count <- c.count + n
let counter_value c = c.count

let set g v = g.value.(0) <- v
let gauge_value g = g.value.(0)

(* Top-level so the recursive scan is a direct call: a [let rec] closure
   inside [observe] would allocate on every observation. *)
let rec bucket_index bounds n v i =
  if i < n && v > bounds.(i) then bucket_index bounds n v (i + 1) else i

let observe h v =
  (* Linear scan: bucket arrays are ~30 entries; binary search wins
     nothing at this size. *)
  let i = bucket_index h.bounds (Array.length h.bounds) v 0 in
  h.counts.(i) <- h.counts.(i) + 1;
  h.sums.(0) <- h.sums.(0) +. v;
  h.observations <- h.observations + 1

let observations h = h.observations

let hist_mean h =
  if h.observations = 0 then 0.0
  else h.sums.(0) /. float_of_int h.observations

let quantile_of_counts ~bounds ~counts ~observations q =
  if observations = 0 then 0.0
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let target = q *. float_of_int observations in
    let nb = Array.length bounds in
    let rec walk i cum =
      if i > nb then bounds.(nb - 1)
      else
        let cum' = cum + counts.(i) in
        if float_of_int cum' >= target && counts.(i) > 0 then
          if i = nb then
            (* overflow bucket: no upper edge, report the last finite one *)
            bounds.(nb - 1)
          else
            let lo = if i = 0 then 0.0 else bounds.(i - 1) in
            let hi = bounds.(i) in
            let frac =
              (target -. float_of_int cum) /. float_of_int counts.(i)
            in
            lo +. ((hi -. lo) *. Float.max 0.0 (Float.min 1.0 frac))
        else walk (i + 1) cum'
    in
    walk 0 0
  end

let quantile h q =
  quantile_of_counts ~bounds:h.bounds ~counts:h.counts
    ~observations:h.observations q

(* ---- snapshots --------------------------------------------------------- *)

type row = { name : string; value : float; unit_ : string }

let has_prefix ~prefix name =
  String.length name >= String.length prefix
  && String.equal (String.sub name 0 (String.length prefix)) prefix

let snapshot ?prefix t =
  let keep name =
    match prefix with None -> true | Some p -> has_prefix ~prefix:p name
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun _ metric ->
      match metric with
      | Counter c ->
        if keep c.c_name then
          rows :=
            { name = c.c_name; value = float_of_int c.count; unit_ = c.c_unit }
            :: !rows
      | Gauge g ->
        if keep g.g_name then
          rows :=
            { name = g.g_name; value = g.value.(0); unit_ = g.g_unit } :: !rows
      | Histogram h ->
        (* Filter on the base metric name: a prefix selects the whole
           histogram (all derived rows), never a slice of it. *)
        if keep h.h_name then begin
          let r name value unit_ = { name; value; unit_ } in
          rows :=
            r (h.h_name ^ "_count") (float_of_int h.observations) "count"
            :: r (h.h_name ^ "_mean") (hist_mean h) h.h_unit
            :: r (h.h_name ^ "_p50") (quantile h 0.50) h.h_unit
            :: r (h.h_name ^ "_p90") (quantile h 0.90) h.h_unit
            :: r (h.h_name ^ "_p99") (quantile h 0.99) h.h_unit
            :: !rows
        end)
    t.table;
  List.sort (fun a b -> compare a.name b.name) !rows

(* ---- raw views (for the windowed sampler) ------------------------------- *)

type hist_state = {
  hs_bounds : float array;
  hs_counts : int array;
  hs_sum : float;
  hs_observations : int;
}

type view =
  | V_counter of int
  | V_gauge of float
  | V_histogram of hist_state

let sorted_views t =
  let out = ref [] in
  Hashtbl.iter
    (fun _ metric ->
      match metric with
      | Counter c -> out := (c.c_name, c.c_unit, V_counter c.count) :: !out
      | Gauge g -> out := (g.g_name, g.g_unit, V_gauge g.value.(0)) :: !out
      | Histogram h ->
        out :=
          ( h.h_name,
            h.h_unit,
            V_histogram
              {
                hs_bounds = h.bounds;
                hs_counts = Array.copy h.counts;
                hs_sum = h.sums.(0);
                hs_observations = h.observations;
              } )
          :: !out)
    t.table;
  List.sort (fun (a, _, _) (b, _, _) -> compare a b) !out

let rows_to_json rows =
  Json.List
    (List.map
       (fun r ->
         Json.Obj
           [
             ("name", Json.Str r.name);
             ("value", Json.Num r.value);
             ("unit", Json.Str r.unit_);
           ])
       rows)

let validate_rows_json json =
  match json with
  | Json.List rows ->
    let rec check i = function
      | [] -> Ok i
      | Json.Obj fields :: rest -> (
        let str k = Option.bind (List.assoc_opt k fields) Json.to_str in
        let num k = Option.bind (List.assoc_opt k fields) Json.to_float in
        match (str "name", num "value", str "unit") with
        | Some _, Some _, Some _ -> check (i + 1) rest
        | None, _, _ -> Error (Printf.sprintf "row %d: missing name" i)
        | _, None, _ -> Error (Printf.sprintf "row %d: missing value" i)
        | _, _, None -> Error (Printf.sprintf "row %d: missing unit" i))
      | _ :: _ -> Error (Printf.sprintf "row %d: not an object" i)
    in
    check 0 rows
  | _ -> Error "top level is not an array"

let rows_of_json json =
  match validate_rows_json json with
  | Error _ as e -> e
  | Ok _ -> (
    match json with
    | Json.List objs ->
      Ok
        (List.map
           (fun o ->
             let str k = Option.get (Option.bind (Json.member k o) Json.to_str) in
             let num k = Option.get (Option.bind (Json.member k o) Json.to_float) in
             { name = str "name"; value = num "value"; unit_ = str "unit" })
           objs)
    | _ -> Error "top level is not an array")

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let merge_rows_file ~path rows =
  let existing =
    if Sys.file_exists path then
      match Json.parse (read_file path) with
      | exception Sys_error e -> Error ("cannot read " ^ e)
      | Error e -> Error (Printf.sprintf "%s: %s" path e)
      | Ok json -> (
        match rows_of_json json with
        | Error e -> Error (Printf.sprintf "%s: %s" path e)
        | Ok rows -> Ok rows)
    else Ok []
  in
  match existing with
  | Error _ as e -> e
  | Ok old ->
    let replaced = List.map (fun r -> r.name) rows in
    let kept = List.filter (fun r -> not (List.mem r.name replaced)) old in
    let merged = List.sort (fun a b -> compare a.name b.name) (kept @ rows) in
    let json = rows_to_json merged in
    (* Self-check the schema before touching the file, like the bench writer. *)
    (match validate_rows_json json with
    | Error e -> Error e
    | Ok _ -> (
      match
        Out_channel.with_open_text path (fun oc ->
            output_string oc (Json.to_string json);
            output_string oc "\n")
      with
      | () -> Ok (List.length merged)
      | exception Sys_error e -> Error ("cannot write " ^ e)))
