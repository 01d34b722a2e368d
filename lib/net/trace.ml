open Ccp_util
open Ccp_eventsim

(* A series is two growable columns, unboxed times and unboxed values,
   filled up to [len]. A column starts empty and doubles from 4 slots,
   so the thousands of series of a large incast stay small, and a point
   costs two words once the columns have grown. Past [chunk] points the
   full columns are set aside whole and new ones of [chunk] points open:
   a long series neither copies its points again nor leaves a dead
   column as large as itself for the major GC, whose late collection of
   one made a run's peak heap jump by a whole column. *)
type handle = {
  sim : Sim.t;
  mutable times : int array;
  mutable values : float array;
  mutable len : int;
  mutable full : (int array * float array) list;  (* full columns, newest first *)
}

let chunk = 16_384

type t = { trace_sim : Sim.t; tbl : (string, handle) Hashtbl.t }

let create sim = { trace_sim = sim; tbl = Hashtbl.create 16 }

let handle t name =
  match Hashtbl.find_opt t.tbl name with
  | Some h -> h
  | None ->
    let h = { sim = t.trace_sim; times = [||]; values = [||]; len = 0; full = [] } in
    Hashtbl.add t.tbl name h;
    h

let grow h =
  if h.len >= chunk then begin
    h.full <- (h.times, h.values) :: h.full;
    h.times <- Array.make chunk 0;
    h.values <- Array.make chunk 0.0;
    h.len <- 0
  end
  else begin
    let cap = max 4 (2 * h.len) in
    let times = Array.make cap 0 and values = Array.make cap 0.0 in
    Array.blit h.times 0 times 0 h.len;
    Array.blit h.values 0 values 0 h.len;
    h.times <- times;
    h.values <- values
  end

let[@inline] push h value =
  if h.len = Array.length h.times then grow h;
  Array.unsafe_set h.times h.len (Sim.now h.sim);
  Array.unsafe_set h.values h.len value;
  h.len <- h.len + 1

let add t ~series value = push (handle t series) value

let sample_every t ~series ~every ?until probe =
  if not (Time_ns.is_positive every) then invalid_arg "Trace.sample_every: period must be positive";
  let h = handle t series in
  let rec tick () =
    let due = Time_ns.add (Sim.now t.trace_sim) every in
    match until with
    | Some limit when Time_ns.compare due limit > 0 -> ()
    | Some _ | None ->
      ignore
        (Sim.schedule t.trace_sim ~at:due (fun () ->
             push h (probe ());
             tick ()))
  in
  tick ()

let series t name =
  match Hashtbl.find_opt t.tbl name with
  | None -> []
  | Some h ->
    (* The first [n] points of a column, in front of [acc]. *)
    let rec points times values n acc =
      if n = 0 then acc else points times values (n - 1) ((times.(n - 1), values.(n - 1)) :: acc)
    in
    List.fold_left
      (fun acc (times, values) -> points times values (Array.length times) acc)
      (points h.times h.values h.len [])
      h.full

let series_names t =
  Hashtbl.fold (fun name h acc -> if h.len > 0 || h.full <> [] then name :: acc else acc) t.tbl []
  |> List.sort String.compare

let to_csv t ~name =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "time_s,value\n";
  List.iter
    (fun (at, v) -> Buffer.add_string buf (Printf.sprintf "%.6f,%.6f\n" (Time_ns.to_float_sec at) v))
    (series t name);
  Buffer.contents buf

let downsample pts ~max_points =
  let n = List.length pts in
  if max_points <= 0 then invalid_arg "Trace.downsample: max_points must be positive";
  if n <= max_points then pts
  else begin
    let arr = Array.of_list pts in
    let stride = float_of_int (n - 1) /. float_of_int (max_points - 1) in
    List.init max_points (fun i ->
        let idx = int_of_float (Float.round (float_of_int i *. stride)) in
        arr.(Stdlib.min idx (n - 1)))
  end
