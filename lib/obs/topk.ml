(* Space-saving (Misra–Gries style) heavy-hitter sketches keyed by flow
   id. A sketch tracks at most [k] keys in preallocated parallel arrays;
   when a new key arrives with the sketch full, the minimum-count entry
   is evicted and the newcomer inherits its count as overestimation
   error. The classic guarantees follow: every tracked estimate
   over-counts by at most its recorded error, and that error is at most
   [total / k] — so any key whose true count exceeds [total / k] is
   guaranteed to be tracked, which is exactly what makes per-flow
   accounting observable at N=2048 flows without N metric names.

   Eviction scans the k entries linearly; k is tens-to-hundreds and the
   scan only runs on a miss with a full sketch, never on the per-ACK
   path, so a heap buys nothing here. Ties evict the lowest slot index,
   keeping runs deterministic. *)

type sketch = {
  s_name : string;
  k : int;
  keys : int array;
  counts : int array;
  errs : int array;
  index : (int, int) Hashtbl.t;  (* key -> slot *)
  mutable used : int;
  mutable total : int;
}

type entry = { key : int; count : int; err : int }

type t = {
  table : (string, sketch) Hashtbl.t;
  default_k : int;
}

let create ?(k = 64) () =
  if k <= 0 then invalid_arg "Topk.create: k must be > 0";
  { table = Hashtbl.create 8; default_k = k }

let default_k t = t.default_k

let sketch t ?k name =
  match Hashtbl.find_opt t.table name with
  | Some s -> s
  | None ->
    let k = Option.value ~default:t.default_k k in
    if k <= 0 then invalid_arg "Topk.sketch: k must be > 0";
    let s =
      {
        s_name = name;
        k;
        keys = Array.make k 0;
        counts = Array.make k 0;
        errs = Array.make k 0;
        index = Hashtbl.create (2 * k);
        used = 0;
        total = 0;
      }
    in
    Hashtbl.replace t.table name s;
    s

let name s = s.s_name
let k s = s.k
let total s = s.total
let tracked s = s.used

let add s key w =
  if w < 0 then invalid_arg "Topk.add: negative weight";
  if w > 0 then begin
    s.total <- s.total + w;
    match Hashtbl.find_opt s.index key with
    | Some slot -> s.counts.(slot) <- s.counts.(slot) + w
    | None ->
      if s.used < s.k then begin
        let slot = s.used in
        s.used <- s.used + 1;
        s.keys.(slot) <- key;
        s.counts.(slot) <- w;
        s.errs.(slot) <- 0;
        Hashtbl.replace s.index key slot
      end
      else begin
        (* Evict the minimum-count entry (ties to the lowest slot). *)
        let victim = ref 0 in
        for i = 1 to s.k - 1 do
          if s.counts.(i) < s.counts.(!victim) then victim := i
        done;
        let slot = !victim in
        Hashtbl.remove s.index s.keys.(slot);
        Hashtbl.replace s.index key slot;
        s.errs.(slot) <- s.counts.(slot);
        s.counts.(slot) <- s.counts.(slot) + w;
        s.keys.(slot) <- key
      end
  end

let touch s key = add s key 1

let entries s =
  let out = ref [] in
  for i = s.used - 1 downto 0 do
    out := { key = s.keys.(i); count = s.counts.(i); err = s.errs.(i) } :: !out
  done;
  List.sort
    (fun a b ->
      match compare b.count a.count with 0 -> compare a.key b.key | c -> c)
    !out

let find s key =
  match Hashtbl.find_opt s.index key with
  | None -> None
  | Some slot ->
    Some { key; count = s.counts.(slot); err = s.errs.(slot) }

(* The space-saving invariant, rechecked by tests and the timeline
   validator: every entry's recorded overestimation is within the proven
   bound. *)
let error_bound s = if s.used < s.k then 0 else s.total / s.k

let sketches t =
  let names = Hashtbl.fold (fun name _ acc -> name :: acc) t.table [] in
  List.map
    (fun n -> Hashtbl.find t.table n)
    (List.sort compare names)

let entry_spec =
  Schema.(
    doc
      [
        field "key" count (fun e -> e.key);
        field "count" count (fun e -> e.count);
        field "err" count (fun e -> e.err);
      ])

(* The space-saving invariant, checked on the exported document: at most
   k entries, and every entry's err within the bound [error_bound]
   states. *)
let check_bound s =
  let k = Schema.get_num s "k" in
  let held = float_of_int (List.length (Schema.get_list s "entries")) in
  if held > k then Error (Printf.sprintf "%g entries exceed k %g" held k)
  else
    let bound = if held < k then 0.0 else Schema.get_num s "total" /. k in
    Schema.each "entries"
      (fun e ->
        let err = Schema.get_num e "err" in
        Schema.require (err <= bound) "err %g exceeds space-saving bound %g" err bound)
      s

let spec =
  Schema.(
    doc ~check:check_bound
      [
        field "name" string name;
        field "k" positive k;
        field "total" count total;
        field "entries" (list (obj entry_spec)) entries;
      ])
