open Ccp_util

type interval = { from_ : Time_ns.t; until : Time_ns.t }

type spike = { probability : float; extra : Time_ns.t }
type reorder = { probability : float; window : Time_ns.t }

type t = {
  drop_probability : float;
  duplicate_probability : float;
  spike : spike option;
  reorder : reorder option;
  partitions : interval list;
  agent_outages : interval list;
}

let none =
  {
    drop_probability = 0.0;
    duplicate_probability = 0.0;
    spike = None;
    reorder = None;
    partitions = [];
    agent_outages = [];
  }

let is_none t =
  t.drop_probability = 0.0
  && t.duplicate_probability = 0.0
  && t.spike = None
  && t.reorder = None
  && t.partitions = []
  && t.agent_outages = []

let check_probability what p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg (Printf.sprintf "Fault_plan: %s probability %g outside [0,1]" what p)

let check_interval what { from_; until } =
  if Time_ns.compare until from_ <= 0 then
    invalid_arg
      (Printf.sprintf "Fault_plan: %s interval [%s, %s) is empty or inverted" what
         (Time_ns.to_string from_) (Time_ns.to_string until))

(* Sort intervals by start and merge any that overlap or abut, so
   [agent_down]/[in_partition] answer the same question however the caller
   phrased the episodes ([0,5)+[3,8) and [0,8) are the same outage) and
   [partition_time] never double-counts. *)
let normalize_intervals intervals =
  let sorted =
    List.sort
      (fun a b ->
        match Time_ns.compare a.from_ b.from_ with
        | 0 -> Time_ns.compare a.until b.until
        | c -> c)
      intervals
  in
  let rec merge = function
    | a :: b :: rest when Time_ns.compare b.from_ a.until <= 0 ->
        let until = if Time_ns.compare a.until b.until >= 0 then a.until else b.until in
        merge ({ a with until } :: rest)
    | a :: rest -> a :: merge rest
    | [] -> []
  in
  merge sorted

let make ?(drop_probability = 0.0) ?(duplicate_probability = 0.0) ?spike ?reorder
    ?(partitions = []) ?(agent_outages = []) () =
  check_probability "drop" drop_probability;
  check_probability "duplicate" duplicate_probability;
  Option.iter
    (fun (s : spike) ->
      check_probability "spike" s.probability;
      if Time_ns.compare s.extra Time_ns.zero < 0 then
        invalid_arg "Fault_plan: spike extra delay is negative")
    spike;
  Option.iter
    (fun (r : reorder) ->
      check_probability "reorder" r.probability;
      if Time_ns.compare r.window Time_ns.zero < 0 then
        invalid_arg "Fault_plan: reorder window is negative")
    reorder;
  List.iter (check_interval "partition") partitions;
  List.iter (check_interval "agent outage") agent_outages;
  {
    drop_probability;
    duplicate_probability;
    spike;
    reorder;
    partitions = normalize_intervals partitions;
    agent_outages = normalize_intervals agent_outages;
  }

let crash ~at ~restart t =
  let episode = { from_ = at; until = restart } in
  check_interval "agent outage" episode;
  { t with agent_outages = normalize_intervals (t.agent_outages @ [ episode ]) }

(* Direct recursion: the channel asks on every frame, and a partially
   applied predicate would allocate a closure each time. *)
let rec covers at = function
  | [] -> false
  | { from_; until } :: rest ->
    (Time_ns.compare at from_ >= 0 && Time_ns.compare at until < 0) || covers at rest

let agent_down t at = covers at t.agent_outages
let in_partition t at = covers at t.partitions || agent_down t at

let partition_time t =
  List.fold_left
    (fun acc i -> Time_ns.add acc (Time_ns.sub i.until i.from_))
    Time_ns.zero
    (t.partitions @ t.agent_outages)

let describe t =
  if is_none t then "none"
  else begin
    let parts = ref [] in
    let add fmt = Printf.ksprintf (fun s -> parts := s :: !parts) fmt in
    if t.drop_probability > 0.0 then add "drop=%g" t.drop_probability;
    if t.duplicate_probability > 0.0 then add "dup=%g" t.duplicate_probability;
    Option.iter
      (fun (s : spike) -> add "spike=%g+%s" s.probability (Time_ns.to_string s.extra))
      t.spike;
    Option.iter
      (fun (r : reorder) -> add "reorder=%g/%s" r.probability (Time_ns.to_string r.window))
      t.reorder;
    List.iter
      (fun i -> add "partition=[%s,%s)" (Time_ns.to_string i.from_) (Time_ns.to_string i.until))
      t.partitions;
    List.iter
      (fun i -> add "crash=[%s,%s)" (Time_ns.to_string i.from_) (Time_ns.to_string i.until))
      t.agent_outages;
    String.concat " " (List.rev !parts)
  end
