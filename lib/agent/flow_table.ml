(* Generation-checked slot pool for per-flow agent state.

   This is the Ccp_obs.Tracer pool idiom lifted to hold arbitrary
   per-flow values: an array of slots, a free stack, and a generation
   counter per slot folded into every handed-out token. Registration and
   teardown then touch only the slot arrays (plus one flow-id index
   entry), and a reference that outlives its flow — an algorithm closure
   still holding a handle after Closed, a quarantine timer firing late —
   fails the generation check and is *counted* as stale instead of
   silently mutating whichever flow reused the slot.

   A capped table never grows: exhaustion is a structured
   [Error `Pool_exhausted], never an exception on the dispatch path. An
   uncapped one starts small and doubles when full. The slot field of a
   token has a fixed width, so tokens minted before a growth stay valid
   after it. *)

type token = int

let no_token = -1

type stats = {
  capacity : int;
  live : int;
  registered : int;
  released : int;
  stale_refs : int;
  rejected : int;
}

(* token = slot lor (generation lsl slot_bits) *)
let slot_bits = 30
let slot_mask = (1 lsl slot_bits) - 1
let initial_capacity = 16

type 'a t = {
  capped : bool;
  mutable cap : int;
  mutable gen : int array;
  mutable slot_flow : int array;  (* flow id occupying the slot; -1 when free *)
  mutable slots : 'a option array;  (* [None] when free *)
  mutable free : int array;  (* stack of free slot indices *)
  mutable free_top : int;
  index : (int, token) Hashtbl.t;  (* flow id -> live token *)
  mutable registered : int;
  mutable released : int;
  stale_refs : Ccp_obs.Metrics.counter;  (* [agent.pool.stale_derefs] *)
  rejected : Ccp_obs.Metrics.counter;  (* [agent.registrations_rejected] *)
}

let rec pow2_at_least n acc = if acc >= n then acc else pow2_at_least n (acc * 2)

(* Low slots pop first, matching the tracer pool's fill order. *)
let push_free_range t ~from ~upto =
  for slot = upto - 1 downto from do
    t.free.(t.free_top) <- slot;
    t.free_top <- t.free_top + 1
  done

let create ?capacity ?obs () =
  let cap =
    match capacity with
    | None -> initial_capacity
    | Some c ->
      if c <= 0 || c > slot_mask + 1 then
        invalid_arg "Flow_table.create: capacity must be in [1, 2^30]";
      pow2_at_least c 1
  in
  let t =
    {
      capped = capacity <> None;
      cap;
      gen = Array.make cap 0;
      slot_flow = Array.make cap (-1);
      slots = Array.make cap None;
      free = Array.make cap 0;
      free_top = 0;
      index = Hashtbl.create cap;
      registered = 0;
      released = 0;
      stale_refs = Ccp_obs.Obs.counter obs ~unit_:"refs" "agent.pool.stale_derefs";
      rejected = Ccp_obs.Obs.counter obs ~unit_:"flows" "agent.registrations_rejected";
    }
  in
  push_free_range t ~from:0 ~upto:cap;
  t

let grow t =
  let old = t.cap in
  let cap = 2 * old in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 old;
    b
  in
  t.gen <- extend t.gen 0;
  t.slot_flow <- extend t.slot_flow (-1);
  t.slots <- extend t.slots None;
  t.free <- extend t.free 0;
  t.cap <- cap;
  push_free_range t ~from:old ~upto:cap

let capacity t = t.cap
let live t = t.registered - t.released

let token_of t ~flow = Hashtbl.find_opt t.index flow

let release_slot t slot =
  (* Bumping the generation is what invalidates every outstanding token
     for this slot; the new occupant mints tokens under the new one. *)
  t.gen.(slot) <- t.gen.(slot) + 1;
  t.slots.(slot) <- None;
  Hashtbl.remove t.index t.slot_flow.(slot);
  t.slot_flow.(slot) <- -1;
  t.free.(t.free_top) <- slot;
  t.free_top <- t.free_top + 1;
  t.released <- t.released + 1

let release t ~flow =
  match Hashtbl.find_opt t.index flow with
  | None -> false
  | Some token ->
    release_slot t (token land slot_mask);
    true

let register t ~flow value =
  (* Re-registration replaces (Hashtbl.replace semantics): the previous
     slot is released first, so its outstanding tokens go stale. *)
  ignore (release t ~flow : bool);
  if t.free_top = 0 && not t.capped then grow t;
  if t.free_top = 0 then begin
    Ccp_obs.Metrics.incr t.rejected;
    Error `Pool_exhausted
  end
  else begin
    t.free_top <- t.free_top - 1;
    let slot = t.free.(t.free_top) in
    let token = slot lor (t.gen.(slot) lsl slot_bits) in
    t.slot_flow.(slot) <- flow;
    t.slots.(slot) <- Some value;
    Hashtbl.replace t.index flow token;
    t.registered <- t.registered + 1;
    Ok token
  end

let is_live t token =
  token >= 0
  &&
  let slot = token land slot_mask in
  slot < t.cap && Option.is_some t.slots.(slot) && t.gen.(slot) = token lsr slot_bits

let get t token =
  if is_live t token then t.slots.(token land slot_mask)
  else begin
    if token >= 0 then Ccp_obs.Metrics.incr t.stale_refs;
    None
  end

let find t ~flow =
  match Hashtbl.find_opt t.index flow with
  | None -> None
  | Some token -> t.slots.(token land slot_mask)

let iter t f =
  for slot = 0 to t.cap - 1 do
    match t.slots.(slot) with
    | Some v -> f t.slot_flow.(slot) v
    | None -> ()
  done

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun flow v -> acc := f flow v !acc);
  !acc

let clear t =
  for slot = 0 to t.cap - 1 do
    if Option.is_some t.slots.(slot) then release_slot t slot
  done

let stats t =
  {
    capacity = t.cap;
    live = live t;
    registered = t.registered;
    released = t.released;
    stale_refs = Ccp_obs.Metrics.counter_value t.stale_refs;
    rejected = Ccp_obs.Metrics.counter_value t.rejected;
  }
