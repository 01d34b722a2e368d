open Ccp_util

(* The event queue is an indexed binary min-heap in struct-of-arrays
   form: entry [i] is the event keyed [(ats.(i), seqs.(i))] whose handle
   is [timers.(i)], and every queued handle records its own index in
   [slot]. Keys are unboxed ints, so comparisons need no closure call,
   and the back-pointers let [cancel] and [reschedule] find an entry in
   O(1). Only live events are queued: a cancelled one leaves at once.

   A delay line keeps its own events in a ring, in key order, and only
   its earliest one is keyed in the heap, under the line's [entry]
   timer. Every line event draws its key exactly as [schedule] would,
   so the heap and the lines together fire events in the order one heap
   holding all of them would. *)

type timer = { mutable slot : int; callback : unit -> unit; sim : t }
(* [slot] is the heap index, or -1 once the event has fired or been
   cancelled. *)

and t = {
  mutable clock : Time_ns.t;
  mutable ats : int array;
  mutable seqs : int array;
  mutable timers : timer array;
  mutable len : int;
  mutable next_seq : int;
  mutable behind : int;
      (* Line events not keyed in the heap: every line's entries but
         its head. *)
  mutable lines : any_line list;  (* for [audit] *)
  vacant : timer;
      (* Fills every slot at or past [len], so a queue never keeps a
         fired or cancelled callback reachable. *)
  root_rng : Rng.t;
}

(* A ring of [count] events from [first], capacity a power of two (or
   0 before the first push). Slots outside the ring hold [filler], so a
   delivered item is not kept reachable. *)
and 'a line = {
  owner : t;
  deliver : 'a -> unit;
  filler : 'a;
  mutable l_ats : int array;
  mutable l_seqs : int array;
  mutable items : 'a array;
  mutable first : int;
  mutable count : int;
  entry : timer;  (* keyed by the head event while [count > 0] *)
}

and any_line = Line : 'a line -> any_line

let create ?(seed = 42) () =
  let root_rng = Rng.create ~seed in
  let rec t =
    {
      clock = Time_ns.zero;
      ats = [||];
      seqs = [||];
      timers = [||];
      len = 0;
      next_seq = 0;
      behind = 0;
      lines = [];
      vacant;
      root_rng;
    }
  and vacant = { slot = -1; callback = ignore; sim = t } in
  t

let now t = t.clock
let rng t = t.root_rng

(* --- heap primitives --- *)

(* Whether key [(at, seq)] sorts strictly before entry [i]. Ties on [at]
   break by [seq], the order of scheduling, so equal instants fire FIFO. *)
let before t (at : int) (seq : int) i =
  let at' = Array.unsafe_get t.ats i in
  at < at' || (at = at' && seq < Array.unsafe_get t.seqs i)

let place t i at seq timer =
  Array.unsafe_set t.ats i at;
  Array.unsafe_set t.seqs i seq;
  Array.unsafe_set t.timers i timer;
  timer.slot <- i

let move t ~src ~dst =
  place t dst (Array.unsafe_get t.ats src) (Array.unsafe_get t.seqs src)
    (Array.unsafe_get t.timers src)

(* Fill the hole at [i] with the given entry, moving it towards the root
   while it sorts before its parent. *)
let rec sift_up t i at seq timer =
  if i = 0 then place t 0 at seq timer
  else begin
    let parent = (i - 1) lsr 1 in
    if before t at seq parent then begin
      move t ~src:parent ~dst:i;
      sift_up t parent at seq timer
    end
    else place t i at seq timer
  end

(* Fill the hole at [i] with the given entry, moving it towards the
   leaves while a child sorts before it. *)
let rec sift_down t i at seq timer =
  let left = (2 * i) + 1 in
  if left >= t.len then place t i at seq timer
  else begin
    let right = left + 1 in
    let child =
      if
        right < t.len
        && before t (Array.unsafe_get t.ats right) (Array.unsafe_get t.seqs right) left
      then right
      else left
    in
    if before t at seq child then place t i at seq timer
    else begin
      move t ~src:child ~dst:i;
      sift_down t child at seq timer
    end
  end

(* Re-key the hole at [i] with the given entry and restore heap order. *)
let settle t i at seq timer =
  if i > 0 && before t at seq ((i - 1) lsr 1) then sift_up t i at seq timer
  else sift_down t i at seq timer

let grow t =
  let cap = Array.length t.ats in
  let cap' = max 16 (2 * cap) in
  let ats = Array.make cap' 0 and seqs = Array.make cap' 0 in
  let timers = Array.make cap' t.vacant in
  Array.blit t.ats 0 ats 0 t.len;
  Array.blit t.seqs 0 seqs 0 t.len;
  Array.blit t.timers 0 timers 0 t.len;
  t.ats <- ats;
  t.seqs <- seqs;
  t.timers <- timers

let draw_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let insert_keyed t at seq timer =
  if t.len = Array.length t.ats then grow t;
  let i = t.len in
  t.len <- i + 1;
  sift_up t i at seq timer

let insert t at timer = insert_keyed t at (draw_seq t) timer

(* Take entry [i] out of the queue: the last entry fills the hole, and
   its old slot is handed back to [vacant]. *)
let remove t i =
  let timer = Array.unsafe_get t.timers i in
  timer.slot <- -1;
  let last = t.len - 1 in
  t.len <- last;
  let at = Array.unsafe_get t.ats last and seq = Array.unsafe_get t.seqs last in
  let moved = Array.unsafe_get t.timers last in
  Array.unsafe_set t.timers last t.vacant;
  if i < last then settle t i at seq moved

(* --- public interface --- *)

let check_future t ~at what =
  if Time_ns.compare at t.clock < 0 then
    invalid_arg
      (Printf.sprintf "Sim.%s: time %s is before now %s" what (Time_ns.to_string at)
         (Time_ns.to_string t.clock))

let timer t callback = { slot = -1; callback; sim = t }

let schedule t ~at callback =
  check_future t ~at "schedule";
  let timer = timer t callback in
  insert t at timer;
  timer

let schedule_after t ~delay callback =
  let delay = Time_ns.max delay Time_ns.zero in
  schedule t ~at:(Time_ns.add t.clock delay) callback

let reschedule t timer ~at =
  if timer.sim != t then invalid_arg "Sim.reschedule: timer belongs to another simulator";
  check_future t ~at "reschedule";
  let i = timer.slot in
  if i < 0 then insert t at timer else settle t i at (draw_seq t) timer

let cancel timer = if timer.slot >= 0 then remove timer.sim timer.slot
let is_pending timer = timer.slot >= 0
let pending_events t = t.len + t.behind

(* --- delay lines --- *)

(* Deliver the head event. The ring and the heap are consistent again
   before [deliver] runs, so it may push onto this very line. *)
let fire_line l =
  let t = l.owner in
  let i = l.first in
  let item = Array.unsafe_get l.items i in
  Array.unsafe_set l.items i l.filler;
  l.first <- (i + 1) land (Array.length l.items - 1);
  l.count <- l.count - 1;
  if l.count > 0 then begin
    t.behind <- t.behind - 1;
    insert_keyed t (Array.unsafe_get l.l_ats l.first) (Array.unsafe_get l.l_seqs l.first) l.entry
  end;
  l.deliver item

let line t ~filler deliver =
  let rec l =
    {
      owner = t;
      deliver;
      filler;
      l_ats = [||];
      l_seqs = [||];
      items = [||];
      first = 0;
      count = 0;
      entry;
    }
  and entry = { slot = -1; callback = (fun () -> fire_line l); sim = t } in
  t.lines <- Line l :: t.lines;
  l

(* Double the ring, unrolling it to start at slot 0. *)
let grow_line l =
  let cap = Array.length l.items in
  let cap' = max 16 (2 * cap) in
  let ats = Array.make cap' 0 and seqs = Array.make cap' 0 in
  let items = Array.make cap' l.filler in
  for k = 0 to l.count - 1 do
    let i = (l.first + k) land (cap - 1) in
    ats.(k) <- l.l_ats.(i);
    seqs.(k) <- l.l_seqs.(i);
    items.(k) <- l.items.(i)
  done;
  l.l_ats <- ats;
  l.l_seqs <- seqs;
  l.items <- items;
  l.first <- 0

(* Open the ring position for an event due at [at], whose sequence
   number is larger than every queued one: entries due strictly later
   move back one slot. Returns the position, counted from [first]. *)
let rec open_slot l at mask k =
  if k = 0 then 0
  else begin
    let prev = (l.first + k - 1) land mask in
    if at < Array.unsafe_get l.l_ats prev then begin
      let i = (l.first + k) land mask in
      Array.unsafe_set l.l_ats i (Array.unsafe_get l.l_ats prev);
      Array.unsafe_set l.l_seqs i (Array.unsafe_get l.l_seqs prev);
      Array.unsafe_set l.items i (Array.unsafe_get l.items prev);
      open_slot l at mask (k - 1)
    end
    else k
  end

let push l ~at item =
  let t = l.owner in
  check_future t ~at "push";
  if l.count = Array.length l.items then grow_line l;
  let seq = draw_seq t in
  let mask = Array.length l.items - 1 in
  let k = open_slot l at mask l.count in
  let i = (l.first + k) land mask in
  Array.unsafe_set l.l_ats i at;
  Array.unsafe_set l.l_seqs i seq;
  Array.unsafe_set l.items i item;
  l.count <- l.count + 1;
  if l.count = 1 then insert_keyed t at seq l.entry
  else begin
    t.behind <- t.behind + 1;
    (* A new head sorts before the old one: re-key the heap entry. *)
    if k = 0 then settle t l.entry.slot at seq l.entry
  end

let line_length l = l.count

(* --- driving --- *)

(* Pop the earliest event, advance the clock to it and run it. The handle
   is no longer pending while its callback runs, so the callback may
   re-arm it. *)
let fire_next t =
  let timer = Array.unsafe_get t.timers 0 in
  t.clock <- Array.unsafe_get t.ats 0;
  remove t 0;
  timer.callback ()

let step t =
  if t.len = 0 then false
  else begin
    fire_next t;
    true
  end

let run ?until ?(max_events = max_int) t =
  let rec loop fired =
    if fired < max_events && t.len > 0 then
      match until with
      | Some limit when Array.unsafe_get t.ats 0 > limit -> t.clock <- limit
      | Some _ | None ->
        fire_next t;
        loop (fired + 1)
  in
  loop 0

(* --- audit --- *)

(* A line's ring is in key order, its vacant slots hold [filler], and
   its head is keyed in the heap under [entry] (which is idle when the
   line is empty). *)
let audit_line t l =
  let cap = Array.length l.items in
  let pos k = (l.first + k) land (cap - 1) in
  let rec ordered k =
    if k >= l.count then Ok ()
    else begin
      let i = pos k and prev = pos (k - 1) in
      let at = l.l_ats.(i) and at' = l.l_ats.(prev) in
      if at' > at || (at' = at && l.l_seqs.(prev) >= l.l_seqs.(i)) then
        Error (Printf.sprintf "line entry %d sorts before entry %d" k (k - 1))
      else ordered (k + 1)
    end
  in
  let rec vacated k =
    if k >= cap then Ok ()
    else if l.items.(pos k) != l.filler then
      Error (Printf.sprintf "vacant line slot %d still holds an item" (pos k))
    else vacated (k + 1)
  in
  let slot = l.entry.slot in
  if l.count = 0 then
    if slot >= 0 then Error "an empty line is keyed in the heap" else vacated 0
  else if slot < 0 || slot >= t.len || t.timers.(slot) != l.entry then
    Error "a line's head is not keyed in the heap"
  else if t.ats.(slot) <> l.l_ats.(l.first) || t.seqs.(slot) <> l.l_seqs.(l.first) then
    Error
      (Printf.sprintf "line keyed at (%d, %d) in the heap, its head is (%d, %d)" t.ats.(slot)
         t.seqs.(slot) l.l_ats.(l.first) l.l_seqs.(l.first))
  else match ordered 1 with Ok () -> vacated l.count | Error _ as e -> e

let audit_lines t =
  let rec walk lines ~entries ~heads =
    match lines with
    | [] ->
      if pending_events t <> t.len - heads + entries then
        Error
          (Printf.sprintf "pending_events is %d; the heap holds %d timers and the lines %d events"
             (pending_events t) (t.len - heads) entries)
      else Ok ()
    | Line l :: rest -> (
      match audit_line t l with
      | Error _ as e -> e
      | Ok () ->
        walk rest ~entries:(entries + l.count)
          ~heads:(if l.count > 0 then heads + 1 else heads))
  in
  walk t.lines ~entries:0 ~heads:0

let audit t =
  let rec live i =
    if i >= t.len then vacated i
    else begin
      let timer = t.timers.(i) and at = t.ats.(i) and seq = t.seqs.(i) in
      if timer.slot <> i then
        Error (Printf.sprintf "slot %d holds a timer that records slot %d" i timer.slot)
      else if at < t.clock then
        Error (Printf.sprintf "slot %d is due at %d, before now %d" i at t.clock)
      else if i > 0 && before t at seq ((i - 1) lsr 1) then
        Error (Printf.sprintf "slot %d sorts before its parent" i)
      else live (i + 1)
    end
  and vacated i =
    if i >= Array.length t.timers then audit_lines t
    else if t.timers.(i) != t.vacant then
      Error (Printf.sprintf "vacated slot %d still holds a timer" i)
    else vacated (i + 1)
  in
  live 0
