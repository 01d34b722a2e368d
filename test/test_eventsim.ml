(* Tests for the discrete-event engine: ordering, determinism, timers. *)

open Ccp_util
open Ccp_eventsim

let test_fires_in_time_order () =
  let sim = Sim.create () in
  let log = ref [] in
  let note tag () = log := (tag, Sim.now sim) :: !log in
  ignore (Sim.schedule sim ~at:(Time_ns.ms 30) (note "c"));
  ignore (Sim.schedule sim ~at:(Time_ns.ms 10) (note "a"));
  ignore (Sim.schedule sim ~at:(Time_ns.ms 20) (note "b"));
  Sim.run sim;
  Alcotest.(check (list (pair string int)))
    "order and clock"
    [ ("a", Time_ns.ms 10); ("b", Time_ns.ms 20); ("c", Time_ns.ms 30) ]
    (List.rev !log)

let test_same_time_fifo () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 0 to 9 do
    ignore (Sim.schedule sim ~at:(Time_ns.ms 5) (fun () -> log := i :: !log))
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "fifo among equal times" (List.init 10 Fun.id) (List.rev !log)

let test_schedule_in_past_raises () =
  let sim = Sim.create () in
  ignore (Sim.schedule sim ~at:(Time_ns.ms 10) (fun () -> ()));
  Sim.run sim;
  Alcotest.(check bool) "clock advanced" true (Sim.now sim = Time_ns.ms 10);
  match Sim.schedule sim ~at:(Time_ns.ms 5) (fun () -> ()) with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_schedule_after_clamps_negative () =
  let sim = Sim.create () in
  let fired = ref false in
  ignore (Sim.schedule_after sim ~delay:(-5) (fun () -> fired := true));
  Sim.run sim;
  Alcotest.(check bool) "fired at now" true !fired

let test_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let timer = Sim.schedule sim ~at:(Time_ns.ms 1) (fun () -> fired := true) in
  Alcotest.(check bool) "pending" true (Sim.is_pending timer);
  Sim.cancel timer;
  Alcotest.(check bool) "not pending" false (Sim.is_pending timer);
  Sim.run sim;
  Alcotest.(check bool) "cancelled event silent" false !fired;
  (* Double cancel is a no-op. *)
  Sim.cancel timer

let test_run_until () =
  let sim = Sim.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    ignore (Sim.schedule_after sim ~delay:(Time_ns.ms 10) tick)
  in
  ignore (Sim.schedule sim ~at:Time_ns.zero tick);
  Sim.run ~until:(Time_ns.ms 100) sim;
  (* Events at 0,10,...,100 inclusive fire: 11 of them. *)
  Alcotest.(check int) "events up to horizon" 11 !count;
  Alcotest.(check int) "clock at horizon" (Time_ns.ms 100) (Sim.now sim)

let test_max_events_guard () =
  let sim = Sim.create () in
  let count = ref 0 in
  let rec spin () =
    incr count;
    ignore (Sim.schedule_after sim ~delay:1 spin)
  in
  ignore (Sim.schedule sim ~at:Time_ns.zero spin);
  Sim.run ~max_events:500 sim;
  Alcotest.(check int) "stopped by budget" 500 !count

let test_step () =
  let sim = Sim.create () in
  let fired = ref 0 in
  ignore (Sim.schedule sim ~at:(Time_ns.ms 1) (fun () -> incr fired));
  ignore (Sim.schedule sim ~at:(Time_ns.ms 2) (fun () -> incr fired));
  Alcotest.(check bool) "step 1" true (Sim.step sim);
  Alcotest.(check int) "one fired" 1 !fired;
  Alcotest.(check bool) "step 2" true (Sim.step sim);
  Alcotest.(check bool) "exhausted" false (Sim.step sim)

let test_events_scheduled_during_run () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore
    (Sim.schedule sim ~at:(Time_ns.ms 1) (fun () ->
         log := "outer" :: !log;
         ignore
           (Sim.schedule_after sim ~delay:(Time_ns.ms 1) (fun () -> log := "inner" :: !log))));
  Sim.run sim;
  Alcotest.(check (list string)) "nested event ran" [ "outer"; "inner" ] (List.rev !log)

let test_rng_access () =
  let a = Sim.create ~seed:3 () in
  let b = Sim.create ~seed:3 () in
  Alcotest.(check int64) "same seed same stream" (Rng.bits64 (Sim.rng a))
    (Rng.bits64 (Sim.rng b))

(* --- edge-case regressions (fault-injection PR) --- *)

let test_event_at_exactly_until_fires () =
  let sim = Sim.create () in
  let fired = ref false and late = ref false in
  ignore (Sim.schedule sim ~at:(Time_ns.ms 50) (fun () -> fired := true));
  ignore (Sim.schedule sim ~at:(Time_ns.ms 50 + 1) (fun () -> late := true));
  Sim.run ~until:(Time_ns.ms 50) sim;
  Alcotest.(check bool) "event at the horizon fires" true !fired;
  Alcotest.(check bool) "event one ns past does not" false !late;
  Alcotest.(check int) "clock stops at the horizon" (Time_ns.ms 50) (Sim.now sim)

let test_same_instant_fifo_mixed_apis () =
  (* schedule ~at and schedule_after landing on the same instant must
     still fire in submission order, regardless of which API queued them. *)
  let sim = Sim.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore
    (Sim.schedule sim ~at:(Time_ns.ms 1) (fun () ->
         ignore (Sim.schedule sim ~at:(Time_ns.ms 5) (note "a"));
         ignore (Sim.schedule_after sim ~delay:(Time_ns.ms 4) (note "b"));
         ignore (Sim.schedule sim ~at:(Time_ns.ms 5) (note "c"));
         ignore (Sim.schedule_after sim ~delay:(Time_ns.ms 4) (note "d"))));
  Sim.run sim;
  Alcotest.(check (list string)) "submission order at equal instants"
    [ "a"; "b"; "c"; "d" ] (List.rev !log)

let test_cancel_fired_timer_noop () =
  let sim = Sim.create () in
  let count = ref 0 in
  let timer = Sim.schedule sim ~at:(Time_ns.ms 1) (fun () -> incr count) in
  Sim.run sim;
  Alcotest.(check int) "fired once" 1 !count;
  Alcotest.(check bool) "no longer pending" false (Sim.is_pending timer);
  (* Cancelling after the fact must not raise, resurrect, or affect
     anything scheduled later. *)
  Sim.cancel timer;
  Sim.cancel timer;
  ignore (Sim.schedule sim ~at:(Time_ns.ms 2) (fun () -> incr count));
  Sim.run sim;
  Alcotest.(check int) "later event unaffected" 2 !count

(* --- the live-only queue --- *)

let check_audit sim =
  match Sim.audit sim with Ok () -> () | Error msg -> Alcotest.failf "Sim.audit: %s" msg

let test_reschedule () =
  let sim = Sim.create () in
  let log = ref [] in
  let note tag () = log := (tag, Sim.now sim) :: !log in
  let a = Sim.schedule sim ~at:(Time_ns.ms 10) (note "a") in
  ignore (Sim.schedule sim ~at:(Time_ns.ms 20) (note "b"));
  (* A move lands behind every event already due at the same instant. *)
  Sim.reschedule sim a ~at:(Time_ns.ms 20);
  Alcotest.(check int) "moved, not duplicated" 2 (Sim.pending_events sim);
  Sim.run sim;
  Sim.reschedule sim a ~at:(Time_ns.ms 25);
  Alcotest.(check bool) "fired timer re-armed" true (Sim.is_pending a);
  Sim.run sim;
  Alcotest.(check (list (pair string int)))
    "fire order"
    [ ("b", Time_ns.ms 20); ("a", Time_ns.ms 20); ("a", Time_ns.ms 25) ]
    (List.rev !log);
  (match Sim.reschedule sim a ~at:(Time_ns.ms 5) with
  | () -> Alcotest.fail "expected Invalid_argument for a past time"
  | exception Invalid_argument _ -> ());
  match Sim.reschedule (Sim.create ()) a ~at:(Time_ns.ms 30) with
  | () -> Alcotest.fail "expected Invalid_argument for another simulator's timer"
  | exception Invalid_argument _ -> ()

(* The block [schedule_holding] allocates is reachable only through the
   event's callback; the weak pointer tells whether it was collected. *)
let[@inline never] schedule_holding sim ~at =
  let block = Bytes.create 64 in
  let weak = Weak.create 1 in
  Weak.set weak 0 (Some block);
  (weak, Sim.schedule sim ~at (fun () -> ignore (Sys.opaque_identity block)))

let[@inline never] schedule_and_cancel sim ~at =
  let weak, timer = schedule_holding sim ~at in
  let before = Sim.pending_events sim in
  Sim.cancel timer;
  Alcotest.(check int) "cancel lowers pending_events" (before - 1) (Sim.pending_events sim);
  weak

(* The same for an item pushed onto a line. *)
let[@inline never] push_holding line ~at =
  let block = Bytes.create 64 in
  let weak = Weak.create 1 in
  Weak.set weak 0 (Some block);
  Sim.push line ~at block;
  weak

let collected weak =
  Gc.full_major ();
  not (Weak.check weak 0)

(* [sim] must stay reachable across each [collected], or the whole queue
   goes with it and the check proves nothing. *)
let test_dead_events_release_callbacks () =
  let sim = Sim.create () in
  let fired, _ = schedule_holding sim ~at:(Time_ns.ms 10) in
  Alcotest.(check bool) "fires" true (Sim.step sim);
  Alcotest.(check bool) "fired callback collected" true (collected fired);
  ignore (Sim.schedule sim ~at:(Time_ns.ms 50) ignore);
  let cancelled = schedule_and_cancel sim ~at:(Time_ns.ms 100) in
  Alcotest.(check bool) "cancelled callback collected" true (collected cancelled);
  Alcotest.(check int) "one live event left" 1 (Sim.pending_events sim);
  check_audit sim;
  let line = Sim.line sim ~filler:Bytes.empty (fun b -> ignore (Sys.opaque_identity b)) in
  let delivered = push_holding line ~at:(Time_ns.ms 20) in
  let queued = push_holding line ~at:(Time_ns.ms 30) in
  Alcotest.(check int) "line events counted" 3 (Sim.pending_events sim);
  Alcotest.(check bool) "line delivers" true (Sim.step sim);
  Alcotest.(check bool) "delivered item collected" true (collected delivered);
  Alcotest.(check bool) "queued item kept" false (collected queued);
  Alcotest.(check int) "one line event left" 1 (Sim.line_length line);
  check_audit sim

(* Minor words [f] allocates over [n] calls. *)
let minor_words n f =
  let before = Gc.minor_words () in
  for i = 1 to n do
    f i
  done;
  Gc.minor_words () -. before

(* [n] timers under test sit among [n] other far-future events, so the
   queue holds at least [n] live events throughout. *)
let test_queue_hot_ops_allocation () =
  let sim = Sim.create () in
  let far = Time_ns.sec 1000 and n = 1024 in
  let noop () = () in
  let timers = Array.init (2 * n) (fun i -> Sim.schedule sim ~at:(far + i) noop) in
  for i = 1 to n do
    ignore (Sim.schedule sim ~at:i noop : Sim.timer)
  done;
  Gc.full_major ();
  let check_none what words =
    if words > 0.0 then Alcotest.failf "%s allocated %.0f minor words over %d calls" what words n
  in
  check_none "step" (minor_words n (fun _ -> ignore (Sim.step sim : bool)));
  check_none "reschedule (move)"
    (minor_words n (fun i -> Sim.reschedule sim timers.(i - 1) ~at:(far + (3 * n) - i)));
  check_none "cancel" (minor_words n (fun i -> Sim.cancel timers.(i - 1)));
  check_none "reschedule (re-insert)"
    (minor_words n (fun i -> Sim.reschedule sim timers.(i - 1) ~at:(far + i)));
  Alcotest.(check int) "all live again" (2 * n) (Sim.pending_events sim);
  let record_words = float_of_int (Obj.size (Obj.repr timers.(0)) + 1) in
  let words = minor_words n (fun i -> ignore (Sim.schedule sim ~at:(far + i) noop : Sim.timer)) in
  Alcotest.(check (float 0.0)) "schedule allocates only the timer record"
    (record_words *. float_of_int n) words;
  check_audit sim

(* --- differential property: the queue against a sorted-list model --- *)

(* What an event does the first time it fires. A timer may re-arm
   itself; any event may schedule a new one or push one onto a line,
   the line it is delivered from included. *)
type action = Nothing | Spawn of int | Rearm of int | Push_to of { line : int; delay : int }

type op =
  | Schedule of { delay : int; action : action }
  | Push of { line : int; delay : int; action : action }
  | Cancel of int
  | Reschedule of { timer : int; delay : int }
  | Step
  | Run_until of int
  | Run_max of int

let show_action = function
  | Nothing -> "-"
  | Spawn d -> Printf.sprintf "spawn+%d" d
  | Rearm d -> Printf.sprintf "rearm+%d" d
  | Push_to { line; delay } -> Printf.sprintf "push%d+%d" line delay

let show_op = function
  | Schedule { delay; action } -> Printf.sprintf "schedule+%d(%s)" delay (show_action action)
  | Push { line; delay; action } ->
    Printf.sprintf "push%d+%d(%s)" line delay (show_action action)
  | Cancel k -> Printf.sprintf "cancel#%d" k
  | Reschedule { timer; delay } -> Printf.sprintf "reschedule#%d+%d" timer delay
  | Step -> "step"
  | Run_until d -> Printf.sprintf "run-until+%d" d
  | Run_max k -> Printf.sprintf "run-max%d" k

(* Delays are multiples of 10 ns from a narrow range, so many events
   share an instant and ties are the common case; a few are negative,
   which [reschedule] must reject. *)
let gen_delay rng = 10 * Prop.int_range rng (-1) 4

(* Two lines, so a callback can push onto its own line or the other. *)
let lines = 2

let gen_push_to rng = Push_to { line = Rng.int rng lines; delay = max 0 (gen_delay rng) }

(* Pushes may be due before the line's queued events, so out-of-order
   inserts are common; a negative delay must be rejected. *)
let gen_op rng =
  match Prop.int_range rng 0 11 with
  | 0 | 1 | 2 ->
    let delay = max 0 (gen_delay rng) in
    let action =
      match Prop.int_range rng 0 4 with
      | 0 -> Spawn (max 0 (gen_delay rng))
      | 1 -> Rearm (max 0 (gen_delay rng))
      | 2 -> gen_push_to rng
      | _ -> Nothing
    in
    Schedule { delay; action }
  | 10 | 11 ->
    let action =
      match Prop.int_range rng 0 3 with
      | 0 -> Spawn (max 0 (gen_delay rng))
      | 1 -> gen_push_to rng
      | _ -> Nothing
    in
    Push { line = Rng.int rng lines; delay = gen_delay rng; action }
  | 3 -> Cancel (Rng.int rng 1000)
  | 4 | 5 -> Reschedule { timer = Rng.int rng 1000; delay = gen_delay rng }
  | 6 | 7 -> Step
  | 8 -> Run_until (max 0 (gen_delay rng))
  | _ -> Run_max (Prop.int_range rng 0 4)

(* The reference: entries sorted by (at, seq), one seq drawn per
   schedule, reschedule or push. A line event is just an entry that no
   op can cancel or move: the model knows nothing of lines. Both sides
   number events (timers and line items alike) in creation order, and
   each side keeps its own copy of every event's action and whether it
   has fired, so they only agree if they fire in the same order. *)
type entry = { at : int; seq : int; id : int }

type model = {
  mutable clock : int;
  mutable queue : entry list;
  mutable next_seq : int;
  mutable m_ids : int;
  m_timer_ids : (int, int) Hashtbl.t;  (* n-th timer created -> its id *)
  m_actions : (int, action) Hashtbl.t;
  m_fired : (int, unit) Hashtbl.t;
  mutable m_log : (int * int) list;
}

let model_insert m id at =
  let e = { at; seq = m.next_seq; id } in
  m.next_seq <- m.next_seq + 1;
  m.queue <- List.merge (fun a b -> compare (a.at, a.seq) (b.at, b.seq)) m.queue [ e ]

let model_remove m id = m.queue <- List.filter (fun e -> e.id <> id) m.queue

let model_event m at action =
  let id = m.m_ids in
  m.m_ids <- id + 1;
  Hashtbl.replace m.m_actions id action;
  model_insert m id at;
  id

let model_schedule m at action =
  let id = model_event m at action in
  Hashtbl.replace m.m_timer_ids (Hashtbl.length m.m_timer_ids) id

let model_push m at action = ignore (model_event m at action : int)

let model_fire m =
  match m.queue with
  | [] -> assert false
  | e :: rest ->
    m.queue <- rest;
    m.clock <- e.at;
    m.m_log <- (e.id, e.at) :: m.m_log;
    if not (Hashtbl.mem m.m_fired e.id) then begin
      Hashtbl.replace m.m_fired e.id ();
      match Hashtbl.find m.m_actions e.id with
      | Nothing -> ()
      | Spawn d -> model_schedule m (m.clock + d) Nothing
      | Rearm d -> model_insert m e.id (m.clock + d)
      | Push_to { delay; _ } -> model_push m (m.clock + delay) Nothing
    end

type real = {
  sim : Sim.t;
  mutable lines : int Sim.line array;  (* items are event ids *)
  timers : (int, Sim.timer) Hashtbl.t;
  r_actions : (int, action) Hashtbl.t;  (* of line items *)
  r_fired : (int, unit) Hashtbl.t;
  mutable r_log : (int * int) list;
  mutable r_ids : int;
}

let real_id r =
  let id = r.r_ids in
  r.r_ids <- id + 1;
  id

let rec real_schedule r at action =
  let id = real_id r in
  Hashtbl.replace r.timers id (Sim.schedule r.sim ~at (fun () -> real_fire r id action))

and real_push r ~line at action =
  let id = real_id r in
  Hashtbl.replace r.r_actions id action;
  Sim.push r.lines.(line) ~at id

and real_fire r id action =
  let now = Sim.now r.sim in
  r.r_log <- (id, now) :: r.r_log;
  let timer = Hashtbl.find_opt r.timers id in
  Option.iter
    (fun timer ->
      Prop.require "not pending inside its own callback" (not (Sim.is_pending timer)))
    timer;
  if not (Hashtbl.mem r.r_fired id) then begin
    Hashtbl.replace r.r_fired id ();
    match action with
    | Nothing -> ()
    | Spawn d -> real_schedule r (now + d) Nothing
    | Rearm d -> Sim.reschedule r.sim (Option.get timer) ~at:(now + d)
    | Push_to { line; delay } -> real_push r ~line (now + delay) Nothing
  end;
  match Sim.audit r.sim with Ok () -> () | Error msg -> Prop.fail "audit in a callback: %s" msg

let real_create () =
  let r =
    {
      sim = Sim.create ();
      lines = [||];
      timers = Hashtbl.create 16;
      r_actions = Hashtbl.create 16;
      r_fired = Hashtbl.create 16;
      r_log = [];
      r_ids = 0;
    }
  in
  r.lines <-
    Array.init lines (fun _ ->
        Sim.line r.sim ~filler:(-1) (fun id -> real_fire r id (Hashtbl.find r.r_actions id)));
  r

let apply m r op =
  let timers = Hashtbl.length m.m_timer_ids in
  match op with
  | Schedule { delay; action } ->
    model_schedule m (m.clock + delay) action;
    real_schedule r (Sim.now r.sim + delay) action
  | Push { line; delay; action } -> (
    let at = m.clock + delay in
    let past = at < m.clock in
    if not past then model_push m at action;
    match real_push r ~line at action with
    | () -> Prop.require "push into the past accepted" (not past)
    | exception Invalid_argument _ ->
      Prop.require "push rejected a future time" past;
      (* The rejected push drew an id but queued nothing; keep the two
         numberings in step. *)
      m.m_ids <- m.m_ids + 1)
  | Cancel k when timers > 0 ->
    let id = Hashtbl.find m.m_timer_ids (k mod timers) in
    model_remove m id;
    Sim.cancel (Hashtbl.find r.timers id)
  | Reschedule { timer; delay } when timers > 0 ->
    let id = Hashtbl.find m.m_timer_ids (timer mod timers) and at = m.clock + delay in
    let past = at < m.clock in
    if not past then begin
      model_remove m id;
      model_insert m id at
    end;
    (match Sim.reschedule r.sim (Hashtbl.find r.timers id) ~at with
    | () -> Prop.require "reschedule into the past accepted" (not past)
    | exception Invalid_argument _ -> Prop.require "reschedule rejected a future time" past)
  | Cancel _ | Reschedule _ -> ()
  | Step ->
    let fired = m.queue <> [] in
    if fired then model_fire m;
    Prop.check_eq ~what:"step" string_of_bool fired (Sim.step r.sim)
  | Run_until d ->
    let limit = m.clock + d in
    let rec go () =
      match m.queue with
      | e :: _ when e.at > limit -> m.clock <- limit
      | _ :: _ ->
        model_fire m;
        go ()
      | [] -> ()
    in
    go ();
    Sim.run ~until:limit r.sim
  | Run_max k ->
    for _ = 1 to k do
      if m.queue <> [] then model_fire m
    done;
    Sim.run ~max_events:k r.sim

let show_log log =
  String.concat " " (List.rev_map (fun (id, at) -> Printf.sprintf "%d@%d" id at) log)

let prop_queue_matches_model =
  Prop.test_case ~cases:300 ~name:"queue = sorted-list model"
    ~gen:(fun rng -> Prop.list rng ~min:1 ~max:80 gen_op)
    ~show:(fun ops -> String.concat "; " (List.map show_op ops))
    (fun ops ->
      let m =
        {
          clock = 0;
          queue = [];
          next_seq = 0;
          m_ids = 0;
          m_timer_ids = Hashtbl.create 16;
          m_actions = Hashtbl.create 16;
          m_fired = Hashtbl.create 16;
          m_log = [];
        }
      in
      let r = real_create () in
      List.iteri
        (fun i op ->
          apply m r op;
          let what name = Printf.sprintf "%s after op %d (%s)" name i (show_op op) in
          (match Sim.audit r.sim with
          | Ok () -> ()
          | Error msg -> Prop.fail "%s: %s" (what "audit") msg);
          Prop.check_eq ~what:(what "fire order") show_log m.m_log r.r_log;
          Prop.check_eq ~what:(what "clock") string_of_int m.clock (Sim.now r.sim);
          Prop.check_eq ~what:(what "pending_events") string_of_int (List.length m.queue)
            (Sim.pending_events r.sim);
          Hashtbl.iter
            (fun id timer ->
              Prop.check_eq
                ~what:(what (Printf.sprintf "is_pending #%d" id))
                string_of_bool
                (List.exists (fun e -> e.id = id) m.queue)
                (Sim.is_pending timer))
            r.timers;
          Prop.check_eq ~what:(what "line events") string_of_int
            (List.length (List.filter (fun e -> not (Hashtbl.mem r.timers e.id)) m.queue))
            (Array.fold_left (fun acc l -> acc + Sim.line_length l) 0 r.lines))
        ops)

let suite =
  [
    ( "eventsim",
      [
        Alcotest.test_case "time ordering" `Quick test_fires_in_time_order;
        Alcotest.test_case "same-time FIFO" `Quick test_same_time_fifo;
        Alcotest.test_case "past scheduling rejected" `Quick test_schedule_in_past_raises;
        Alcotest.test_case "negative delay clamps" `Quick test_schedule_after_clamps_negative;
        Alcotest.test_case "cancel" `Quick test_cancel;
        Alcotest.test_case "run until horizon" `Quick test_run_until;
        Alcotest.test_case "max events guard" `Quick test_max_events_guard;
        Alcotest.test_case "single step" `Quick test_step;
        Alcotest.test_case "nested scheduling" `Quick test_events_scheduled_during_run;
        Alcotest.test_case "seeded rng" `Quick test_rng_access;
        Alcotest.test_case "event at exactly until fires" `Quick
          test_event_at_exactly_until_fires;
        Alcotest.test_case "same-instant FIFO across APIs" `Quick
          test_same_instant_fifo_mixed_apis;
        Alcotest.test_case "cancel on fired timer is no-op" `Quick
          test_cancel_fired_timer_noop;
        Alcotest.test_case "reschedule moves and re-arms" `Quick test_reschedule;
        Alcotest.test_case "dead events release their callbacks" `Quick
          test_dead_events_release_callbacks;
        Alcotest.test_case "queue hot operations allocation-free" `Quick
          test_queue_hot_ops_allocation;
        prop_queue_matches_model;
      ] );
  ]
