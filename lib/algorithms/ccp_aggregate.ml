open Ccp_agent

(* [held] is the share this member was last sent, or the window the
   datapath is known to have set since (one MSS after a timeout). A flow
   is one member: the [handle] of its latest join. *)
type member = { handle : Algorithm.handle; mutable held : int }

let flow_of m = m.handle.Algorithm.info.Algorithm.flow

type t = {
  increase_segments : float;
  decrease_factor : float;
  mutable cwnd : int;  (* aggregate window, bytes *)
  mutable members : member list;
  mutable count : int;  (* List.length members *)
  mutable last_decrease_us : float;
}

let create ?(initial_segments = 10) ?(increase_segments = 1.0) ?(decrease_factor = 0.5) () =
  {
    increase_segments;
    decrease_factor;
    cwnd = initial_segments * 1448;
    members = [];
    count = 0;
    last_decrease_us = 0.0;
  }

let member_count t = t.count
let aggregate_cwnd t = t.cwnd

(* Every member runs this for its whole life: it measures and reports
   once per RTT and never touches the window, so steering a member with
   [set_cwnd] leaves its pc, fold and wait alone. *)
let measurement = Prog.measurement_program ()

let share t = max 1448 (t.cwnd / max 1 t.count)

(* Send [m] the current share, unless that is the window it holds. *)
let steer t m =
  let s = share t in
  if s <> m.held then begin
    m.held <- s;
    m.handle.Algorithm.set_cwnd s
  end

(* After a decrease, a member above the new share would overrun the
   bottleneck until its next report; a member at or below it waits for
   its own report, as growth does. *)
let shrink_members t =
  let s = share t in
  List.iter (fun m -> if m.held > s then steer t m) t.members

let algorithm t : Algorithm.t =
  let make (handle : Algorithm.handle) =
    let mss = handle.Algorithm.info.Algorithm.mss in
    let member = { handle; held = 0 } in
    let on_ready () =
      let flow = flow_of member in
      if List.exists (fun m -> flow_of m = flow) t.members then
        (* A re-join (a watchdog probe, a re-admission, a warm restart)
           replaces the flow's member in place; the count stays. *)
        t.members <- List.map (fun m -> if flow_of m = flow then member else m) t.members
      else begin
        if t.count = 0 then t.cwnd <- max t.cwnd handle.Algorithm.info.Algorithm.init_cwnd;
        t.members <- member :: t.members;
        t.count <- t.count + 1
      end;
      handle.Algorithm.install measurement;
      (* A joining flow gets its share immediately — no probing. *)
      steer t member
    in
    let on_report report =
      if Algorithm.field_exn report "acked" > 0.0 then
        (* Additive increase is per aggregate RTT, not per member, so a
           bigger group does not probe faster: scale by 1/n. *)
        t.cwnd <-
          t.cwnd
          + int_of_float
              (t.increase_segments *. float_of_int mss /. float_of_int (max 1 t.count));
      steer t member
    in
    let on_urgent (urgent : Ccp_ipc.Message.urgent) =
      let now = handle.Algorithm.now_us () in
      (* One multiplicative decrease per RTT across the whole group: the
         members share a bottleneck, so their losses are one event. The
         per-member floor never lifts a decrease above the aggregate. *)
      let srtt_guess = 10_000.0 in
      let before = t.cwnd in
      (match urgent.Ccp_ipc.Message.kind with
      | Ccp_ipc.Message.Dup_ack_loss | Ccp_ipc.Message.Ecn ->
        if now -. t.last_decrease_us > srtt_guess then begin
          t.last_decrease_us <- now;
          t.cwnd <-
            min t.cwnd
              (max (2 * mss * t.count)
                 (int_of_float (t.decrease_factor *. float_of_int t.cwnd)))
        end
      | Ccp_ipc.Message.Timeout ->
        (* The datapath collapsed the sender's window to one MSS. *)
        member.held <- mss;
        t.last_decrease_us <- now;
        t.cwnd <- min t.cwnd (max (mss * t.count) (t.cwnd / 4)));
      if t.cwnd < before then shrink_members t;
      steer t member
    in
    { Algorithm.no_op_handlers with on_ready; on_report; on_urgent }
  in
  { Algorithm.name = "ccp-aggregate"; make }
