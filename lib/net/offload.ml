open Ccp_util
open Ccp_eventsim

module Sender_path = struct
  type config = {
    tso : bool;
    ack_cost : Time_ns.t;
  }

  (* op_cost dominates: ~2.1 us of stack traversal per send operation, plus
     0.15 us of copy/DMA setup per MTU segment. Without TSO each MTU
     segment pays the full op_cost, capping an MTU-sized stream at roughly
     1e9/2250 = ~440k segments/s = ~5.3 Gbit/s. With TSO the op_cost is
     amortized over a tso_bytes super-segment, up to 43 segments. Incoming
     ACKs cost ack_cost each on the same CPU. *)
  let op_cost = Time_ns.ns 2100
  let segment_cost = Time_ns.ns 150
  let tso_bytes = 65536
  let default_config = { tso = true; ack_cost = Time_ns.ns 450 }

  type item = Segment of Packet.t | Incoming_ack of Packet.t

  type t = {
    sim : Sim.t;
    config : config;
    out : Packet.t -> unit;
    ack_out : Packet.t -> unit;
    pending : item Queue.t;
    mutable busy : bool;
    mutable busy_time : Time_ns.t;
    mutable operations : int;
    mutable segments : int;
    mutable acks : int;
  }

  let create ~sim ~config ~out ?(ack_out = fun _ -> ()) () =
    {
      sim;
      config;
      out;
      ack_out;
      pending = Queue.create ();
      busy = false;
      busy_time = Time_ns.zero;
      operations = 0;
      segments = 0;
      acks = 0;
    }

  (* Pull one operation's worth of consecutive segments off the queue: a
     single segment without TSO, up to [tso_bytes] with it. ACKs are
     processed one per operation. *)
  let take_segment_batch t =
    let max_bytes = if t.config.tso then tso_bytes else 0 in
    let rec take acc bytes =
      match Queue.peek_opt t.pending with
      | Some (Segment pkt) when acc = [] || bytes + pkt.Packet.wire_size <= max_bytes ->
        ignore (Queue.take t.pending);
        take (pkt :: acc) (bytes + pkt.Packet.wire_size)
      | Some (Segment _ | Incoming_ack _) | None -> List.rev acc
    in
    take [] 0

  let rec process_next t =
    match Queue.peek_opt t.pending with
    | None -> t.busy <- false
    | Some (Incoming_ack _) ->
      let ack =
        match Queue.take t.pending with Incoming_ack a -> a | Segment _ -> assert false
      in
      t.busy <- true;
      let cost = t.config.ack_cost in
      t.busy_time <- Time_ns.add t.busy_time cost;
      t.acks <- t.acks + 1;
      ignore
        (Sim.schedule_after t.sim ~delay:cost (fun () ->
             t.ack_out ack;
             process_next t))
    | Some (Segment _) ->
      let batch = take_segment_batch t in
      t.busy <- true;
      let n = List.length batch in
      let cost = Time_ns.add op_cost (Time_ns.scale segment_cost (float_of_int n)) in
      t.busy_time <- Time_ns.add t.busy_time cost;
      t.operations <- t.operations + 1;
      t.segments <- t.segments + n;
      ignore
        (Sim.schedule_after t.sim ~delay:cost (fun () ->
             List.iter t.out batch;
             process_next t))

  let send t pkt =
    Queue.add (Segment pkt) t.pending;
    if not t.busy then process_next t

  let receive_ack t pkt =
    Queue.add (Incoming_ack pkt) t.pending;
    if not t.busy then process_next t

  let busy_time t = t.busy_time
  let operations t = t.operations
  let segments t = t.segments
  let acks_processed t = t.acks
end

module Receiver_path = struct
  type config = { gro : bool }

  (* Receive processing is costlier than transmit per operation (IRQ +
     protocol processing + ACK generation). GRO coalesces up to
     gro_segments per operation. *)
  let op_cost = Time_ns.ns 2600
  let segment_cost = Time_ns.ns 200
  let gro_segments = 44

  type t = {
    sim : Sim.t;
    config : config;
    deliver : Packet.t list -> unit;
    pending : Packet.t Queue.t;
    mutable busy : bool;
    mutable busy_time : Time_ns.t;
    mutable operations : int;
    mutable segments : int;
  }

  let create ~sim ~config ~deliver =
    {
      sim;
      config;
      deliver;
      pending = Queue.create ();
      busy = false;
      busy_time = Time_ns.zero;
      operations = 0;
      segments = 0;
    }

  (* GRO merges consecutive queued segments of the same flow into one
     operation, up to the segment limit. *)
  let take_batch t =
    match Queue.peek_opt t.pending with
    | None -> []
    | Some first ->
      let limit = if t.config.gro then gro_segments else 1 in
      let rec take acc n =
        if n >= limit then List.rev acc
        else
          match Queue.peek_opt t.pending with
          | Some pkt when pkt.Packet.flow = first.Packet.flow && Packet.is_data pkt ->
            ignore (Queue.take t.pending);
            take (pkt :: acc) (n + 1)
          | Some _ | None -> List.rev acc
      in
      if Packet.is_data first then take [] 0
      else begin
        (* Non-data packets (ACKs on a reverse path) are processed singly. *)
        ignore (Queue.take t.pending);
        [ first ]
      end

  let rec process_next t =
    match take_batch t with
    | [] -> t.busy <- false
    | batch ->
      t.busy <- true;
      let n = List.length batch in
      let cost = Time_ns.add op_cost (Time_ns.scale segment_cost (float_of_int n)) in
      t.busy_time <- Time_ns.add t.busy_time cost;
      t.operations <- t.operations + 1;
      t.segments <- t.segments + n;
      ignore
        (Sim.schedule_after t.sim ~delay:cost (fun () ->
             t.deliver batch;
             process_next t))

  let receive t pkt =
    Queue.add pkt t.pending;
    if not t.busy then process_next t

  let busy_time t = t.busy_time
  let operations t = t.operations
  let segments t = t.segments

  let mean_batch t =
    if t.operations = 0 then 0.0 else float_of_int t.segments /. float_of_int t.operations
end
