open Ccp_net

type t = {
  flow : Packet.flow_id;
  send_ack : Packet.t -> unit;
  delayed_ack_every : int;
  mutable expected : int;  (* next in-order byte awaited *)
  (* Out-of-order set: disjoint, non-adjacent [starts.(i), stops.(i))
     intervals for i in [lo, hi), sorted, above [expected]. Empty arrays
     until the first out-of-order segment, so in-order flows pay nothing. *)
  mutable starts : int array;
  mutable stops : int array;
  mutable lo : int;
  mutable hi : int;
  mutable unacked_segments : int;  (* in-order segments since the last ACK *)
}

let create ~flow ~send_ack ?(delayed_ack_every = 1) () =
  if delayed_ack_every < 1 then invalid_arg "Tcp_receiver: delayed_ack_every must be >= 1";
  {
    flow;
    send_ack;
    delayed_ack_every;
    expected = 0;
    starts = [||];
    stops = [||];
    lo = 0;
    hi = 0;
    unacked_segments = 0;
  }

let initial_capacity = 16

(* Make room for one more interval at the end of the window: slide the
   window to the front when at least half the arrays lie before it,
   otherwise double them, so each insertion costs O(1) amortized. *)
let reserve t =
  let cap = Array.length t.starts in
  if t.hi = cap then begin
    let n = t.hi - t.lo in
    if cap = 0 || 2 * t.lo < cap then begin
      let cap = max initial_capacity (2 * cap) in
      let starts = Array.make cap 0 and stops = Array.make cap 0 in
      Array.blit t.starts t.lo starts 0 n;
      Array.blit t.stops t.lo stops 0 n;
      t.starts <- starts;
      t.stops <- stops
    end
    else begin
      Array.blit t.starts t.lo t.starts 0 n;
      Array.blit t.stops t.lo t.stops 0 n
    end;
    t.lo <- 0;
    t.hi <- n
  end

(* Insert [start, stop) into the interval set, merging overlapping and
   adjacent intervals. *)
let insert_interval t start stop =
  (* Binary search for the first interval that ends at or after [start]. *)
  let lo = ref t.lo and hi = ref t.hi in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if t.stops.(mid) < start then lo := mid + 1 else hi := mid
  done;
  let i = !lo in
  (* It and its successors up to the first one past [stop] merge in. *)
  let j = ref i and start = ref start and stop = ref stop in
  while !j < t.hi && t.starts.(!j) <= !stop do
    if t.starts.(!j) < !start then start := t.starts.(!j);
    if t.stops.(!j) > !stop then stop := t.stops.(!j);
    incr j
  done;
  let i =
    if !j = i then begin
      (* Nothing merged: open a slot at [i]. *)
      let offset = i - t.lo in
      reserve t;
      let i = t.lo + offset in
      Array.blit t.starts i t.starts (i + 1) (t.hi - i);
      Array.blit t.stops i t.stops (i + 1) (t.hi - i);
      t.hi <- t.hi + 1;
      i
    end
    else begin
      (* [i, j) collapse into slot [i]. *)
      Array.blit t.starts !j t.starts (i + 1) (t.hi - !j);
      Array.blit t.stops !j t.stops (i + 1) (t.hi - !j);
      t.hi <- t.hi - (!j - i - 1);
      i
    end
  in
  t.starts.(i) <- !start;
  t.stops.(i) <- !stop

(* Advance [expected] through the first interval if it now touches it. *)
let advance t =
  if t.lo < t.hi && t.starts.(t.lo) <= t.expected then begin
    if t.stops.(t.lo) > t.expected then t.expected <- t.stops.(t.lo);
    t.lo <- t.lo + 1;
    if t.lo = t.hi then begin
      t.lo <- 0;
      t.hi <- 0
    end
  end

let emit_ack t ~(trigger : Packet.data) ~ecn_echo ~acked_segments ~newly_sacked =
  t.unacked_segments <- 0;
  t.send_ack
    (Packet.ack ~flow:t.flow ~cum_ack:t.expected ~echo_sent_at:trigger.Packet.sent_at ~ecn_echo
       ~acked_segments ~newly_sacked ~recv_bytes:t.expected ())

(* Returns [`In_order] if the segment advanced the stream, [`Sacked range]
   if it was buffered out of order, [`Duplicate] otherwise. *)
let ingest t (pkt : Packet.t) =
  match pkt.payload with
  | Ack _ -> invalid_arg "Tcp_receiver: got an ACK"
  | Data d ->
    let stop = Packet.seq_end d in
    if stop <= t.expected then `Duplicate
    else if d.seq <= t.expected then begin
      t.expected <- stop;
      advance t;
      `In_order
    end
    else begin
      insert_interval t d.seq stop;
      `Sacked (d.seq, stop)
    end

let on_data t pkt =
  match pkt.Packet.payload with
  | Ack _ -> invalid_arg "Tcp_receiver.on_data: got an ACK"
  | Data d -> (
    let ecn_echo = pkt.Packet.ecn_marked in
    match ingest t pkt with
    | `In_order when not ecn_echo ->
      t.unacked_segments <- t.unacked_segments + 1;
      if t.unacked_segments >= t.delayed_ack_every then
        emit_ack t ~trigger:d ~ecn_echo ~acked_segments:t.unacked_segments ~newly_sacked:[]
    | `In_order ->
      emit_ack t ~trigger:d ~ecn_echo ~acked_segments:(t.unacked_segments + 1) ~newly_sacked:[]
    | `Duplicate ->
      (* Spurious retransmission: re-acknowledge immediately. *)
      emit_ack t ~trigger:d ~ecn_echo ~acked_segments:(t.unacked_segments + 1) ~newly_sacked:[]
    | `Sacked range ->
      (* Out-of-order data produces an immediate duplicate ACK carrying
         the newly buffered range. *)
      emit_ack t ~trigger:d ~ecn_echo ~acked_segments:(t.unacked_segments + 1)
        ~newly_sacked:[ range ])

let on_batch t pkts =
  match pkts with
  | [] -> ()
  | first :: rest ->
    let last = List.fold_left (fun _ p -> p) first rest in
    (match last.Packet.payload with
    | Ack _ -> invalid_arg "Tcp_receiver.on_batch: got an ACK"
    | Data d ->
      let ecn_echo = List.exists (fun p -> p.Packet.ecn_marked) pkts in
      let sacked = ref [] in
      List.iter
        (fun p ->
          match ingest t p with
          | `Sacked range -> sacked := range :: !sacked
          | `In_order | `Duplicate -> ())
        pkts;
      emit_ack t ~trigger:d ~ecn_echo ~acked_segments:(List.length pkts)
        ~newly_sacked:(List.rev !sacked))

let expected_seq t = t.expected
let delivered_bytes t = t.expected

let out_of_order_bytes t =
  let rec sum i acc = if i >= t.hi then acc else sum (i + 1) (acc + (t.stops.(i) - t.starts.(i))) in
  sum t.lo 0

