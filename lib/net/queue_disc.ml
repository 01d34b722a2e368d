open Ccp_util

type config =
  | Droptail of { capacity_bytes : int; ecn_threshold_bytes : int option }
  | Red of {
      capacity_bytes : int;
      min_threshold_bytes : int;
      max_threshold_bytes : int;
      max_mark_probability : float;
      ecn : bool;
    }

type verdict = Enqueued | Dropped

(* The queue is a ring of [count] packets from [first]; its capacity is
   a power of two (or 0 before the first packet), and its vacant slots
   hold [Packet.placeholder]. *)
type t = {
  config : config;
  rng : Rng.t;
  mutable ring : Packet.t array;
  mutable first : int;
  mutable count : int;
  mutable backlog : int;
  mutable avg_backlog : float;  (* RED's EWMA of the queue size *)
  mutable enqueued : int;
  mutable dropped : int;
  mutable marked : int;
}

let create config ~rng =
  (match config with
  | Droptail { capacity_bytes; _ } ->
    if capacity_bytes <= 0 then invalid_arg "Queue_disc: capacity must be positive"
  | Red { capacity_bytes; min_threshold_bytes; max_threshold_bytes; max_mark_probability; _ } ->
    if capacity_bytes <= 0 then invalid_arg "Queue_disc: capacity must be positive";
    if min_threshold_bytes >= max_threshold_bytes then
      invalid_arg "Queue_disc: RED thresholds must satisfy min < max";
    if max_mark_probability <= 0.0 || max_mark_probability > 1.0 then
      invalid_arg "Queue_disc: RED mark probability in (0,1]");
  {
    config;
    rng;
    ring = [||];
    first = 0;
    count = 0;
    backlog = 0;
    avg_backlog = 0.0;
    enqueued = 0;
    dropped = 0;
    marked = 0;
  }

let grow t =
  let cap = Array.length t.ring in
  let ring = Array.make (max 16 (2 * cap)) Packet.placeholder in
  for k = 0 to t.count - 1 do
    ring.(k) <- t.ring.((t.first + k) land (cap - 1))
  done;
  t.ring <- ring;
  t.first <- 0

let admit t (pkt : Packet.t) =
  if t.count = Array.length t.ring then grow t;
  t.ring.((t.first + t.count) land (Array.length t.ring - 1)) <- pkt;
  t.count <- t.count + 1;
  t.backlog <- t.backlog + pkt.wire_size;
  t.enqueued <- t.enqueued + 1;
  Enqueued

let drop t = t.dropped <- t.dropped + 1

let mark t (pkt : Packet.t) =
  pkt.ecn_marked <- true;
  t.marked <- t.marked + 1

let enqueue_droptail t ~capacity_bytes ~ecn_threshold_bytes (pkt : Packet.t) =
  if t.backlog + pkt.wire_size > capacity_bytes then begin
    drop t;
    Dropped
  end
  else begin
    (match ecn_threshold_bytes with
    | Some threshold when pkt.ecn_capable && t.backlog >= threshold -> mark t pkt
    | Some _ | None -> ());
    admit t pkt
  end

(* RED with the "instantaneous + EWMA" simplification: the average queue is
   tracked with weight 0.002 (Floyd's recommended value) and packets are
   probabilistically marked or dropped between the two thresholds. *)
let red_weight = 0.002

let enqueue_red t ~capacity_bytes ~min_threshold_bytes ~max_threshold_bytes
    ~max_mark_probability ~ecn (pkt : Packet.t) =
  t.avg_backlog <-
    t.avg_backlog +. (red_weight *. (float_of_int t.backlog -. t.avg_backlog));
  if t.backlog + pkt.wire_size > capacity_bytes then begin
    drop t;
    Dropped
  end
  else begin
    let avg = t.avg_backlog in
    let lo = float_of_int min_threshold_bytes and hi = float_of_int max_threshold_bytes in
    if avg <= lo then admit t pkt
    else begin
      let p =
        if avg >= hi then 1.0 else max_mark_probability *. ((avg -. lo) /. (hi -. lo))
      in
      if Rng.float t.rng 1.0 < p then
        if ecn && pkt.ecn_capable then begin
          mark t pkt;
          admit t pkt
        end
        else begin
          drop t;
          Dropped
        end
      else admit t pkt
    end
  end

let enqueue t pkt =
  match t.config with
  | Droptail { capacity_bytes; ecn_threshold_bytes } ->
    enqueue_droptail t ~capacity_bytes ~ecn_threshold_bytes pkt
  | Red { capacity_bytes; min_threshold_bytes; max_threshold_bytes; max_mark_probability; ecn }
    ->
    enqueue_red t ~capacity_bytes ~min_threshold_bytes ~max_threshold_bytes
      ~max_mark_probability ~ecn pkt

let dequeue t =
  if t.count = 0 then invalid_arg "Queue_disc.dequeue: empty queue";
  let pkt = t.ring.(t.first) in
  t.ring.(t.first) <- Packet.placeholder;
  t.first <- (t.first + 1) land (Array.length t.ring - 1);
  t.count <- t.count - 1;
  t.backlog <- t.backlog - pkt.wire_size;
  pkt

let backlog_bytes t = t.backlog
let backlog_packets t = t.count
let enqueued_packets t = t.enqueued
let dropped_packets t = t.dropped
let marked_packets t = t.marked
