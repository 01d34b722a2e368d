open Ccp_util
open Ccp_eventsim

type t = {
  sim : Sim.t;
  rate_bps : float;
  delay : Time_ns.t;
  qdisc : Queue_disc.t;
  name : string;
  jitter : Time_ns.t;
  rng : Rng.t;
  schedule : (Time_ns.t * float) array;  (* ascending step times *)
  receive : (Packet.t -> unit) ref;
  mutable connected : bool;
  mutable in_service : Packet.t;  (* [Packet.placeholder] while idle *)
  mutable serializer : Sim.timer;  (* fires when [in_service] is on the wire *)
  propagation : Packet.t Sim.line;  (* packets on the wire, by arrival *)
  mutable delivered_bytes : int;
  mutable delivered_packets : int;
}

let positive_finite rate = Float.is_finite rate && rate > 0.0

(* Rate in force at [at]: the last schedule step not after it. The
   rates stay boxed in the schedule, so the answer is never re-boxed. *)
let rec find_rate schedule ~at i best =
  if i >= Array.length schedule then best
  else begin
    let step_at, rate = schedule.(i) in
    if Time_ns.compare step_at at <= 0 then find_rate schedule ~at (i + 1) rate else best
  end

let rate_at t ~at = find_rate t.schedule ~at 0 t.rate_bps

let current_rate_bps t = rate_at t ~at:(Sim.now t.sim)

(* The transmitter: take the head packet and hold the line for its
   serialization time at the current rate. *)
let transmit_next t =
  if Queue_disc.backlog_packets t.qdisc = 0 then t.in_service <- Packet.placeholder
  else begin
    let pkt = Queue_disc.dequeue t.qdisc in
    t.in_service <- pkt;
    let now = Sim.now t.sim in
    let serialization =
      Time_ns.bytes_time ~bytes:pkt.Packet.wire_size ~rate_bps:(rate_at t ~at:now)
    in
    Sim.reschedule t.sim t.serializer ~at:(Time_ns.add now (Time_ns.max serialization 0))
  end

(* The last bit is out: the packet arrives one (possibly jittered)
   propagation delay later, and the next one starts. *)
let serialized t =
  let pkt = t.in_service in
  t.delivered_bytes <- t.delivered_bytes + pkt.Packet.wire_size;
  t.delivered_packets <- t.delivered_packets + 1;
  let extra = if Time_ns.is_positive t.jitter then Rng.int t.rng (t.jitter + 1) else 0 in
  let delay = Time_ns.max (Time_ns.add t.delay extra) Time_ns.zero in
  Sim.push t.propagation ~at:(Time_ns.add (Sim.now t.sim) delay) pkt;
  transmit_next t

let create ~sim ~rate_bps ~delay ~qdisc ?(name = "link") ?(jitter = Time_ns.zero)
    ?(rate_schedule = []) () =
  if not (positive_finite rate_bps) then invalid_arg "Link.create: rate must be positive and finite";
  List.iter
    (fun (at, rate) ->
      if Time_ns.compare at Time_ns.zero < 0 || not (positive_finite rate) then
        invalid_arg "Link.create: schedule entries need time >= 0 and a positive, finite rate")
    rate_schedule;
  let schedule =
    Array.of_list (List.sort (fun (a, _) (b, _) -> Time_ns.compare a b) rate_schedule)
  in
  let qdisc = Queue_disc.create qdisc ~rng:(Rng.split (Sim.rng sim)) in
  let receive = ref (fun (_ : Packet.t) -> invalid_arg (name ^ ": send before connect")) in
  let t =
    {
      sim;
      rate_bps;
      delay;
      qdisc;
      name;
      jitter;
      rng = Rng.split (Sim.rng sim);
      schedule;
      receive;
      connected = false;
      in_service = Packet.placeholder;
      serializer = Sim.timer sim ignore (* replaced below: its callback needs [t] *);
      propagation = Sim.line sim ~filler:Packet.placeholder (fun pkt -> !receive pkt);
      delivered_bytes = 0;
      delivered_packets = 0;
    }
  in
  t.serializer <- Sim.timer sim (fun () -> serialized t);
  t

let connect t receive =
  t.receive := receive;
  t.connected <- true

let send t pkt =
  if not t.connected then invalid_arg (t.name ^ ": send before connect");
  match Queue_disc.enqueue t.qdisc pkt with
  | Dropped -> ()
  | Enqueued -> if t.in_service == Packet.placeholder then transmit_next t

let rate_bps t = t.rate_bps
let delay t = t.delay
let name t = t.name
let qdisc t = t.qdisc
let delivered_bytes t = t.delivered_bytes
let delivered_packets t = t.delivered_packets

let utilization t ~over =
  let seconds = Time_ns.to_float_sec over in
  if seconds <= 0.0 then 0.0
  else float_of_int (t.delivered_bytes * 8) /. (t.rate_bps *. seconds)
