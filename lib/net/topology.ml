open Ccp_util

module Dumbbell = struct
  type endpoints = { data_sink : Packet.t -> unit; ack_sink : Packet.t -> unit }

  let unregistered = { data_sink = ignore; ack_sink = ignore }

  type t = {
    forward : Link.t;
    reverse : Link.t;
    rate_bps : float;
    base_rtt : Time_ns.t;
    mutable flows : endpoints array;
        (* indexed by flow id; [unregistered] where no flow is attached *)
  }

  let endpoints t flow =
    if flow >= 0 && flow < Array.length t.flows then Array.unsafe_get t.flows flow
    else unregistered

  let create ~sim ~rate_bps ~base_rtt ~buffer_bytes ?ecn_threshold_bytes ?jitter
      ?rate_schedule () =
    let one_way = Time_ns.scale base_rtt 0.5 in
    let forward =
      Link.create ~sim ~rate_bps ~delay:one_way
        ~qdisc:(Queue_disc.Droptail { capacity_bytes = buffer_bytes; ecn_threshold_bytes })
        ~name:"bottleneck" ?jitter ?rate_schedule ()
    in
    let reverse =
      Link.create ~sim ~rate_bps:(10.0 *. rate_bps) ~delay:(Time_ns.sub base_rtt one_way)
        ~qdisc:(Queue_disc.Droptail { capacity_bytes = 100_000_000; ecn_threshold_bytes = None })
        ~name:"reverse" ()
    in
    let t = { forward; reverse; rate_bps; base_rtt; flows = [||] } in
    Link.connect forward (fun pkt -> (endpoints t pkt.Packet.flow).data_sink pkt);
    Link.connect reverse (fun pkt -> (endpoints t pkt.Packet.flow).ack_sink pkt);
    t

  let forward t = t.forward
  let reverse t = t.reverse

  let bdp_bytes t =
    int_of_float (t.rate_bps *. Time_ns.to_float_sec t.base_rtt /. 8.0)

  let register t ~flow ~data_sink ~ack_sink =
    if flow < 0 then invalid_arg "Dumbbell.register: negative flow id";
    if endpoints t flow != unregistered then invalid_arg "Dumbbell.register: duplicate flow id";
    let n = Array.length t.flows in
    if flow >= n then begin
      let flows = Array.make (max (flow + 1) (2 * n)) unregistered in
      Array.blit t.flows 0 flows 0 n;
      t.flows <- flows
    end;
    t.flows.(flow) <- { data_sink; ack_sink }

  let send_data t pkt = Link.send t.forward pkt
  let send_ack t pkt = Link.send t.reverse pkt
end
