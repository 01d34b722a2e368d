(* Tests for the network substrate: packets, queue disciplines, links,
   the NIC-offload CPU model, traces, and the dumbbell topology. *)

open Ccp_util
open Ccp_eventsim
open Ccp_net

let mk_data ?(flow = 1) ?(seq = 0) ?(len = 1448) ?(ecn = false) () =
  Packet.data ~flow ~seq ~len ~sent_at:Time_ns.zero ~is_retransmit:false ~ecn_capable:ecn

(* --- Packet --- *)

let test_packet_basics () =
  let d = mk_data ~seq:100 ~len:1448 () in
  Alcotest.(check int) "wire size includes headers" (1448 + Packet.header_bytes) d.Packet.wire_size;
  Alcotest.(check bool) "is_data" true (Packet.is_data d);
  (match d.Packet.payload with
  | Packet.Data data -> Alcotest.(check int) "seq_end" 1548 (Packet.seq_end data)
  | Packet.Ack _ -> Alcotest.fail "expected data");
  let a =
    Packet.ack ~flow:1 ~cum_ack:500 ~echo_sent_at:(Time_ns.us 3) ~ecn_echo:true ~recv_bytes:500 ()
  in
  Alcotest.(check bool) "is_ack" true (Packet.is_ack a);
  Alcotest.(check int) "ack wire size" Packet.ack_wire_size a.Packet.wire_size

(* --- Queue_disc --- *)

let droptail ?(capacity = 10_000) ?ecn () =
  Queue_disc.create
    (Queue_disc.Droptail { capacity_bytes = capacity; ecn_threshold_bytes = ecn })
    ~rng:(Rng.create ~seed:1)

let test_droptail_fifo () =
  let q = droptail () in
  let p1 = mk_data ~seq:0 () and p2 = mk_data ~seq:1448 () in
  Alcotest.(check bool) "enq 1" true (Queue_disc.enqueue q p1 = Queue_disc.Enqueued);
  Alcotest.(check bool) "enq 2" true (Queue_disc.enqueue q p2 = Queue_disc.Enqueued);
  Alcotest.(check int) "backlog packets" 2 (Queue_disc.backlog_packets q);
  Alcotest.(check int) "backlog bytes" (2 * (1448 + Packet.header_bytes))
    (Queue_disc.backlog_bytes q);
  Alcotest.(check bool) "fifo order" true (Queue_disc.dequeue q == p1);
  Alcotest.(check int) "backlog after dequeue" 1 (Queue_disc.backlog_packets q)

(* The ring keeps no departed packet reachable. The helpers keep the
   packet itself out of this function's frame. *)
let[@inline never] enqueue_watched q =
  let p = mk_data () in
  let weak = Weak.create 1 in
  Weak.set weak 0 (Some p);
  ignore (Queue_disc.enqueue q p : Queue_disc.verdict);
  weak

let[@inline never] dequeue_one q = ignore (Sys.opaque_identity (Queue_disc.dequeue q))

let test_dequeue_releases_packet () =
  let q = droptail () in
  let weak = enqueue_watched q in
  dequeue_one q;
  Gc.full_major ();
  Alcotest.(check bool) "dequeued packet collected" false (Weak.check weak 0);
  Alcotest.(check int) "queue empty" 0 (Queue_disc.backlog_packets q);
  Alcotest.check_raises "dequeue on empty" (Invalid_argument "Queue_disc.dequeue: empty queue")
    (fun () -> dequeue_one q)

let test_droptail_capacity () =
  let q = droptail ~capacity:3_000 () in
  Alcotest.(check bool) "first fits" true (Queue_disc.enqueue q (mk_data ()) = Queue_disc.Enqueued);
  Alcotest.(check bool) "second fits" true (Queue_disc.enqueue q (mk_data ()) = Queue_disc.Enqueued);
  Alcotest.(check bool) "third dropped" true (Queue_disc.enqueue q (mk_data ()) = Queue_disc.Dropped);
  Alcotest.(check int) "drop counted" 1 (Queue_disc.dropped_packets q);
  Alcotest.(check int) "enqueued counted" 2 (Queue_disc.enqueued_packets q)

let test_droptail_ecn_marking () =
  (* Wire size is 1488 B; with a 2500 B threshold the third arrival sees a
     2976 B backlog and gets marked, the first two do not. *)
  let q = droptail ~capacity:100_000 ~ecn:2_500 () in
  let p1 = mk_data ~ecn:true () in
  ignore (Queue_disc.enqueue q p1);
  Alcotest.(check bool) "below threshold unmarked" false p1.Packet.ecn_marked;
  let p2 = mk_data ~ecn:true () in
  ignore (Queue_disc.enqueue q p2);
  Alcotest.(check bool) "still below" false p2.Packet.ecn_marked;
  let p3 = mk_data ~ecn:true () in
  ignore (Queue_disc.enqueue q p3);
  Alcotest.(check bool) "above threshold marked" true p3.Packet.ecn_marked;
  Alcotest.(check int) "marks counted" 1 (Queue_disc.marked_packets q);
  (* Non-ECN-capable packets are never marked. *)
  let p4 = mk_data ~ecn:false () in
  ignore (Queue_disc.enqueue q p4);
  Alcotest.(check bool) "non-capable unmarked" false p4.Packet.ecn_marked

let test_red_marks_and_drops () =
  let q =
    Queue_disc.create
      (Queue_disc.Red
         {
           capacity_bytes = 1_000_000;
           min_threshold_bytes = 10_000;
           max_threshold_bytes = 50_000;
           max_mark_probability = 1.0;
           ecn = true;
         })
      ~rng:(Rng.create ~seed:1)
  in
  (* Fill enough that the EWMA average crosses min_threshold; with mark
     probability 1.0, ECN-capable packets then get marked. *)
  let marked = ref 0 in
  for _ = 1 to 3_000 do
    let p = mk_data ~ecn:true () in
    (match Queue_disc.enqueue q p with
    | Queue_disc.Enqueued -> if p.Packet.ecn_marked then incr marked
    | Queue_disc.Dropped -> ())
  done;
  Alcotest.(check bool) "some packets marked" true (!marked > 0);
  Alcotest.(check bool) "avg tracked" true (Queue_disc.marked_packets q = !marked)

let test_red_validation () =
  Alcotest.check_raises "bad thresholds"
    (Invalid_argument "Queue_disc: RED thresholds must satisfy min < max") (fun () ->
      ignore
        (Queue_disc.create
           (Queue_disc.Red
              {
                capacity_bytes = 1000;
                min_threshold_bytes = 500;
                max_threshold_bytes = 500;
                max_mark_probability = 0.5;
                ecn = false;
              })
           ~rng:(Rng.create ~seed:1)))

(* --- Link --- *)

let test_link_delivery_timing () =
  let sim = Sim.create () in
  let link =
    Link.create ~sim ~rate_bps:1e9 ~delay:(Time_ns.ms 5)
      ~qdisc:(Queue_disc.Droptail { capacity_bytes = 1_000_000; ecn_threshold_bytes = None })
      ()
  in
  let arrivals = ref [] in
  Link.connect link (fun pkt -> arrivals := (Sim.now sim, pkt) :: !arrivals);
  let p = mk_data ~len:1460 () in
  (* wire = 1500 bytes -> 12 us serialization at 1 Gbit/s, + 5 ms prop. *)
  Link.send link p;
  Sim.run sim;
  match !arrivals with
  | [ (at, _) ] ->
    Alcotest.(check int) "arrival time" (Time_ns.add (Time_ns.us 12) (Time_ns.ms 5)) at
  | _ -> Alcotest.fail "expected exactly one arrival"

let test_link_serializes_back_to_back () =
  let sim = Sim.create () in
  let link =
    Link.create ~sim ~rate_bps:1e9 ~delay:Time_ns.zero
      ~qdisc:(Queue_disc.Droptail { capacity_bytes = 1_000_000; ecn_threshold_bytes = None })
      ()
  in
  let arrivals = ref [] in
  Link.connect link (fun _ -> arrivals := Sim.now sim :: !arrivals);
  Link.send link (mk_data ~len:1460 ());
  Link.send link (mk_data ~len:1460 ());
  Sim.run sim;
  (match List.rev !arrivals with
  | [ a; b ] ->
    Alcotest.(check int) "first at 12us" (Time_ns.us 12) a;
    Alcotest.(check int) "second at 24us" (Time_ns.us 24) b
  | _ -> Alcotest.fail "expected two arrivals");
  Alcotest.(check int) "delivered bytes" 3000 (Link.delivered_bytes link);
  Alcotest.(check int) "delivered packets" 2 (Link.delivered_packets link)

let test_link_utilization () =
  let sim = Sim.create () in
  let link =
    Link.create ~sim ~rate_bps:1e6 ~delay:Time_ns.zero
      ~qdisc:(Queue_disc.Droptail { capacity_bytes = 1_000_000; ecn_threshold_bytes = None })
      ()
  in
  Link.connect link (fun _ -> ());
  (* 125 bytes at 1 Mbit/s = 1 ms of the link's time. *)
  Link.send link (Packet.data ~flow:0 ~seq:0 ~len:(125 - Packet.header_bytes)
                    ~sent_at:Time_ns.zero ~is_retransmit:false ~ecn_capable:false);
  Sim.run sim;
  Alcotest.(check (float 1e-9)) "10% over 10ms" 0.1 (Link.utilization link ~over:(Time_ns.ms 10))

let test_link_requires_connect () =
  let sim = Sim.create () in
  let link =
    Link.create ~sim ~rate_bps:1e9 ~delay:Time_ns.zero
      ~qdisc:(Queue_disc.Droptail { capacity_bytes = 1000; ecn_threshold_bytes = None })
      ~name:"l1" ()
  in
  Alcotest.check_raises "send before connect" (Invalid_argument "l1: send before connect")
    (fun () -> Link.send link (mk_data ()))

let test_link_rejects_non_finite_rate () =
  let sim = Sim.create () in
  List.iter
    (fun rate_bps ->
      match
        Link.create ~sim ~rate_bps ~delay:Time_ns.zero
          ~qdisc:(Queue_disc.Droptail { capacity_bytes = 1000; ecn_threshold_bytes = None })
          ()
      with
      | _ -> Alcotest.failf "rate %g accepted" rate_bps
      | exception Invalid_argument _ -> ())
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let test_link_rejects_non_finite_schedule_rate () =
  let sim = Sim.create () in
  List.iter
    (fun rate ->
      match
        Link.create ~sim ~rate_bps:1e9 ~delay:Time_ns.zero
          ~qdisc:(Queue_disc.Droptail { capacity_bytes = 1000; ecn_threshold_bytes = None })
          ~rate_schedule:[ (Time_ns.ms 1, 2e9); (Time_ns.ms 2, rate) ]
          ()
      with
      | _ -> Alcotest.failf "schedule rate %g accepted" rate
      | exception Invalid_argument _ -> ())
    [ Float.nan; Float.infinity; Float.neg_infinity ]

(* A steady-state hop, enqueue, serialization and delivery, allocates
   nothing: a second burst of 1024 packets through a 1 Gbit/s, 5 ms link
   (about 400 of them in propagation at once) finds the queue ring, the
   delay line and the event heap already grown. With jitter, arrivals
   overtake each other, so the line inserts out of order. *)
let test_link_hop_allocation_free () =
  List.iter
    (fun jitter ->
      let sim = Sim.create () in
      let link =
        Link.create ~sim ~rate_bps:1e9 ~delay:(Time_ns.ms 5) ~jitter
          ~qdisc:(Queue_disc.Droptail { capacity_bytes = 10_000_000; ecn_threshold_bytes = None })
          ()
      in
      let arrived = ref 0 and last_seq = ref (-1) and reordered = ref false in
      Link.connect link (fun pkt ->
          incr arrived;
          match pkt.Packet.payload with
          | Packet.Data d ->
            if d.Packet.seq < !last_seq then reordered := true;
            last_seq := d.Packet.seq
          | Packet.Ack _ -> ());
      let n = 1024 in
      let pkts = Array.init n (fun i -> mk_data ~seq:(i * 1448) ()) in
      let burst () =
        last_seq := -1;
        for i = 0 to n - 1 do
          Link.send link pkts.(i)
        done;
        while Sim.step sim do
          ()
        done
      in
      burst ();
      let before = Gc.minor_words () in
      burst ();
      let words = Gc.minor_words () -. before in
      Alcotest.(check int) "every packet arrives" (2 * n) !arrived;
      Alcotest.(check bool) "reordered exactly when jittered" (Time_ns.is_positive jitter)
        !reordered;
      if words > 0.0 then
        Alcotest.failf "%.0f minor words over %d hops (jitter %d ns)" words n jitter;
      match Sim.audit sim with Ok () -> () | Error msg -> Alcotest.failf "Sim.audit: %s" msg)
    [ Time_ns.zero; Time_ns.us 500 ]

(* --- Offload --- *)

let test_sender_tso_batches () =
  let sim = Sim.create () in
  let sent = ref 0 in
  let config = { Offload.Sender_path.default_config with tso = true } in
  let path = Offload.Sender_path.create ~sim ~config ~out:(fun _ -> incr sent) () in
  (* Ten segments submitted at once: first goes alone (CPU idle), the rest
     coalesce into one TSO operation. *)
  for i = 0 to 9 do
    Offload.Sender_path.send path (mk_data ~seq:(i * 1448) ())
  done;
  Sim.run sim;
  Alcotest.(check int) "all delivered" 10 !sent;
  Alcotest.(check int) "segments counted" 10 (Offload.Sender_path.segments path);
  Alcotest.(check int) "coalesced into 2 ops" 2 (Offload.Sender_path.operations path)

let test_sender_no_tso_per_segment () =
  let sim = Sim.create () in
  let config = { Offload.Sender_path.default_config with tso = false } in
  let path = Offload.Sender_path.create ~sim ~config ~out:(fun _ -> ()) () in
  for i = 0 to 9 do
    Offload.Sender_path.send path (mk_data ~seq:(i * 1448) ())
  done;
  Sim.run sim;
  Alcotest.(check int) "one op per segment" 10 (Offload.Sender_path.operations path)

let test_sender_ack_processing () =
  let sim = Sim.create () in
  let acks = ref 0 in
  let path =
    Offload.Sender_path.create ~sim ~config:Offload.Sender_path.default_config
      ~out:(fun _ -> ())
      ~ack_out:(fun _ -> incr acks)
      ()
  in
  let ack =
    Packet.ack ~flow:1 ~cum_ack:0 ~echo_sent_at:Time_ns.zero ~ecn_echo:false ~recv_bytes:0 ()
  in
  Offload.Sender_path.receive_ack path ack;
  Offload.Sender_path.receive_ack path ack;
  Sim.run sim;
  Alcotest.(check int) "acks delivered" 2 !acks;
  Alcotest.(check int) "acks counted" 2 (Offload.Sender_path.acks_processed path);
  Alcotest.(check bool) "cpu time accrued" true
    (Time_ns.is_positive (Offload.Sender_path.busy_time path))

let test_receiver_gro_batches () =
  let sim = Sim.create () in
  let batches = ref [] in
  let config = { Offload.Receiver_path.gro = true } in
  let path =
    Offload.Receiver_path.create ~sim ~config ~deliver:(fun batch ->
        batches := List.length batch :: !batches)
  in
  for i = 0 to 9 do
    Offload.Receiver_path.receive path (mk_data ~seq:(i * 1448) ())
  done;
  Sim.run sim;
  (* First packet processed alone; the nine queued behind it coalesce. *)
  Alcotest.(check (list int)) "batch sizes" [ 1; 9 ] (List.rev !batches);
  Alcotest.(check bool) "mean batch > 1" true (Offload.Receiver_path.mean_batch path > 1.0)

let test_receiver_gro_respects_flow_boundary () =
  let sim = Sim.create () in
  let batches = ref [] in
  let config = { Offload.Receiver_path.gro = true } in
  let path =
    Offload.Receiver_path.create ~sim ~config ~deliver:(fun batch ->
        batches := List.map (fun p -> p.Packet.flow) batch :: !batches)
  in
  Offload.Receiver_path.receive path (mk_data ~flow:1 ());
  Offload.Receiver_path.receive path (mk_data ~flow:1 ());
  Offload.Receiver_path.receive path (mk_data ~flow:2 ());
  Offload.Receiver_path.receive path (mk_data ~flow:2 ());
  Sim.run sim;
  List.iter
    (fun flows ->
      match List.sort_uniq compare flows with
      | [ _ ] -> ()
      | _ -> Alcotest.fail "batch mixed flows")
    !batches

(* --- Trace --- *)

let test_trace_add_and_series () =
  let sim = Sim.create () in
  let trace = Trace.create sim in
  ignore (Sim.schedule sim ~at:(Time_ns.ms 1) (fun () -> Trace.add trace ~series:"x" 1.0));
  ignore (Sim.schedule sim ~at:(Time_ns.ms 2) (fun () -> Trace.add trace ~series:"x" 2.0));
  Sim.run sim;
  Alcotest.(check (list (pair int (float 1e-9))))
    "points in order"
    [ (Time_ns.ms 1, 1.0); (Time_ns.ms 2, 2.0) ]
    (Trace.series trace "x");
  Alcotest.(check (list string)) "names" [ "x" ] (Trace.series_names trace);
  Alcotest.(check (list (pair int (float 1e-9)))) "unknown empty" [] (Trace.series trace "y")

let test_trace_sampling () =
  let sim = Sim.create () in
  let trace = Trace.create sim in
  let counter = ref 0.0 in
  Trace.sample_every trace ~series:"c" ~every:(Time_ns.ms 10) ~until:(Time_ns.ms 50) (fun () ->
      counter := !counter +. 1.0;
      !counter);
  Sim.run sim;
  Alcotest.(check int) "five samples" 5 (List.length (Trace.series trace "c"))

let test_trace_downsample () =
  let pts = List.init 100 (fun i -> (Time_ns.ms i, float_of_int i)) in
  let thin = Trace.downsample pts ~max_points:10 in
  Alcotest.(check int) "ten points" 10 (List.length thin);
  Alcotest.(check (pair int (float 1e-9))) "keeps first" (Time_ns.ms 0, 0.0) (List.hd thin);
  Alcotest.(check (pair int (float 1e-9))) "keeps last" (Time_ns.ms 99, 99.0)
    (List.nth thin 9);
  Alcotest.(check int) "short series untouched" 3
    (List.length (Trace.downsample [ (0, 0.0); (1, 1.0); (2, 2.0) ] ~max_points:10))

(* A handle resolves its series once; appending then allocates nothing
   until a column is full. A series with no point stays unlisted. *)
let test_trace_push_allocation_free () =
  let sim = Sim.create () in
  let trace = Trace.create sim in
  let h = Trace.handle trace "x" in
  Alcotest.(check (list string)) "empty series unlisted" [] (Trace.series_names trace);
  let v = Sys.opaque_identity 2.5 in
  (* 1025 points grow the columns to 2048 slots. *)
  for _ = 1 to 1025 do
    Trace.push h v
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    Trace.push h v
  done;
  Alcotest.(check (float 0.0)) "no words per point" 0.0 (Gc.minor_words () -. before);
  Alcotest.(check (list string)) "listed after a point" [ "x" ] (Trace.series_names trace);
  Alcotest.(check int) "points kept" 2025 (List.length (Trace.series trace "x"));
  Alcotest.(check bool) "handle and name share the series" true
    (Trace.add trace ~series:"x" 1.0;
     List.length (Trace.series trace "x") = 2026)

(* Past 16,384 points a series opens new columns instead of copying into
   a bigger one; reading it back yields every point once, in push
   order, with its time. *)
let test_trace_long_series () =
  let sim = Sim.create () in
  let trace = Trace.create sim in
  let h = Trace.handle trace "long" in
  let n = (3 * 16_384) + 5 in
  for i = 0 to n - 1 do
    ignore
      (Sim.schedule sim ~at:(Time_ns.us (i + 1)) (fun () -> Trace.push h (float_of_int i))
        : Sim.timer)
  done;
  Sim.run sim;
  let points = Trace.series trace "long" in
  Alcotest.(check int) "every point" n (List.length points);
  Alcotest.(check bool) "in order, with times" true
    (List.for_all2
       (fun (at, v) i -> at = Time_ns.us (i + 1) && v = float_of_int i)
       points
       (List.init n Fun.id));
  Alcotest.(check (list string)) "listed" [ "long" ] (Trace.series_names trace)

let test_trace_csv () =
  let sim = Sim.create () in
  let trace = Trace.create sim in
  Trace.add trace ~series:"s" 1.5;
  let csv = Trace.to_csv trace ~name:"s" in
  Alcotest.(check bool) "header" true (String.length csv > 0 && String.sub csv 0 12 = "time_s,value")

(* --- Topology --- *)

let test_dumbbell_routing () =
  let sim = Sim.create () in
  let db =
    Topology.Dumbbell.create ~sim ~rate_bps:1e9 ~base_rtt:(Time_ns.ms 10)
      ~buffer_bytes:1_000_000 ()
  in
  let data1 = ref 0 and data2 = ref 0 and acks1 = ref 0 in
  Topology.Dumbbell.register db ~flow:1
    ~data_sink:(fun _ -> incr data1)
    ~ack_sink:(fun _ -> incr acks1);
  Topology.Dumbbell.register db ~flow:2 ~data_sink:(fun _ -> incr data2) ~ack_sink:(fun _ -> ());
  Topology.Dumbbell.send_data db (mk_data ~flow:1 ());
  Topology.Dumbbell.send_data db (mk_data ~flow:2 ());
  Topology.Dumbbell.send_ack db
    (Packet.ack ~flow:1 ~cum_ack:0 ~echo_sent_at:Time_ns.zero ~ecn_echo:false ~recv_bytes:0 ());
  Sim.run sim;
  Alcotest.(check int) "flow1 data" 1 !data1;
  Alcotest.(check int) "flow2 data" 1 !data2;
  Alcotest.(check int) "flow1 acks" 1 !acks1

let test_dumbbell_bdp () =
  let sim = Sim.create () in
  let db =
    Topology.Dumbbell.create ~sim ~rate_bps:1e9 ~base_rtt:(Time_ns.ms 10)
      ~buffer_bytes:1_000_000 ()
  in
  Alcotest.(check int) "bdp" 1_250_000 (Topology.Dumbbell.bdp_bytes db)

let test_dumbbell_duplicate_flow () =
  let sim = Sim.create () in
  let db =
    Topology.Dumbbell.create ~sim ~rate_bps:1e9 ~base_rtt:(Time_ns.ms 10) ~buffer_bytes:1000 ()
  in
  Topology.Dumbbell.register db ~flow:1 ~data_sink:(fun _ -> ()) ~ack_sink:(fun _ -> ());
  Alcotest.check_raises "duplicate" (Invalid_argument "Dumbbell.register: duplicate flow id")
    (fun () ->
      Topology.Dumbbell.register db ~flow:1 ~data_sink:(fun _ -> ()) ~ack_sink:(fun _ -> ()))

let suite =
  [
    ( "net.packet",
      [ Alcotest.test_case "constructors" `Quick test_packet_basics ] );
    ( "net.queue_disc",
      [
        Alcotest.test_case "droptail fifo" `Quick test_droptail_fifo;
        Alcotest.test_case "dequeue releases the packet" `Quick test_dequeue_releases_packet;
        Alcotest.test_case "droptail capacity" `Quick test_droptail_capacity;
        Alcotest.test_case "ecn threshold marking" `Quick test_droptail_ecn_marking;
        Alcotest.test_case "red marks" `Quick test_red_marks_and_drops;
        Alcotest.test_case "red validation" `Quick test_red_validation;
      ] );
    ( "net.link",
      [
        Alcotest.test_case "delivery timing" `Quick test_link_delivery_timing;
        Alcotest.test_case "serialization back-to-back" `Quick test_link_serializes_back_to_back;
        Alcotest.test_case "utilization" `Quick test_link_utilization;
        Alcotest.test_case "connect required" `Quick test_link_requires_connect;
        Alcotest.test_case "non-finite rate rejected" `Quick test_link_rejects_non_finite_rate;
        Alcotest.test_case "non-finite schedule rate rejected" `Quick
          test_link_rejects_non_finite_schedule_rate;
        Alcotest.test_case "hop allocation-free" `Quick test_link_hop_allocation_free;
      ] );
    ( "net.offload",
      [
        Alcotest.test_case "tso batches" `Quick test_sender_tso_batches;
        Alcotest.test_case "no tso per segment" `Quick test_sender_no_tso_per_segment;
        Alcotest.test_case "ack processing" `Quick test_sender_ack_processing;
        Alcotest.test_case "gro batches" `Quick test_receiver_gro_batches;
        Alcotest.test_case "gro flow boundary" `Quick test_receiver_gro_respects_flow_boundary;
      ] );
    ( "net.trace",
      [
        Alcotest.test_case "add and read" `Quick test_trace_add_and_series;
        Alcotest.test_case "periodic sampling" `Quick test_trace_sampling;
        Alcotest.test_case "downsample" `Quick test_trace_downsample;
        Alcotest.test_case "csv" `Quick test_trace_csv;
        Alcotest.test_case "push allocation-free" `Quick test_trace_push_allocation_free;
        Alcotest.test_case "long series spans columns" `Quick test_trace_long_series;
      ] );
    ( "net.topology",
      [
        Alcotest.test_case "routing" `Quick test_dumbbell_routing;
        Alcotest.test_case "bdp" `Quick test_dumbbell_bdp;
        Alcotest.test_case "duplicate flow rejected" `Quick test_dumbbell_duplicate_flow;
      ] );
  ]
