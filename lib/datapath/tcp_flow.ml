open Ccp_util
open Ccp_eventsim
open Ccp_net

type config = {
  mss : int;
  initial_cwnd_segments : int;
  ecn_capable : bool;
  min_rto : Time_ns.t;
  app_limit_bytes : int option;
}

let default_config =
  {
    mss = 1448;
    initial_cwnd_segments = 10;
    ecn_capable = false;
    min_rto = Time_ns.ms 200;
    app_limit_bytes = None;
  }

(* Scoreboard entry: one transmitted, not yet cumulatively acknowledged
   segment. [copies] counts transmissions currently believed in the
   network; it drops to zero when the segment is SACKed (delivered) or
   declared lost.

   Entries are threaded on two intrusive circular lists that share the
   flow's sentinel [head], so keeping the scoreboard allocates nothing
   beyond the entries themselves. [next] links every outstanding segment
   in sequence order. [u_prev]/[u_next] link the unSACKed ones, also in
   sequence order: per-ACK loss-recovery scans walk this list, so their
   cost does not grow with the SACKed part of the window. A segment off a
   list links to itself there. *)
type seg = {
  seq : int;
  len : int;
  mutable sent_at : Time_ns.t;
  mutable retransmitted : bool;
  mutable snapshot : Rate_estimator.snapshot;
  mutable sacked : bool;
  mutable lost : bool;
  mutable copies : int;
  mutable next : seg;
  mutable u_prev : seg;
  mutable u_next : seg;
}

type t = {
  sim : Sim.t;
  flow : Packet.flow_id;
  config : config;
  cc : Congestion_iface.t;
  transmit : Packet.t -> unit;
  rtt_est : Rtt_estimator.t;
  rate_est : Rate_estimator.t;
  pacer : Pacer.t;
  mutable ctl : Congestion_iface.ctl option;
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable cwnd : int;
  segs : (int, seg) Hashtbl.t;  (* keyed by seq *)
  head : seg;
      (* Sentinel of both scoreboard lists: [head.next] is the oldest
         outstanding segment, [head.u_next] the oldest unSACKed one. *)
  mutable tail : seg;  (* newest outstanding segment; [head] when none *)
  retx_queue : seg Queue.t;  (* lost segments awaiting retransmission *)
  mutable pipe : int;  (* bytes believed in the network *)
  mutable highest_sacked : int;  (* highest SACKed byte (exclusive) *)
  mutable newest_sacked_sent_at : Time_ns.t;  (* RACK: send time of newest SACKed data *)
  mutable loss_scan_seq : int;  (* loss marking resumes here *)
  mutable recovery_point : int option;
  (* Proportional Rate Reduction (RFC 6937) state: during recovery,
     transmissions are clocked by delivered data instead of bursting the
     whole cwnd-pipe gap at once. *)
  mutable prr_delivered : int;
  mutable prr_out : int;
  mutable recover_fs : int;
  mutable recovery_quota : int;  (* bytes try_send may currently emit *)
  mutable rto_timer : Sim.timer option;
  mutable rto_backoff : int;
  mutable send_timer : Sim.timer option;
  mutable started : bool;
  (* counters *)
  mutable segments_sent : int;
  mutable retransmit_count : int;
  mutable timeout_count : int;
  mutable recovery_count : int;
  mutable dup_acks : int;
  (* listeners *)
  mutable cwnd_listener : (Time_ns.t -> int -> unit) option;
  mutable rtt_listener : (Time_ns.t -> Time_ns.t -> unit) option;
  (* observability *)
  obs_h : obs_handles option;
  obs_sample_interval : Time_ns.t;
  mutable last_flow_sample : Time_ns.t;
  (* measurement-noise perturbation; None = clean measurements *)
  perturb : Ccp_perturb.Sampler.t option;
}

and obs_handles = {
  obs : Ccp_obs.Obs.t;
  o_rtt_us : Ccp_obs.Metrics.histogram;
  o_segments : Ccp_obs.Metrics.counter;
  o_retx : Ccp_obs.Metrics.counter;
  o_timeouts : Ccp_obs.Metrics.counter;
  o_recoveries : Ccp_obs.Metrics.counter;
  o_cwnd_updates : Ccp_obs.Metrics.counter;
}

(* Handles are shared across flows: the registry is get-or-create by name. *)
let make_obs_handles obs =
  let open Ccp_obs in
  let m = obs.Obs.metrics in
  {
    obs;
    o_rtt_us = Metrics.histogram m ~unit_:"us" "tcp.rtt_us";
    o_segments = Metrics.counter m ~unit_:"segments" "tcp.segments_sent";
    o_retx = Metrics.counter m ~unit_:"segments" "tcp.retransmits";
    o_timeouts = Metrics.counter m ~unit_:"events" "tcp.timeouts";
    o_recoveries = Metrics.counter m ~unit_:"events" "tcp.recoveries";
    o_cwnd_updates = Metrics.counter m ~unit_:"updates" "tcp.cwnd_updates";
  }

(* The sentinel's snapshot is never read; taking it from a throwaway
   estimator leaves the flow's own send accounting untouched. *)
let sentinel_snapshot = Rate_estimator.on_send (Rate_estimator.create ()) ~now:Time_ns.zero ~bytes:0

let create ~sim ~flow ~config ~cc ~transmit ?obs ?(obs_sample_interval = Time_ns.zero)
    ?perturb () =
  if config.mss <= 0 then invalid_arg "Tcp_flow: mss must be positive";
  let rec head =
    {
      seq = -1;
      len = 0;
      sent_at = Time_ns.zero;
      retransmitted = false;
      snapshot = sentinel_snapshot;
      sacked = false;
      lost = false;
      copies = 0;
      next = head;
      u_prev = head;
      u_next = head;
    }
  in
  {
    sim;
    flow;
    config;
    cc;
    transmit;
    rtt_est = Rtt_estimator.create ~min_rto:config.min_rto ();
    rate_est =
      Rate_estimator.create
        ?delivery_transform:
          (Option.map (fun s r -> Ccp_perturb.Sampler.delivery_rate s r) perturb)
        ();
    pacer = Pacer.create ~burst_bytes:(10 * config.mss) ();
    ctl = None;
    snd_una = 0;
    snd_nxt = 0;
    cwnd = config.initial_cwnd_segments * config.mss;
    segs = Hashtbl.create 1024;
    head;
    tail = head;
    retx_queue = Queue.create ();
    pipe = 0;
    highest_sacked = 0;
    newest_sacked_sent_at = Time_ns.zero;
    loss_scan_seq = 0;
    recovery_point = None;
    prr_delivered = 0;
    prr_out = 0;
    recover_fs = 1;
    recovery_quota = 0;
    rto_timer = None;
    rto_backoff = 1;
    send_timer = None;
    started = false;
    segments_sent = 0;
    retransmit_count = 0;
    timeout_count = 0;
    recovery_count = 0;
    dup_acks = 0;
    cwnd_listener = None;
    rtt_listener = None;
    obs_h = Option.map make_obs_handles obs;
    obs_sample_interval;
    last_flow_sample = Time_ns.ns (-1);
    perturb;
  }

let now t = Sim.now t.sim
let inflight t = t.pipe

(* Sampled per-flow time series for the flight recorder, throttled to at
   most one [Flow_sample] per [obs_sample_interval] (0 = every ACK). *)
let maybe_flow_sample t at =
  match t.obs_h with
  | None -> ()
  | Some h ->
    if
      Time_ns.compare (Time_ns.sub at t.last_flow_sample) t.obs_sample_interval
      >= 0
      || Time_ns.compare t.last_flow_sample Time_ns.zero < 0
    then begin
      t.last_flow_sample <- at;
      let srtt_us =
        match Rtt_estimator.srtt t.rtt_est with
        | Some s -> Time_ns.to_float_us s
        | None -> 0.0
      in
      let delivery_rate =
        match Rate_estimator.delivery_rate_ewma t.rate_est with
        | Some r -> r
        | None -> 0.0
      in
      Ccp_obs.Obs.record h.obs ~at
        (Ccp_obs.Recorder.Flow_sample
           {
             flow = t.flow;
             cwnd = t.cwnd;
             rate = Pacer.rate t.pacer;
             srtt_us;
             inflight = t.pipe;
             delivery_rate;
           })
    end

let notify_cwnd t =
  match t.cwnd_listener with Some f -> f (now t) t.cwnd | None -> ()

let set_cwnd_internal t bytes =
  let clamped = max t.config.mss bytes in
  if clamped <> t.cwnd then begin
    t.cwnd <- clamped;
    (match t.obs_h with
    | Some h -> Ccp_obs.Metrics.incr h.o_cwnd_updates
    | None -> ());
    notify_cwnd t
  end

let unlink_unsacked seg =
  seg.u_prev.u_next <- seg.u_next;
  seg.u_next.u_prev <- seg.u_prev;
  seg.u_prev <- seg;
  seg.u_next <- seg

(* --- RTO management --- *)

let cancel_rto t =
  Option.iter Sim.cancel t.rto_timer;
  t.rto_timer <- None

let rec arm_rto t =
  cancel_rto t;
  if t.snd_nxt > t.snd_una then begin
    let delay = Time_ns.scale (Rtt_estimator.rto t.rtt_est) (float_of_int t.rto_backoff) in
    t.rto_timer <- Some (Sim.schedule_after t.sim ~delay (fun () -> on_rto t))
  end

(* --- transmission --- *)

and emit t seg ~retransmit =
  let at = now t in
  seg.sent_at <- at;
  seg.snapshot <- Rate_estimator.on_send t.rate_est ~now:at ~bytes:seg.len;
  seg.copies <- seg.copies + 1;
  t.pipe <- t.pipe + seg.len;
  t.segments_sent <- t.segments_sent + 1;
  (match t.obs_h with
  | Some h ->
    Ccp_obs.Metrics.incr h.o_segments;
    if retransmit then Ccp_obs.Metrics.incr h.o_retx
  | None -> ());
  if retransmit then begin
    seg.retransmitted <- true;
    t.retransmit_count <- t.retransmit_count + 1
  end;
  Pacer.note_sent t.pacer ~now:at ~bytes:(seg.len + Packet.header_bytes);
  t.transmit
    (Packet.data ~flow:t.flow ~seq:seg.seq ~len:seg.len ~sent_at:at ~is_retransmit:retransmit
       ~ecn_capable:t.config.ecn_capable ());
  if Option.is_none t.rto_timer then arm_rto t

and send_new_segment t ~len =
  let seq = t.snd_nxt in
  let seg =
    {
      seq;
      len;
      sent_at = now t;
      retransmitted = false;
      snapshot = Rate_estimator.on_send t.rate_est ~now:(now t) ~bytes:0;
      sacked = false;
      lost = false;
      copies = 0;
      next = t.head;
      u_prev = t.head.u_prev;
      u_next = t.head;
    }
  in
  Hashtbl.replace t.segs seq seg;
  (* The newest segment goes at the end of both lists. *)
  t.tail.next <- seg;
  t.tail <- seg;
  t.head.u_prev.u_next <- seg;
  t.head.u_prev <- seg;
  t.snd_nxt <- t.snd_nxt + len;
  emit t seg ~retransmit:false

and next_payload_len t =
  let len =
    match t.config.app_limit_bytes with
    | None -> t.config.mss
    | Some limit -> min t.config.mss (limit - t.snd_nxt)
  in
  if len <= 0 then None else Some len

(* Next lost segment that still needs retransmission. The hole at snd_una
   has absolute priority: only it can advance the window. A segment
   returned from the head may still sit in the retransmit queue; it is
   skipped there later because retransmission clears its [lost] flag. *)
and pop_retransmit_candidate t =
  let oldest = t.head.next in
  if oldest != t.head && oldest.lost && (not oldest.sacked) && oldest.copies = 0 then Some oldest
  else
    let rec pop () =
      match Queue.take_opt t.retx_queue with
      | None -> None
      | Some seg ->
        if seg.lost && (not seg.sacked) && seg.copies = 0 && seg.seq + seg.len > t.snd_una then
          Some seg
        else pop ()
    in
    pop ()

and try_send t =
  if t.started then begin
    Option.iter Sim.cancel t.send_timer;
    t.send_timer <- None;
    let rec loop () =
      let quota_ok = t.recovery_point = None || t.recovery_quota >= t.config.mss in
      if quota_ok && t.pipe + t.config.mss <= t.cwnd then begin
        let at = now t in
        let wire = t.config.mss + Packet.header_bytes in
        let earliest = Pacer.earliest_send t.pacer ~now:at ~bytes:wire in
        if Time_ns.compare earliest at > 0 then
          t.send_timer <-
            Some (Sim.schedule t.sim ~at:earliest (fun () ->
                      t.send_timer <- None;
                      try_send t))
        else begin
          (* Lost segments take priority over new data. *)
          let consume_quota len =
            if t.recovery_point <> None then begin
              t.recovery_quota <- t.recovery_quota - len;
              t.prr_out <- t.prr_out + len
            end
          in
          match pop_retransmit_candidate t with
          | Some seg ->
            seg.lost <- false;
            consume_quota seg.len;
            emit t seg ~retransmit:true;
            loop ()
          | None -> (
            match next_payload_len t with
            | Some len ->
              consume_quota len;
              send_new_segment t ~len;
              loop ()
            | None -> ())
        end
      end
    in
    loop ()
  end

(* --- timeout --- *)

and on_rto t =
  t.rto_timer <- None;
  if t.snd_nxt > t.snd_una then begin
    t.timeout_count <- t.timeout_count + 1;
    (match t.obs_h with
    | Some h -> Ccp_obs.Metrics.incr h.o_timeouts
    | None -> ());
    t.rto_backoff <- min 64 (t.rto_backoff * 2);
    (* RFC 6675 style: keep the SACK scoreboard, declare every unSACKed
       outstanding segment lost, and let the (collapsed) window slow-start
       the retransmissions. Re-sending SACKed data would be pure waste.
       The retransmit queue is rebuilt in sequence order so the hole at
       snd_una — the only segment that can advance the window — goes out
       first, not behind a backlog of stale entries. *)
    Queue.clear t.retx_queue;
    let rec mark_lost seg lost =
      if seg == t.head then lost
      else begin
        t.pipe <- t.pipe - (seg.len * seg.copies);
        seg.copies <- 0;
        seg.retransmitted <- false;
        let lost = if seg.lost then lost else lost + seg.len in
        seg.lost <- true;
        Queue.add seg t.retx_queue;
        mark_lost seg.u_next lost
      end
    in
    let lost = mark_lost t.head.u_next 0 in
    t.recovery_point <- None;
    t.recovery_quota <- 0;
    t.prr_delivered <- 0;
    t.prr_out <- 0;
    let ctl = Option.get t.ctl in
    t.cc.on_loss ctl { kind = Rto; at = now t; bytes_lost_estimate = max lost t.config.mss };
    try_send t;
    arm_rto t
  end

(* --- SACK scoreboard --- *)

(* Mark [start, stop) delivered out of order; returns bytes newly marked.
   Ranges above snd_nxt are stale echoes of data sent before an RTO's
   go-back-N and must be ignored or they poison the scoreboard. *)
let mark_sacked t (start, stop) =
  let stop = min stop t.snd_nxt in
  let newly = ref 0 in
  let rec walk seq =
    if seq < stop then
      match Hashtbl.find_opt t.segs seq with
      | None -> () (* already cumulatively acknowledged *)
      | Some seg ->
        if not seg.sacked then begin
          t.pipe <- t.pipe - (seg.len * seg.copies);
          seg.copies <- 0;
          seg.sacked <- true;
          unlink_unsacked seg;
          seg.lost <- false;
          if Time_ns.compare seg.sent_at t.newest_sacked_sent_at > 0 then
            t.newest_sacked_sent_at <- seg.sent_at;
          newly := !newly + seg.len
        end;
        walk (seq + seg.len)
  in
  walk start;
  if stop > t.highest_sacked then t.highest_sacked <- stop;
  !newly

(* FACK loss inference with a RACK-style reorder window: a segment is
   deemed lost once (a) bytes equivalent to three segments were SACKed
   above it, and (b) data sent at least srtt/4 AFTER it has already been
   delivered — so mild reordering (link jitter displaces packets by less
   than the window) never triggers spurious retransmissions, while real
   holes are marked as soon as meaningfully newer data is SACKed. The
   scan stops at the first not-yet-judgeable segment (later segments were
   sent later still) without advancing the scan pointer, so it is
   re-examined on the next ACK. Returns bytes newly marked. *)
let scan_losses t =
  let threshold = 3 * t.config.mss in
  let reorder_window =
    match Rtt_estimator.srtt t.rtt_est with
    | Some srtt -> Time_ns.scale srtt 0.25
    | None -> Time_ns.zero
  in
  let newly_lost = ref 0 in
  let rec walk seq =
    if seq < t.snd_nxt && seq + threshold < t.highest_sacked then begin
      match Hashtbl.find_opt t.segs seq with
      | None -> walk (max (seq + t.config.mss) t.snd_una)
      | Some seg ->
        let markable = (not seg.sacked) && (not seg.lost) && not seg.retransmitted in
        let rack_ok =
          Time_ns.compare (Time_ns.sub t.newest_sacked_sent_at seg.sent_at) reorder_window >= 0
        in
        if markable && not rack_ok then
          (* Not judgeable yet: revisit from here on the next ACK. *)
          ()
        else begin
          if markable then begin
            t.pipe <- t.pipe - (seg.len * seg.copies);
            seg.copies <- 0;
            seg.lost <- true;
            newly_lost := !newly_lost + seg.len;
            Queue.add seg t.retx_queue
          end;
          t.loss_scan_seq <- seq + seg.len;
          walk (seq + seg.len)
        end
    end
  in
  walk (max t.loss_scan_seq t.snd_una);
  !newly_lost

(* RFC 6937 proportional rate reduction: compute how much try_send may
   emit, given the bytes this ACK newly delivered (cum-acked + SACKed).
   While the pipe exceeds the post-cut window, send proportionally to
   deliveries; once below, slow-start back up to the window. *)
let prr_update t ~delivered =
  if t.recovery_point <> None && delivered > 0 then begin
    t.prr_delivered <- t.prr_delivered + delivered;
    let ssthresh = t.cwnd in
    let sndcnt =
      if t.pipe > ssthresh then
        (((t.prr_delivered * ssthresh) + t.recover_fs - 1) / t.recover_fs) - t.prr_out
      else begin
        let limit = max (t.prr_delivered - t.prr_out) delivered + t.config.mss in
        min (ssthresh - t.pipe) limit
      end
    in
    t.recovery_quota <- max 0 sndcnt
  end

(* RACK-style lost-retransmission detection: a retransmitted, still
   unSACKed segment whose (re)transmission is more than two smoothed RTTs
   old — while ACKs keep arriving — was lost again. Re-mark it so
   try_send resends instead of stalling into an RTO. Scanning is bounded
   to the first [max_retx_scan] unSACKed segments, which the unSACKed list
   reaches without stepping over SACKed ones, so per-ACK work is O(1)
   however much of the window is SACKed. *)
let max_retx_scan = 64

let rec scan_retransmits t ~at ~deadline seg examined =
  if seg != t.head && examined < max_retx_scan then begin
    if
      seg.retransmitted && seg.copies > 0
      && Time_ns.compare (Time_ns.sub at seg.sent_at) deadline > 0
    then begin
      t.pipe <- t.pipe - (seg.len * seg.copies);
      seg.copies <- 0;
      seg.lost <- true;
      Queue.add seg t.retx_queue
    end;
    scan_retransmits t ~at ~deadline seg.u_next (examined + 1)
  end

let check_retransmit_timeouts t =
  match Rtt_estimator.srtt t.rtt_est with
  | None -> ()
  | Some srtt ->
    scan_retransmits t ~at:(now t) ~deadline:(Time_ns.scale srtt 2.0) t.head.u_next 0

let pop_acked t cum_ack =
  let rec pop newest =
    let seg = t.head.next in
    if seg != t.head && seg.seq + seg.len <= cum_ack then begin
      t.head.next <- seg.next;
      if t.tail == seg then t.tail <- t.head;
      seg.next <- seg;
      if not seg.sacked then unlink_unsacked seg;
      Hashtbl.remove t.segs seg.seq;
      t.pipe <- t.pipe - (seg.len * seg.copies);
      seg.copies <- 0;
      (* Prefer an RTT/rate sample from a never-retransmitted segment. *)
      let newest = if seg.retransmitted then newest else Some seg in
      pop newest
    end
    else newest
  in
  pop None

(* Scoreboard invariants, for tests: [pipe] is the sum of [len * copies]
   over outstanding segments; the outstanding list is contiguous from
   below [snd_una] up to [snd_nxt] and ends at [tail]; [segs] maps
   exactly the outstanding segments; and the unSACKed list is the
   outstanding segments with [sacked = false], in sequence order. *)
let audit t =
  let fail fmt = Printf.ksprintf failwith fmt in
  let rec walk seg unsacked ~count ~pipe =
    if seg == t.head then begin
      if unsacked != t.head then fail "unSACKed list runs past the scoreboard at %d" unsacked.seq;
      (count, pipe)
    end
    else begin
      let stop = seg.seq + seg.len in
      if count = 0 && stop <= t.snd_una then fail "acknowledged segment %d outstanding" seg.seq;
      if seg.next == t.head then begin
        if t.tail != seg then fail "tail is not the newest segment %d" seg.seq;
        if stop <> t.snd_nxt then fail "scoreboard ends at %d, snd_nxt is %d" stop t.snd_nxt
      end
      else if seg.next.seq <> stop then fail "gap after segment %d" seg.seq;
      (match Hashtbl.find_opt t.segs seg.seq with
      | Some s when s == seg -> ()
      | Some _ | None -> fail "segment %d not in the table" seg.seq);
      let unsacked =
        if seg.sacked then unsacked
        else if unsacked != seg then fail "unSACKed segment %d is off the unSACKed list" seg.seq
        else if seg.u_next.u_prev != seg then fail "broken back link after %d" seg.seq
        else seg.u_next
      in
      walk seg.next unsacked ~count:(count + 1) ~pipe:(pipe + (seg.len * seg.copies))
    end
  in
  match walk t.head.next t.head.u_next ~count:0 ~pipe:0 with
  | exception Failure msg -> Error msg
  | _ when t.head.u_next.u_prev != t.head -> Error "broken back link at the sentinel"
  | _ when t.head.next == t.head && t.tail != t.head -> Error "tail set on an empty scoreboard"
  | count, _ when count <> Hashtbl.length t.segs ->
    Error (Printf.sprintf "%d outstanding segments, %d in the table" count (Hashtbl.length t.segs))
  | _, pipe when pipe <> t.pipe -> Error (Printf.sprintf "pipe is %d, segments hold %d" t.pipe pipe)
  | _ -> Ok ()

let build_ctl t : Congestion_iface.ctl =
  {
    flow = t.flow;
    mss = t.config.mss;
    now = (fun () -> now t);
    get_cwnd = (fun () -> t.cwnd);
    set_cwnd =
      (fun bytes ->
        set_cwnd_internal t bytes;
        try_send t);
    get_rate = (fun () -> Pacer.rate t.pacer);
    set_rate =
      (fun rate ->
        Pacer.set_rate t.pacer ~now:(now t) rate;
        try_send t);
    srtt = (fun () -> Rtt_estimator.srtt t.rtt_est);
    latest_rtt = (fun () -> Rtt_estimator.latest t.rtt_est);
    min_rtt = (fun () -> Rtt_estimator.min_rtt t.rtt_est);
    inflight = (fun () -> inflight t);
    send_rate_ewma = (fun () -> Rate_estimator.send_rate_ewma t.rate_est);
    delivery_rate_ewma = (fun () -> Rate_estimator.delivery_rate_ewma t.rate_est);
  }

let ctl t =
  match t.ctl with
  | Some c -> c
  | None ->
    let c = build_ctl t in
    t.ctl <- Some c;
    c

let start t =
  if not t.started then begin
    t.started <- true;
    let c = ctl t in
    t.cc.on_init c;
    notify_cwnd t;
    try_send t
  end

let on_ack t (pkt : Packet.t) =
  match pkt.payload with
  | Data _ -> invalid_arg "Tcp_flow.on_ack: got a data packet"
  | Ack a ->
    let at = now t in
    let c = ctl t in
    let true_rtt =
      let r = Time_ns.sub at a.echo_sent_at in
      if Time_ns.is_positive r then Some r else None
    in
    (* The controller (estimators, ack event, and through them the CCP
       report primitives) sees the perturbed sample; the observability
       sinks and the rtt listener keep the true network RTT, so a
       robustness scorecard measures real queueing, not injected noise. *)
    let rtt_sample =
      match t.perturb with
      | Some s -> Option.map (fun r -> Ccp_perturb.Sampler.rtt s r) true_rtt
      | None -> true_rtt
    in
    Option.iter (fun r -> Rtt_estimator.on_sample t.rtt_est r) rtt_sample;
    Option.iter
      (fun r ->
        (match t.obs_h with
        | Some h -> Ccp_obs.Metrics.observe h.o_rtt_us (Time_ns.to_float_us r)
        | None -> ());
        match t.rtt_listener with Some f -> f at r | None -> ())
      true_rtt;
    let sacked_bytes =
      List.fold_left (fun acc range -> acc + mark_sacked t range) 0 a.newly_sacked
    in
    let newly_lost = scan_losses t in
    (* One multiplicative decrease per window of loss, as TCP requires. *)
    if newly_lost > 0 && t.recovery_point = None then begin
      t.recovery_point <- Some t.snd_nxt;
      t.recovery_count <- t.recovery_count + 1;
      (match t.obs_h with
      | Some h -> Ccp_obs.Metrics.incr h.o_recoveries
      | None -> ());
      t.prr_delivered <- 0;
      t.prr_out <- 0;
      t.recover_fs <- max (t.pipe + newly_lost) t.config.mss;
      t.recovery_quota <- 0;
      t.cc.on_loss c { kind = Dup_acks; at; bytes_lost_estimate = newly_lost }
    end;
    check_retransmit_timeouts t;
    let cum = min a.cum_ack t.snd_nxt in
    if cum > t.snd_una then begin
      let newly = cum - t.snd_una in
      t.snd_una <- cum;
      if t.loss_scan_seq < cum then t.loss_scan_seq <- cum;
      if t.highest_sacked < cum then t.highest_sacked <- cum;
      let newest_seg = pop_acked t cum in
      let rates =
        match newest_seg with
        | Some seg -> Rate_estimator.on_ack t.rate_est ~now:at ~bytes_newly_acked:newly seg.snapshot
        | None ->
          { Rate_estimator.send_rate = None; delivery_rate = None }
      in
      t.rto_backoff <- 1;
      prr_update t ~delivered:(newly + sacked_bytes);
      (match t.recovery_point with
      | Some point when cum >= point ->
        t.recovery_point <- None;
        t.recovery_quota <- 0;
        t.cc.on_exit_recovery c
      | Some _ | None -> ());
      let event : Congestion_iface.ack_event =
        {
          now = at;
          bytes_acked = newly;
          rtt_sample;
          ecn_echo = a.ecn_echo;
          send_rate = rates.Rate_estimator.send_rate;
          delivery_rate = rates.Rate_estimator.delivery_rate;
          inflight_after = inflight t;
        }
      in
      t.cc.on_ack c event;
      maybe_flow_sample t at;
      if t.snd_nxt > t.snd_una then arm_rto t else cancel_rto t;
      try_send t
    end
    else begin
      t.dup_acks <- t.dup_acks + 1;
      prr_update t ~delivered:sacked_bytes;
      let event : Congestion_iface.ack_event =
        {
          now = at;
          bytes_acked = 0;
          rtt_sample;
          ecn_echo = a.ecn_echo;
          send_rate = None;
          delivery_rate = None;
          inflight_after = inflight t;
        }
      in
      t.cc.on_ack c event;
      maybe_flow_sample t at;
      try_send t
    end

let cwnd t = t.cwnd
let pacing_rate t = Pacer.rate t.pacer
let snd_nxt t = t.snd_nxt
let snd_una t = t.snd_una
let in_recovery t = t.recovery_point <> None
let srtt t = Rtt_estimator.srtt t.rtt_est
let min_rtt t = Rtt_estimator.min_rtt t.rtt_est
let rtt_estimator t = t.rtt_est
let rate_estimator t = t.rate_est
let segments_sent t = t.segments_sent
let retransmits t = t.retransmit_count
let timeouts t = t.timeout_count
let recoveries t = t.recovery_count
let set_cwnd_listener t f = t.cwnd_listener <- Some f
let set_rtt_listener t f = t.rtt_listener <- Some f
