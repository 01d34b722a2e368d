(** Congestion-manager-style aggregation (§5, and the CM comparison in
    §4): one congestion controller for a {e group} of flows sharing a
    bottleneck.

    The paper notes that CCP "makes it possible to implement congestion
    control ... for groups of flows that share common bottlenecks" — the
    Congestion Manager idea, but with the controller off the datapath and
    the per-flow enforcement expressed through the datapath API.

    This implementation keeps a single AIMD window for the whole
    aggregate: any member's per-RTT report grows it by 1/N of a segment
    (N members, so the group probes as one flow), any member's loss
    halves it (once per RTT across the group), and a timeout quarters
    it. A decrease is floored at two segments per member (one after a
    timeout) but never raises the aggregate: below that floor a loss
    leaves it where it is. A member's share is the aggregate over N,
    floored at one 1448-byte segment.

    Members are keyed by flow id. The agent runs [on_ready] again for a
    live flow on a watchdog [Ready] probe, a re-admission and a warm
    restart; such a re-join replaces that flow's member (its handle, and
    the window it holds) and leaves N alone. A member never leaves: the
    datapath sends no [Closed] and the algorithm API has no close event,
    so a finished flow stays counted in every share.

    The contract with the datapath:
    - At join, a member is installed one measurement-only program,
      [Measure(std_fold).WaitRtts(1.0).Report()] with no [Cwnd], and is
      never re-installed. Its window is steered only with [set_cwnd],
      which the datapath applies through the guard envelope without
      touching the program's pc, fold or wait, so every member keeps
      reporting once per RTT however often the group is re-divided.
    - A member is sent the current share only when it differs from the
      window it holds: the joiner in [on_ready], the reporter in
      [on_report], an urgent's sender in [on_urgent] (after a timeout
      the sender holds one MSS, which the datapath set), and, when a
      loss or timeout shrinks the aggregate, every member holding more
      than the new share at once. Growth, and the smaller share a join
      leaves, reach the other members at their own next report.

    So the frames sent to the datapath stay at one per report or fewer
    and fall as the group grows; a join costs two (the install and the
    share). *)

type t

val create :
  ?initial_segments:int ->
  ?increase_segments:float ->
  ?decrease_factor:float ->
  unit ->
  t
(** One aggregate; hand its {!algorithm} to every flow in the group. *)

val algorithm : t -> Ccp_agent.Algorithm.t

val aggregate_cwnd : t -> int
(** Current total window, bytes. *)

val member_count : t -> int
(** Distinct flows that have joined. *)
