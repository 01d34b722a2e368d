(** CCP NewReno: the off-datapath reimplementation compared against
    {!Native_reno} in Figure 4.

    Once per RTT the datapath reports the fold summary; the agent applies
    one RTT's worth of Reno growth (slow start: the acknowledged bytes;
    congestion avoidance: one MSS per window) and sends the new window.
    Loss arrives as an urgent event and halves the window immediately —
    one IPC round-trip (tens of µs) after the datapath detected it.

    The contract with the datapath:
    - At join ([on_ready]) the flow is installed one measurement-only
      program, [Measure(std_fold).WaitRtts(i).Report()] with no [Cwnd]
      ({!Prog.measurement_program}), and is never re-installed. The
      program keeps its pc, fold and wait across every window change, so
      the ACKs that arrive while a report's answer is in flight are
      counted in the next report.
    - The window goes out with [set_cwnd] on ready, on every report and
      on every urgent, whether or not it changed. A report that leaves
      the window alone would otherwise get no answer: the datapath
      watchdog reads agent silence as failure and takes the flow, and a
      [Set_cwnd] frame lost on the channel would stand until the window
      next moved. Sent on every report, the next report repairs it. *)

val create : unit -> Ccp_agent.Algorithm.t
val create_with : ?interval_rtts:float -> ?react_to_ecn:bool -> unit -> Ccp_agent.Algorithm.t
(** [interval_rtts] sets the report cadence (ablation knob); default 1. *)
