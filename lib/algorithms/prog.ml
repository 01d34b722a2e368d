open Ccp_lang.Ast

let c f = Const f
let ci i = Const (float_of_int i)

let std_fold =
  {
    init =
      [
        ("acked", c 0.0);
        ("marked", c 0.0);
        ("pkts", c 0.0);
        ("maxrate", c 0.0);
        ("minrtt", c 1e12);
        ("lastrtt", c 0.0);
        ("sumrtt", c 0.0);
      ];
    update =
      [
        ("acked", Bin (Add, Var "acked", Pkt "bytes_acked"));
        ("marked", Bin (Add, Var "marked", Bin (Mul, Pkt "ecn", Pkt "bytes_acked")));
        ("pkts", Bin (Add, Var "pkts", c 1.0));
        ("maxrate", Call ("max", [ Var "maxrate"; Pkt "recv_rate" ]));
        ("minrtt", Call ("min", [ Var "minrtt"; Pkt "rtt_us" ]));
        ("lastrtt", Pkt "rtt_us");
        ("sumrtt", Bin (Add, Var "sumrtt", Pkt "rtt_us"));
      ];
  }

let window_program ?(interval_rtts = 1.0) ~cwnd () =
  program
    [ Measure (Fold std_fold); Cwnd (ci cwnd); Wait_rtts (c interval_rtts); Report ]

let measurement_program ?(interval_rtts = 1.0) () =
  program [ Measure (Fold std_fold); Wait_rtts (c interval_rtts); Report ]

(* A rate-controlled flow still needs a window big enough not to stall the
   pacer: cap the window at 2x the BDP implied by the (just-set) rate and
   the smoothed RTT, floored at 10 segments. *)
let dynamic_cwnd_cap =
  Cwnd
    (Call
       ( "max",
         [
           Bin (Mul, c 2e-6, Bin (Mul, Var "rate", Var "srtt_us"));
           Bin (Mul, c 10.0, Var "mss");
         ] ))

let rate_program ?(interval_rtts = 1.0) ?cwnd_cap ~rate () =
  let cap = match cwnd_cap with Some bytes -> Cwnd (ci bytes) | None -> dynamic_cwnd_cap in
  program
    [ Measure (Fold std_fold); Rate (c rate); cap; Wait_rtts (c interval_rtts); Report ]

let vector_program ?(interval_rtts = 1.0) ~fields ~cwnd () =
  program [ Measure (Vector fields); Cwnd (ci cwnd); Wait_rtts (c interval_rtts); Report ]
