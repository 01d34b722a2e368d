open Ccp_agent

type state = {
  mutable cwnd : int;  (* agent's shadow of the window, bytes *)
  mutable ssthresh : int;
  mutable acked_accum : int;
  mutable last_ecn_us : float;
}

let create_with ?(interval_rtts = 1.0) ?(react_to_ecn = true) () =
  let make (handle : Algorithm.handle) =
    let mss = handle.info.mss in
    let st =
      {
        cwnd = handle.info.init_cwnd;
        ssthresh = max_int / 2;
        acked_accum = 0;
        last_ecn_us = 0.0;
      }
    in
    (* Sent on every event, changed or not: see ccp_reno.mli. *)
    let push () = handle.set_cwnd st.cwnd in
    let on_ready () =
      handle.install (Prog.measurement_program ~interval_rtts ());
      push ()
    in
    let halve () =
      st.ssthresh <- max (st.cwnd / 2) (2 * mss);
      st.cwnd <- st.ssthresh
    in
    let on_report report =
      let acked = int_of_float (Algorithm.field_exn report "acked") in
      let marked = Algorithm.field_exn report "marked" in
      let srtt_us = Algorithm.field_exn report "_srtt_us" in
      if react_to_ecn && marked > 0.0 && handle.now_us () -. st.last_ecn_us > srtt_us then begin
        st.last_ecn_us <- handle.now_us ();
        halve ()
      end
      else if acked > 0 then begin
        (* At most double per report: the per-RTT equivalent of RFC 3465. *)
        if st.cwnd < st.ssthresh then st.cwnd <- st.cwnd + min acked st.cwnd
        else begin
          st.acked_accum <- st.acked_accum + acked;
          if st.acked_accum >= st.cwnd then begin
            st.acked_accum <- st.acked_accum - st.cwnd;
            st.cwnd <- st.cwnd + mss
          end
        end
      end;
      push ()
    in
    let on_urgent (urgent : Ccp_ipc.Message.urgent) =
      (match urgent.kind with
      | Ccp_ipc.Message.Dup_ack_loss -> halve ()
      | Ccp_ipc.Message.Timeout ->
        st.ssthresh <- max (st.cwnd / 2) (2 * mss);
        st.cwnd <- mss
      | Ccp_ipc.Message.Ecn -> halve ());
      push ()
    in
    (* Warm-restart registers: [on_ready] sends [st.cwnd] with [set_cwnd],
       so restoring cwnd/ssthresh before it runs is enough to resume at
       the pre-crash operating point. *)
    let on_checkpoint () =
      [|
        ("cwnd", float_of_int st.cwnd);
        ("ssthresh", float_of_int (min st.ssthresh (max_int / 2)));
        ("acked_accum", float_of_int st.acked_accum);
      |]
    in
    let on_restore registers =
      Array.iter
        (fun (name, value) ->
          if Float.is_finite value && value >= 0.0 then
            match name with
            | "cwnd" -> if value >= float_of_int mss then st.cwnd <- int_of_float value
            | "ssthresh" -> st.ssthresh <- int_of_float value
            | "acked_accum" -> st.acked_accum <- int_of_float value
            | _ -> ())
        registers
    in
    {
      Algorithm.no_op_handlers with
      on_ready;
      on_report;
      on_urgent;
      on_checkpoint;
      on_restore;
    }
  in
  { Algorithm.name = "ccp-reno"; make }

let create () = create_with ()
