open Ccp_util

type flow_id = int

type data = {
  seq : int;
  len : int;
  sent_at : Time_ns.t;
  is_retransmit : bool;
}

type ack = {
  cum_ack : int;
  echo_sent_at : Time_ns.t;
  ecn_echo : bool;
  acked_segments : int;
  recv_bytes : int;
  newly_sacked : (int * int) list;
}

type payload = Data of data | Ack of ack

type t = {
  flow : flow_id;
  wire_size : int;
  ecn_capable : bool;
  mutable ecn_marked : bool;
  payload : payload;
}

let header_bytes = 40
let ack_wire_size = header_bytes

let data ~flow ~seq ~len ~sent_at ~is_retransmit ~ecn_capable =
  {
    flow;
    wire_size = len + header_bytes;
    ecn_capable;
    ecn_marked = false;
    payload = Data { seq; len; sent_at; is_retransmit };
  }

let ack ~flow ~cum_ack ~echo_sent_at ~ecn_echo ?(acked_segments = 1) ?(newly_sacked = [])
    ~recv_bytes () =
  {
    flow;
    wire_size = ack_wire_size;
    ecn_capable = false;
    ecn_marked = false;
    payload = Ack { cum_ack; echo_sent_at; ecn_echo; acked_segments; recv_bytes; newly_sacked };
  }

let placeholder =
  {
    flow = -1;
    wire_size = 0;
    ecn_capable = false;
    ecn_marked = false;
    payload =
      Ack
        {
          cum_ack = 0;
          echo_sent_at = Time_ns.zero;
          ecn_echo = false;
          acked_segments = 0;
          recv_bytes = 0;
          newly_sacked = [];
        };
  }

let is_data t = match t.payload with Data _ -> true | Ack _ -> false
let is_ack t = match t.payload with Ack _ -> true | Data _ -> false

let seq_end (d : data) = d.seq + d.len

let pp fmt t =
  match t.payload with
  | Data d ->
    Format.fprintf fmt "data[flow=%d seq=%d len=%d%s%s]" t.flow d.seq d.len
      (if d.is_retransmit then " retx" else "")
      (if t.ecn_marked then " ce" else "")
  | Ack a ->
    Format.fprintf fmt "ack[flow=%d cum=%d%s]" t.flow a.cum_ack
      (if a.ecn_echo then " ece" else "")
