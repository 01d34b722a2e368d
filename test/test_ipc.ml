(* Tests for the IPC substrate: wire primitives, the message codec, the
   latency models, and the simulated channel. *)

open Ccp_util
open Ccp_eventsim
open Ccp_ipc

(* --- Wire --- *)

let test_varint_round_trip () =
  List.iter
    (fun n ->
      let w = Wire.Writer.create () in
      Wire.Writer.varint w n;
      let r = Wire.Reader.of_string (Wire.Writer.contents w) in
      Alcotest.(check int) (Printf.sprintf "varint %d" n) n (Wire.Reader.varint r);
      Alcotest.(check bool) "consumed" true (Wire.Reader.at_end r))
    [ 0; 1; 127; 128; 300; 16_384; 1_000_000; max_int ]

let test_varint_compact () =
  let w = Wire.Writer.create () in
  Wire.Writer.varint w 127;
  Alcotest.(check int) "small value one byte" 1 (Wire.Writer.length w)

let test_varint_rejects_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Wire.Writer.varint: negative") (fun () ->
      Wire.Writer.varint (Wire.Writer.create ()) (-1));
  Alcotest.check_raises "decodes negative" (Wire.Reader.Malformed "varint out of range")
    (fun () ->
      ignore (Wire.Reader.varint (Wire.Reader.of_string "\128\128\128\128\128\128\128\128\064")))

(* Both varints are top-level recursions: encoding into a writer that
   has room and decoding from a reader allocate nothing per call. *)
let test_varint_allocation_free () =
  let values = [| 0; 1; 127; 128; 300; 16_384; 1_000_000; max_int |] in
  let calls = 1024 * Array.length values in
  let w = Wire.Writer.create () in
  let write_all () =
    for _ = 1 to 1024 do
      for i = 0 to Array.length values - 1 do
        Wire.Writer.varint w (Array.unsafe_get values i)
      done
    done
  in
  write_all ();
  let r = Wire.Reader.of_string (Wire.Writer.contents w) in
  Wire.Writer.reset w;
  let before = Gc.minor_words () in
  write_all ();
  let written = Gc.minor_words () -. before in
  let before = Gc.minor_words () in
  let sum = ref 0 in
  for _ = 1 to calls do
    sum := !sum lxor Wire.Reader.varint r
  done;
  let read = Gc.minor_words () -. before in
  Alcotest.(check bool) "every varint read" true (Wire.Reader.at_end r);
  Alcotest.(check (float 0.0)) (Printf.sprintf "writer words over %d calls" calls) 0.0 written;
  Alcotest.(check (float 0.0)) (Printf.sprintf "reader words over %d calls" calls) 0.0 read

let test_zigzag_round_trip () =
  List.iter
    (fun n ->
      let w = Wire.Writer.create () in
      Wire.Writer.zigzag w n;
      let r = Wire.Reader.of_string (Wire.Writer.contents w) in
      Alcotest.(check int) (Printf.sprintf "zigzag %d" n) n (Wire.Reader.zigzag r))
    [ 0; 1; -1; 2; -2; 1_000_000; -1_000_000 ]

let test_float_and_string () =
  let w = Wire.Writer.create () in
  Wire.Writer.float w 16.125;
  Wire.Writer.float w (-0.0);
  Wire.Writer.string w "cwnd";
  Wire.Writer.string w "";
  let r = Wire.Reader.of_string (Wire.Writer.contents w) in
  Alcotest.(check (float 0.0)) "float exact" 16.125 (Wire.Reader.float r);
  Alcotest.(check (float 0.0)) "negative zero" (-0.0) (Wire.Reader.float r);
  Alcotest.(check string) "string" "cwnd" (Wire.Reader.string r);
  Alcotest.(check string) "empty string" "" (Wire.Reader.string r)

let test_skip_and_in_place_floats () =
  let w = Wire.Writer.create () in
  Wire.Writer.raw w "cwnd";
  let nan_payload = Int64.float_of_bits 0x7FF8000000000123L in
  let values = [| -0.0; nan_payload; 1e300 |] in
  Array.iteri (fun i _ -> Wire.Writer.float_at w values i) values;
  List.iter (Wire.Writer.word w) [ 0; 1; max_int ];
  let bytes = Wire.Writer.contents w in
  let r = Wire.Reader.of_string bytes in
  Alcotest.(check bool) "other bytes: no match" false (Wire.Reader.skip_bytes r "cwnD");
  Alcotest.(check bool) "match" true (Wire.Reader.skip_bytes r "cwnd");
  let out = Array.make 3 0.0 in
  Array.iteri (fun i _ -> Wire.Reader.float_into r out i) out;
  Alcotest.(check bool) "floats bit for bit" true
    (Array.for_all2 (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)) values out);
  Alcotest.(check (list int)) "words" [ 0; 1; max_int ]
    (List.init 3 (fun _ -> Wire.Reader.word r));
  Alcotest.(check bool) "consumed" true (Wire.Reader.at_end r);
  (* A word is eight bytes whatever its value, and holds no negative int. *)
  Alcotest.(check int) "word width" (4 + (3 * 8) + (3 * 8)) (String.length bytes);
  Alcotest.check_raises "word out of range" (Wire.Reader.Malformed "word out of range") (fun () ->
      ignore (Wire.Reader.word (Wire.Reader.of_string "\000\000\000\000\000\000\000\064")));
  Alcotest.check_raises "negative word" (Invalid_argument "Wire.Writer.word: negative") (fun () ->
      Wire.Writer.word (Wire.Writer.create ()) (-1));
  let r = Wire.Reader.of_string "\003cw" in
  Alcotest.(check bool) "past the end" false (Wire.Reader.skip_bytes r "\003cwn");
  Alcotest.(check int) "nothing consumed" 3 (Wire.Reader.remaining r);
  Alcotest.(check bool) "raw bytes" true (Wire.Reader.skip_bytes r "\003c");
  (* A pushed limit bounds every read, then pops back to the outer one. *)
  let r = Wire.Reader.of_string "abcdef" in
  let outer = Wire.Reader.push_limit r 2 in
  Alcotest.(check int) "bounded remaining" 2 (Wire.Reader.remaining r);
  Alcotest.(check bool) "no match across the bound" false (Wire.Reader.skip_bytes r "abc");
  Alcotest.(check bool) "match inside it" true (Wire.Reader.skip_bytes r "ab");
  Alcotest.(check bool) "at the bound" true (Wire.Reader.at_end r);
  (match Wire.Reader.byte r with
  | _ -> Alcotest.fail "read past the bound"
  | exception Wire.Reader.Truncated -> ());
  Wire.Reader.pop_limit r outer;
  Alcotest.(check int) "outer bound restored" 4 (Wire.Reader.remaining r);
  match Wire.Reader.push_limit r 5 with
  | _ -> Alcotest.fail "bound past the end accepted"
  | exception Wire.Reader.Truncated -> ()

let test_reader_truncation () =
  let r = Wire.Reader.of_string "\x80" in
  (* continuation bit set but no next byte *)
  match Wire.Reader.varint r with
  | _ -> Alcotest.fail "expected Truncated"
  | exception Wire.Reader.Truncated -> ()

let prop_wire_round_trip =
  QCheck.Test.make ~name:"wire int/float/string round-trip" ~count:300
    QCheck.(triple (int_bound max_int) float string)
    (fun (n, f, s) ->
      QCheck.assume (not (Float.is_nan f));
      let w = Wire.Writer.create () in
      Wire.Writer.varint w n;
      Wire.Writer.float w f;
      Wire.Writer.string w s;
      let r = Wire.Reader.of_string (Wire.Writer.contents w) in
      Wire.Reader.varint r = n && Wire.Reader.float r = f && Wire.Reader.string r = s)

(* --- Codec --- *)

let sample_program =
  Ccp_lang.Parser.parse_program
    "Measure(fold { init { acked = 0; minrtt = 1e12 } update { acked = acked + \
     pkt.bytes_acked; minrtt = min(minrtt, pkt.rtt_us) } }).Cwnd(cwnd + 2 * \
     mss).Rate(1.25 * rate).WaitRtts(1.0).Report()"

let all_message_kinds : Message.t list =
  [
    Message.Ready { flow = 1; mss = 1448; init_cwnd = 14480 };
    Message.Report
      { flow = 2; layout = Message.layout [| "acked"; "_cwnd" |]; values = [| 1.5; 99.0 |] };
    Message.Report_vector
      {
        flow = 3;
        columns = [| "rtt_us"; "bytes_acked" |];
        rows = [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |]; [| 5.0; 6.0 |] |];
      };
    Message.Urgent
      { flow = 4; kind = Message.Dup_ack_loss; cwnd_at_event = 10; inflight_at_event = 20 };
    Message.Urgent { flow = 4; kind = Message.Timeout; cwnd_at_event = 1; inflight_at_event = 0 };
    Message.Urgent { flow = 4; kind = Message.Ecn; cwnd_at_event = 5; inflight_at_event = 5 };
    Message.Closed { flow = 5 };
    Message.Install { flow = 6; program = sample_program };
    Message.Set_cwnd { flow = 7; bytes = 123_456 };
    Message.Set_rate { flow = 8; bytes_per_sec = 1.25e9 };
  ]

let test_codec_round_trip_all () =
  List.iter
    (fun msg ->
      let decoded = Codec.decode (Codec.encode msg) in
      Alcotest.(check bool) (Message.describe msg) true (Message.equal msg decoded))
    all_message_kinds

let test_codec_rejects_garbage () =
  (match Codec.decode "\xff\x01\x02" with
  | _ -> Alcotest.fail "expected decode error"
  | exception Codec.Decode_error _ -> ());
  (* Garbage that once escaped the documented exceptions: a nine-byte
     column count that decodes negative (Invalid_argument from
     [Array.init]); a vector report of no columns and ~2^36 rows (out of
     memory); a field name whose length overflows the bounds check
     (Invalid_argument from [String.sub]). *)
  List.iter
    (fun junk ->
      match Codec.decode junk with
      | _ -> Alcotest.failf "%S decoded" junk
      | exception (Codec.Decode_error _ | Wire.Reader.Truncated | Wire.Reader.Malformed _) -> ())
    [
      "\002a\128\128\128\128\128\128\128\128aaa";
      "\002R\000\203\205\191\141\222\002\004B";
      "\001\000\001\255\255\255\255\255\255\255\255\063";
    ];
  (* Trailing bytes after a valid message are an error too. *)
  let valid = Codec.encode (Message.Closed { flow = 1 }) in
  match Codec.decode (valid ^ "x") with
  | _ -> Alcotest.fail "expected trailing-bytes error"
  | exception Codec.Decode_error _ -> ()

let test_codec_program_round_trip () =
  let decoded = Codec.decode_program (Codec.encode_program sample_program) in
  Alcotest.(check bool) "program" true (Ccp_lang.Ast.equal_program sample_program decoded)

let test_codec_size_reasonable () =
  (* One fold report with the reserved fields should be well under an MTU
     — the paper's premise that reports are cheap. *)
  let report =
    Message.Report
      {
        flow = 1;
        layout = Message.layout (Array.init 18 (Printf.sprintf "_field%d"));
        values = Array.init 18 float_of_int;
      }
  in
  Alcotest.(check bool) "report < 400 bytes" true (Codec.encoded_size report < 400)

let gen_message : Message.t QCheck.Gen.t =
  let open QCheck.Gen in
  let small_string = string_size ~gen:(char_range 'a' 'z') (int_range 1 8) in
  oneof
    [
      map3
        (fun flow mss init_cwnd -> Message.Ready { flow; mss; init_cwnd })
        (int_bound 1000) (int_bound 9000) (int_bound 1_000_000);
      map2
        (fun flow fields ->
          Message.Report
            {
              flow;
              layout = Message.layout (Array.of_list (List.map fst fields));
              values = Array.of_list (List.map snd fields);
            })
        (int_bound 1000)
        (list_size (int_range 0 10) (pair small_string (float_bound_inclusive 1e9)));
      map2
        (fun flow bytes -> Message.Set_cwnd { flow; bytes })
        (int_bound 1000) (int_bound 10_000_000);
      map2
        (fun flow kind ->
          Message.Urgent { flow; kind; cwnd_at_event = 1; inflight_at_event = 2 })
        (int_bound 1000)
        (oneofl [ Message.Dup_ack_loss; Message.Timeout; Message.Ecn ]);
    ]

let prop_codec_round_trip =
  QCheck.Test.make ~name:"codec round-trip (random messages)" ~count:300
    (QCheck.make gen_message ~print:Message.describe)
    (fun msg -> Message.equal msg (Codec.decode (Codec.encode msg)))

(* --- trace-context field: wire compatibility --- *)

let test_traced_codec_compat () =
  List.iter
    (fun msg ->
      (* No span: byte-identical to the untraced encoding. *)
      Alcotest.(check string)
        ("no-span bytes unchanged: " ^ Message.describe msg)
        (Codec.encode msg)
        (Codec.encode_traced msg);
      Alcotest.(check string) "negative span means no span" (Codec.encode msg)
        (Codec.encode_traced ~span:Message.no_trace msg);
      (* Absent-field backward compatibility: old bytes, traced decoder. *)
      let m, span = Codec.decode_traced (Codec.encode msg) in
      Alcotest.(check bool) "old bytes decode" true (Message.equal msg m);
      Alcotest.(check int) "absent field is no_trace" Message.no_trace span)
    all_message_kinds;
  (* The plain decoder still rejects the trailing block: a tracing-on
     sender cannot talk to a strict tracing-unaware receiver by accident. *)
  (match Codec.decode (Codec.encode_traced ~span:7 (Message.Closed { flow = 1 })) with
  | _ -> Alcotest.fail "plain decode accepted a trace block"
  | exception Codec.Decode_error _ -> ());
  (* A trailing block with an unknown tag is rejected, not skipped. *)
  match Codec.decode_traced (Codec.encode (Message.Closed { flow = 1 }) ^ "\x02\x07") with
  | _ -> Alcotest.fail "unknown trailing tag accepted"
  | exception Codec.Decode_error _ -> ()

let prop_traced_codec_round_trip =
  QCheck.Test.make ~name:"traced codec round-trip (random messages, random spans)"
    ~count:300
    (QCheck.make
       QCheck.Gen.(pair gen_message (int_bound 0x3FFFFFFF))
       ~print:(fun (m, s) -> Printf.sprintf "%s span=%d" (Message.describe m) s))
    (fun (msg, span) ->
      let m, s = Codec.decode_traced (Codec.encode_traced ~span msg) in
      Message.equal msg m && s = span)

(* --- Latency model --- *)

let test_latency_calibration () =
  List.iter
    (fun (model, p99) ->
      Alcotest.(check (float 0.5)) "analytic p99" p99 (Latency_model.p99_us model))
    [
      (Latency_model.netlink_idle, 48.0);
      (Latency_model.unix_idle, 80.0);
      (Latency_model.netlink_busy, 18.0);
      (Latency_model.unix_busy, 35.0);
    ]

let test_latency_sampled_matches_analytic () =
  let model = Latency_model.calibrated ~median_us:12.0 ~p99_us:48.0 in
  let rng = Rng.create ~seed:11 in
  let samples = Stats.Samples.create () in
  for _ = 1 to 60_000 do
    Stats.Samples.add samples (Time_ns.to_float_us (Latency_model.sample model rng))
  done;
  Alcotest.(check bool) "median within 5%" true
    (Float.abs (Stats.Samples.median samples -. 12.0) < 0.6);
  Alcotest.(check bool) "p99 within 10%" true
    (Float.abs (Stats.Samples.percentile samples 99.0 -. 48.0) < 4.8)

let test_latency_constant_and_shifted () =
  let rng = Rng.create ~seed:1 in
  Alcotest.(check int) "constant" (Time_ns.us 5)
    (Latency_model.sample (Latency_model.Constant (Time_ns.us 5)) rng);
  let shifted =
    Latency_model.Shifted { base = Time_ns.us 10; rest = Latency_model.Constant (Time_ns.us 5) }
  in
  Alcotest.(check int) "shifted" (Time_ns.us 15) (Latency_model.sample shifted rng);
  Alcotest.(check (float 1e-9)) "shifted median" 15.0 (Latency_model.median_us shifted)

let test_latency_validation () =
  match Latency_model.calibrated ~median_us:50.0 ~p99_us:20.0 with
  | _ -> Alcotest.fail "expected rejection"
  | exception Invalid_argument _ -> ()

(* --- Channel --- *)

let make_channel ?(latency = Latency_model.Constant (Time_ns.us 20)) () =
  let sim = Sim.create () in
  let channel = Channel.create ~sim ~latency () in
  (sim, channel)

let test_channel_delivery_and_latency () =
  let sim, channel = make_channel () in
  let received = ref [] in
  Channel.on_receive channel Channel.Agent_end (fun msg ->
      received := (Sim.now sim, msg) :: !received);
  Channel.on_receive channel Channel.Datapath_end (fun _ -> ());
  let msg = Message.Ready { flow = 1; mss = 1448; init_cwnd = 14480 } in
  Channel.send channel ~from:Channel.Datapath_end msg;
  Sim.run sim;
  match !received with
  | [ (at, got) ] ->
    (* One-way latency = half the 20 us round-trip model. *)
    Alcotest.(check int) "arrival" (Time_ns.us 10) at;
    Alcotest.(check bool) "content" true (Message.equal msg got)
  | _ -> Alcotest.fail "expected one delivery"

let test_channel_fifo_order () =
  let sim, channel = make_channel ~latency:(Latency_model.calibrated ~median_us:20.0 ~p99_us:200.0) () in
  let received = ref [] in
  Channel.on_receive channel Channel.Agent_end (fun msg ->
      received := Message.flow msg :: !received);
  for i = 0 to 49 do
    Channel.send channel ~from:Channel.Datapath_end (Message.Closed { flow = i })
  done;
  Sim.run sim;
  Alcotest.(check (list int)) "in order despite random latency" (List.init 50 Fun.id)
    (List.rev !received)

let test_channel_stats () =
  let sim, channel = make_channel () in
  Channel.on_receive channel Channel.Agent_end (fun _ -> ());
  Channel.on_receive channel Channel.Datapath_end (fun _ -> ());
  Channel.send channel ~from:Channel.Datapath_end (Message.Closed { flow = 1 });
  Channel.send channel ~from:Channel.Agent_end (Message.Set_cwnd { flow = 1; bytes = 10 });
  Channel.send channel ~from:Channel.Agent_end (Message.Set_rate { flow = 1; bytes_per_sec = 1.0 });
  Sim.run sim;
  Alcotest.(check int) "datapath sent" 1 (Channel.messages_sent channel Channel.Datapath_end);
  Alcotest.(check int) "agent sent" 2 (Channel.messages_sent channel Channel.Agent_end);
  Alcotest.(check bool) "bytes counted" true (Channel.bytes_sent channel Channel.Agent_end > 0);
  Alcotest.(check int) "no decode failures" 0 (Channel.decode_failures channel)

let test_channel_requires_handler () =
  let _, channel = make_channel () in
  Alcotest.check_raises "unregistered destination"
    (Invalid_argument "Channel.send: destination handler not registered") (fun () ->
      Channel.send channel ~from:Channel.Datapath_end (Message.Closed { flow = 1 }))

(* --- Batch frames --- *)

let prop_batch_round_trip =
  QCheck.Test.make ~name:"batch frame round-trip (0..50 traced entries)" ~count:200
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 0 50)
           (pair gen_message (oneof [ return Message.no_trace; int_bound 0x3FFFFFFF ])))
       ~print:(fun entries ->
         String.concat "; "
           (List.map
              (fun (m, s) -> Printf.sprintf "%s span=%d" (Message.describe m) s)
              entries)))
    (fun entries ->
      let frame = Codec.encode_batch (Array.of_list entries) in
      Codec.is_batch frame
      &&
      let decoded = Codec.decode_batch frame in
      List.length entries = Array.length decoded
      && List.for_all2
           (fun (m, s) (m', s') -> Message.equal m m' && s = s')
           entries (Array.to_list decoded))

(* --- The layout table --- *)

(* Ids are content hashes: the same names give the same layout, and
   other names another id, whatever was interned before. *)
let test_layout_interning () =
  let names = [| "acked"; "rtt" |] in
  let a = Message.layout names in
  names.(0) <- "changed";
  Alcotest.(check (array string)) "names copied at intern" [| "acked"; "rtt" |] a.Message.names;
  Alcotest.(check bool) "same names, same layout" true (Message.layout [| "acked"; "rtt" |] == a);
  Alcotest.(check bool) "found by id" true (Message.find_layout a.Message.id == a);
  (* A name boundary is part of the hash: "ab","c" is not "a","bc". *)
  let b = Message.layout [| "ab"; "c" |] and c = Message.layout [| "a"; "bc" |] in
  Alcotest.(check bool) "boundaries hashed" true (b.Message.id <> c.Message.id);
  Alcotest.(check bool) "62-bit non-negative id" true (a.Message.id >= 0)

(* Two domains intern at once, some layouts on both: the table keeps
   every layout once, and each domain gets the one the other interned. *)
let test_layout_two_domains () =
  let before = Message.layouts_interned () in
  let names tag i = [| Printf.sprintf "%s%d" tag i; "x" |] in
  let intern tag () =
    Array.init 200 (fun i -> Message.layout (names (if i mod 4 = 0 then "shared" else tag) i))
  in
  let other = Domain.spawn (intern "left") in
  let mine = intern "right" () in
  let theirs = Domain.join other in
  Alcotest.(check int) "each layout once" (before + 150 + 150 + 50) (Message.layouts_interned ());
  Array.iteri
    (fun i l ->
      if i mod 4 = 0 then Alcotest.(check bool) "one shared layout" true (l == theirs.(i));
      Alcotest.(check bool) "found" true (Message.find_layout l.Message.id == l))
    mine;
  Array.iter
    (fun l -> Alcotest.(check bool) "found" true (Message.find_layout l.Message.id == l))
    theirs

(* The codec's scratch writer belongs to the domain that encodes: two
   domains encoding and decoding reports, installs and batch frames at
   once each get back exactly what they encoded. *)
let test_codec_two_domains () =
  let layout = Message.layout [| "acked"; "rtt"; "_now_us" |] in
  let work tag () =
    let failures = ref 0 in
    let expect ok = if not ok then incr failures in
    for i = 1 to 4000 do
      let report =
        Message.Report
          { flow = i; layout; values = [| float_of_int i; float_of_int tag; 0.5 *. float_of_int i |] }
      in
      let program =
        Ccp_lang.Ast.program
          [
            Ccp_lang.Ast.Cwnd (Ccp_lang.Ast.Const (float_of_int ((tag * 100_000) + i)));
            Ccp_lang.Ast.Wait_rtts (Ccp_lang.Ast.Const 1.0);
            Ccp_lang.Ast.Report;
          ]
      in
      let install = Message.Install { flow = i; program } in
      List.iter (fun m -> expect (Message.equal m (Codec.decode (Codec.encode m)))) [ report; install ];
      let m, span = Codec.decode_traced (Codec.encode_traced ~span:(tag + i) report) in
      expect (Message.equal m report && span = tag + i);
      expect
        (Ccp_lang.Ast.identical_program program
           (Codec.decode_program (Codec.encode_program program)));
      let entries =
        [|
          (report, i);
          (install, Message.no_trace);
          (Message.Set_cwnd { flow = i; bytes = tag * i }, tag);
        |]
      in
      let back = Codec.decode_batch (Codec.encode_batch entries) in
      expect
        (Array.length back = Array.length entries
        && Array.for_all2 (fun (m, s) (m', s') -> Message.equal m m' && s = s') entries back)
    done;
    !failures
  in
  let other = Domain.spawn (work 1) in
  let mine = work 2 () in
  let theirs = Domain.join other in
  Alcotest.(check int) "this domain's round trips exact" 0 mine;
  Alcotest.(check int) "the other domain's round trips exact" 0 theirs

(* --- Batch frames through the cursor decoder ---

   Frames of reports over random interned layouts, urgents and span
   tokens. The layouts are interned as the frame is generated, as a
   datapath interns one per fold plan before it reports: decoding looks
   them up and must never intern. *)

let gen_span = QCheck.Gen.(oneof [ return Message.no_trace; int_bound 0x3FFFFFFF ])

let gen_batch_entry : (Message.t * Message.trace_context) QCheck.Gen.t =
  let open QCheck.Gen in
  let name = string_size ~gen:(char_range 'a' 'z') (int_range 1 8) in
  let report =
    array_size (int_range 0 12) name >>= fun names ->
    let layout = Message.layout names in
    map2
      (fun flow values -> Message.Report { flow; layout; values })
      (int_bound 5000)
      (array_repeat (Array.length names) (float_bound_inclusive 1e9))
  in
  let urgent =
    map3
      (fun flow kind cwnd ->
        Message.Urgent { flow; kind; cwnd_at_event = cwnd; inflight_at_event = 0 })
      (int_bound 5000)
      (oneofl [ Message.Dup_ack_loss; Message.Timeout; Message.Ecn ])
      (int_bound 1_000_000)
  in
  pair (frequency [ (3, report); (1, urgent) ]) gen_span

let show_entries entries =
  String.concat "; "
    (List.map (fun (m, s) -> Printf.sprintf "%s span=%d" (Message.describe m) s) entries)

let prop_cursor_batch_round_trip =
  QCheck.Test.make ~name:"cursor batch round-trip (reports over interned layouts)" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 0 40) gen_batch_entry) ~print:show_entries)
    (fun entries ->
      let frame = Codec.encode_batch (Array.of_list entries) in
      let interned = Message.layouts_interned () in
      let decoded = Codec.decode_batch frame in
      Message.layouts_interned () = interned
      && List.length entries = Array.length decoded
      && List.for_all2
           (fun (m, s) (m', s') -> Message.equal m m' && s = s')
           entries (Array.to_list decoded))

type corruption =
  | Cut_prefix  (** the frame ends inside an entry's length prefix *)
  | Past_end  (** an entry's length prefix points past the frame *)
  | Unknown_layout  (** a report names a layout id nothing interned *)
  | Count_mismatch  (** a report's value count disagrees with its layout *)

let show_corruption = function
  | Cut_prefix -> "cut prefix"
  | Past_end -> "prefix past the end"
  | Unknown_layout -> "unknown layout"
  | Count_mismatch -> "count mismatch"

let prefixed entry =
  let w = Wire.Writer.create () in
  Wire.Writer.varint w (String.length entry);
  Wire.Writer.raw w entry;
  Wire.Writer.contents w

(* A report entry written by hand: [count] values for the layout [id]. *)
let raw_report ~id ~count =
  let w = Wire.Writer.create () in
  Wire.Writer.byte w 1;
  Wire.Writer.varint w 7;
  Wire.Writer.word w id;
  Wire.Writer.varint w count;
  for i = 1 to count do
    Wire.Writer.float w (float_of_int i)
  done;
  Wire.Writer.contents w

(* [before] valid entries, one bad one, then [after] valid entries. *)
let corrupt_frame kind ~before ~after ~unknown_id =
  let encode (m, span) = Codec.encode_traced ~span m in
  let before = List.map (fun e -> prefixed (encode e)) before in
  let after = List.map (fun e -> prefixed (encode e)) after in
  let bad, after =
    match kind with
    | Cut_prefix -> ("\x80", [])
    | Past_end ->
      let entry = encode (Message.Closed { flow = 1 }, Message.no_trace) in
      let rest = List.fold_left (fun n e -> n + String.length e) 0 after in
      let w = Wire.Writer.create () in
      Wire.Writer.varint w (String.length entry + rest + 1);
      Wire.Writer.raw w entry;
      (Wire.Writer.contents w, after)
    | Unknown_layout -> (prefixed (raw_report ~id:unknown_id ~count:1), after)
    | Count_mismatch ->
      let layout = Message.layout [| "acked"; "rtt" |] in
      (prefixed (raw_report ~id:layout.Message.id ~count:3), after)
  in
  let w = Wire.Writer.create () in
  Wire.Writer.byte w Codec.batch_tag;
  Wire.Writer.varint w (List.length before + 1 + List.length after);
  List.iter (Wire.Writer.raw w) (before @ (bad :: after));
  Wire.Writer.contents w

let prop_cursor_batch_rejects =
  let gen =
    QCheck.Gen.(
      quad
        (oneofl [ Cut_prefix; Past_end; Unknown_layout; Count_mismatch ])
        (list_size (int_range 0 10) gen_batch_entry)
        (list_size (int_range 0 10) gen_batch_entry)
        (int_bound max_int))
  in
  QCheck.Test.make ~name:"cursor batch rejects a bad entry as one failure" ~count:200
    (QCheck.make gen ~print:(fun (kind, before, after, id) ->
         Printf.sprintf "%s at %d of %d (id %d): %s" (show_corruption kind) (List.length before)
           (List.length before + 1 + List.length after) id (show_entries (before @ after))))
    (fun (kind, before, after, unknown_id) ->
      QCheck.assume
        (match Message.find_layout unknown_id with _ -> false | exception Not_found -> true);
      let frame = corrupt_frame kind ~before ~after ~unknown_id in
      let interned = Message.layouts_interned () in
      let rejected =
        match Codec.decode_batch frame with
        | _ -> false
        | exception (Codec.Decode_error _ | Wire.Reader.Truncated | Wire.Reader.Malformed _) -> true
      in
      let sim = Sim.create () in
      let channel = Channel.create ~sim ~latency:(Latency_model.Constant (Time_ns.us 20)) () in
      let calls = ref 0 in
      Channel.on_receive channel Channel.Agent_end (fun _ -> incr calls);
      Channel.deliver_raw channel ~toward:Channel.Agent_end frame;
      rejected
      && Channel.decode_failures channel = 1
      && !calls = 0
      && Message.layouts_interned () = interned)

let test_batch_framing_disjoint () =
  (* No legacy encoding — traced or not — sniffs as a batch... *)
  List.iter
    (fun msg ->
      Alcotest.(check bool)
        ("not a batch: " ^ Message.describe msg)
        false
        (Codec.is_batch (Codec.encode msg));
      Alcotest.(check bool) "traced not a batch" false
        (Codec.is_batch (Codec.encode_traced ~span:7 msg)))
    all_message_kinds;
  (* ...and the framings reject each other rather than misparse. *)
  let frame = Codec.encode_batch [| (Message.Closed { flow = 3 }, Message.no_trace) |] in
  (match Codec.decode frame with
  | _ -> Alcotest.fail "legacy decode accepted a batch frame"
  | exception Codec.Decode_error _ -> ());
  (match Codec.decode_batch (Codec.encode (Message.Closed { flow = 3 })) with
  | _ -> Alcotest.fail "decode_batch accepted a single-message frame"
  | exception Codec.Decode_error _ -> ());
  (* Empty frames are legal; the entry bound is enforced both ways. *)
  Alcotest.(check int) "empty batch" 0 (Array.length (Codec.decode_batch (Codec.encode_batch [||])));
  let entry = (Message.Closed { flow = 1 }, Message.no_trace) in
  match Codec.encode_batch (Array.make (Codec.max_batch_entries + 1) entry) with
  | _ -> Alcotest.fail "oversized batch accepted"
  | exception Invalid_argument _ -> ()

let batching ?(max_count = 3) ?(max_bytes = 1 lsl 20) ?(deadline = Time_ns.ms 1) () =
  { Channel.max_count; max_bytes; deadline }

let make_batching_channel ?max_count ?max_bytes ?deadline () =
  let sim = Sim.create () in
  let channel =
    Channel.create ~sim ~latency:(Latency_model.Constant (Time_ns.us 20))
      ~batching:(batching ?max_count ?max_bytes ?deadline ()) ()
  in
  let received = ref [] in
  Channel.on_receive channel Channel.Agent_end (fun msg -> received := msg :: !received);
  Channel.on_receive channel Channel.Datapath_end (fun _ -> ());
  (sim, channel, received)

let acked_layout = Message.layout [| "acked" |]
let report flow = Message.Report { flow; layout = acked_layout; values = [| 1448.0 |] }

let test_batch_count_watermark () =
  let sim, channel, received = make_batching_channel () in
  Channel.send channel ~from:Channel.Datapath_end (report 1);
  Channel.send channel ~from:Channel.Datapath_end (report 2);
  Alcotest.(check int) "parked below watermark" 2 (Channel.pending_reports channel);
  Alcotest.(check int) "nothing on the wire yet" 0
    (Channel.messages_sent channel Channel.Datapath_end);
  Channel.send channel ~from:Channel.Datapath_end (report 3);
  Alcotest.(check int) "flushed at count watermark" 0 (Channel.pending_reports channel);
  Alcotest.(check int) "one wire frame for three reports" 1
    (Channel.messages_sent channel Channel.Datapath_end);
  Sim.run sim;
  Alcotest.(check (list int)) "all delivered, send order" [ 1; 2; 3 ]
    (List.rev_map Message.flow !received);
  Alcotest.(check int) "batches_sent" 1 (Channel.batches_sent channel);
  Alcotest.(check int) "reports_batched" 3 (Channel.reports_batched channel)

let test_batch_deadline () =
  let sim, channel, received = make_batching_channel ~max_count:100 ~deadline:(Time_ns.us 200) () in
  Channel.send channel ~from:Channel.Datapath_end (report 9);
  Sim.run sim;
  (* Flushed by the deadline timer: 200 us parked + 10 us one-way. *)
  Alcotest.(check (list int)) "delivered by deadline" [ 9 ] (List.map Message.flow !received);
  Alcotest.(check int) "deadline flush counted" 1 (Channel.batches_sent channel);
  Alcotest.(check int) "flushed at deadline" (Time_ns.us 210) (Sim.now sim)

let test_batch_nonreport_flushes_first () =
  let sim, channel, received = make_batching_channel () in
  Channel.send channel ~from:Channel.Datapath_end (report 1);
  Channel.send channel ~from:Channel.Datapath_end (Message.Closed { flow = 1 });
  Alcotest.(check int) "pending frame forced out" 0 (Channel.pending_reports channel);
  Alcotest.(check int) "batch frame + bare close" 2
    (Channel.messages_sent channel Channel.Datapath_end);
  Sim.run sim;
  (match List.rev !received with
  | [ Message.Report { flow = 1; _ }; Message.Closed { flow = 1 } ] -> ()
  | _ -> Alcotest.fail "wire order must equal send order");
  (* An agent send outside a batch frame's delivery leaves at once. *)
  Channel.send channel ~from:Channel.Agent_end (Message.Set_cwnd { flow = 1; bytes = 10 });
  Alcotest.(check int) "agent side sends immediately" 1
    (Channel.messages_sent channel Channel.Agent_end)

let test_batch_corrupt_frame () =
  let sim, channel, received = make_batching_channel () in
  (* Tag 10, count 2, then garbage: one atomic decode failure. *)
  Channel.deliver_raw channel ~toward:Channel.Agent_end "\x0a\x02junk";
  Alcotest.(check int) "corrupt batch counted once" 1 (Channel.decode_failures channel);
  Alcotest.(check (list int)) "no entries delivered" [] (List.map Message.flow !received);
  (* An absurd entry count is rejected before any allocation. *)
  let w = Wire.Writer.create () in
  Wire.Writer.byte w Codec.batch_tag;
  Wire.Writer.varint w 1_000_000;
  Channel.deliver_raw channel ~toward:Channel.Agent_end (Wire.Writer.contents w);
  Alcotest.(check int) "oversized count rejected" 2 (Channel.decode_failures channel);
  (* The channel survives: subsequent valid traffic still flows. *)
  Channel.deliver_raw channel ~toward:Channel.Agent_end
    (Codec.encode_batch [| (report 5, Message.no_trace) |]);
  Channel.send channel ~from:Channel.Datapath_end (Message.Closed { flow = 6 });
  Sim.run sim;
  Alcotest.(check (list int)) "channel still delivers" [ 5; 6 ]
    (List.rev_map Message.flow !received)

let test_batch_validation () =
  let sim = Sim.create () in
  List.iter
    (fun b ->
      match
        Channel.create ~sim ~latency:(Latency_model.Constant (Time_ns.us 20)) ~batching:b ()
      with
      | _ -> Alcotest.fail "nonsensical batching accepted"
      | exception Invalid_argument _ -> ())
    [
      batching ~max_count:0 ();
      batching ~max_bytes:0 ();
      batching ~deadline:Time_ns.zero ();
      (* One frame carries at most [Codec.max_batch_entries]. *)
      batching ~max_count:(Codec.max_batch_entries + 1) ();
    ]

(* At the frame limit the count watermark still flushes a frame the
   decoder takes whole. *)
let test_batch_at_frame_limit () =
  let n = Codec.max_batch_entries in
  let sim, channel, received = make_batching_channel ~max_count:n ~max_bytes:(1 lsl 30) () in
  for i = 1 to n do
    Channel.send channel ~from:Channel.Datapath_end (report i)
  done;
  Alcotest.(check int) "flushed at the watermark" 0 (Channel.pending_reports channel);
  Sim.run sim;
  Alcotest.(check int) "one frame" 1 (Channel.batches_sent channel);
  Alcotest.(check int) "no decode failure" 0 (Channel.decode_failures channel);
  Alcotest.(check (list int)) "every report, in order" (List.init n (fun i -> i + 1))
    (List.rev_map Message.flow !received)

(* --- Reply frames ---

   With batching on, what the agent sends while a batch frame is being
   delivered to it waits in one frame toward the datapath. The frame
   leaves when the delivery ends, or earlier at a watermark; replies to
   a single frame go out alone, as with batching off. *)

(* A batching channel whose agent end answers report [flow] with
   [replies flow] [Set_cwnd]s, recording how many agent->datapath frames
   had left when each handler ran; the datapath end records arrivals. *)
let reply_channel ?max_count ?max_bytes ?obs ?faults ~replies () =
  let sim = Sim.create () in
  let channel =
    Channel.create ~sim ~latency:(Latency_model.Constant (Time_ns.us 20)) ?faults ?obs
      ~batching:(batching ?max_count ?max_bytes ()) ()
  in
  let frames_seen = ref [] in
  Channel.on_receive channel Channel.Agent_end (fun msg ->
      frames_seen := Channel.messages_sent channel Channel.Agent_end :: !frames_seen;
      match msg with
      | Message.Report { flow; _ } ->
        for k = 0 to replies flow - 1 do
          Channel.send channel ~from:Channel.Agent_end
            (Message.Set_cwnd { flow; bytes = (1000 * flow) + k })
        done
      | _ -> ());
  let got = ref [] in
  Channel.on_receive channel Channel.Datapath_end (fun m -> got := m :: !got);
  (sim, channel, frames_seen, got)

let cwnds got =
  List.rev_map
    (function Message.Set_cwnd { bytes; _ } -> bytes | _ -> Alcotest.fail "not a Set_cwnd")
    !got

let send_reports channel flows =
  List.iter (fun f -> Channel.send channel ~from:Channel.Datapath_end (report f)) flows

let test_reply_frames () =
  (* One reply per report: the batch's three replies leave as one frame,
     after the last handler, in send order, byte for byte a batch of
     their encodings. *)
  let sim, channel, frames_seen, got = reply_channel ~replies:(fun _ -> 1) () in
  send_reports channel [ 1; 2; 3 ];
  Sim.run sim;
  Alcotest.(check (list int)) "no reply left during the handlers" [ 0; 0; 0 ] !frames_seen;
  Alcotest.(check int) "one reply frame" 1 (Channel.messages_sent channel Channel.Agent_end);
  Alcotest.(check (list int)) "send order" [ 1000; 2000; 3000 ] (cwnds got);
  let encoded =
    Codec.encode_batch
      (Array.map
         (fun f -> (Message.Set_cwnd { flow = f; bytes = 1000 * f }, Message.no_trace))
         [| 1; 2; 3 |])
  in
  Alcotest.(check int) "the frame's bytes" (String.length encoded)
    (Channel.bytes_sent channel Channel.Agent_end);
  Alcotest.(check int) "reply frames are not report batches" 1 (Channel.batches_sent channel);
  (* Two replies per report: the count watermark (3) splits the six
     replies during the second handler. *)
  let sim, channel, frames_seen, got = reply_channel ~replies:(fun _ -> 2) () in
  send_reports channel [ 1; 2; 3 ];
  Sim.run sim;
  Alcotest.(check (list int)) "split during the second handler" [ 0; 0; 1 ]
    (List.rev !frames_seen);
  Alcotest.(check int) "two frames of three" 2 (Channel.messages_sent channel Channel.Agent_end);
  Alcotest.(check (list int)) "send order across the split"
    [ 1000; 1001; 2000; 2001; 3000; 3001 ] (cwnds got);
  (* The byte watermark: a report's entry passes 8 bytes, so it leaves
     in a frame of its own; each reply's entry is 4 bytes, so its three
     replies split two and one. *)
  let sim, channel, _, got = reply_channel ~max_bytes:8 ~replies:(fun f -> f) () in
  send_reports channel [ 3 ];
  Sim.run sim;
  Alcotest.(check int) "three replies split two and one" 2
    (Channel.messages_sent channel Channel.Agent_end);
  Alcotest.(check (list int)) "in order across the byte split" [ 3000; 3001; 3002 ] (cwnds got)

(* A handler that raises mid-frame still closes the window: what was
   parked leaves, the exception reaches the caller, and later agent sends
   go out at once. *)
let test_reply_window_closes_on_raise () =
  let sim, channel, _, got =
    reply_channel ~replies:(fun f -> if f = 2 then failwith "handler bug" else 1) ()
  in
  let frame =
    Codec.encode_batch (Array.map (fun f -> (report f, Message.no_trace)) [| 1; 2; 3 |])
  in
  Alcotest.check_raises "the handler's exception propagates" (Failure "handler bug") (fun () ->
      Channel.deliver_raw channel ~toward:Channel.Agent_end frame);
  Alcotest.(check int) "the parked reply left" 1 (Channel.messages_sent channel Channel.Agent_end);
  Channel.send channel ~from:Channel.Agent_end (Message.Set_cwnd { flow = 9; bytes = 9 });
  Alcotest.(check int) "the window is closed" 2 (Channel.messages_sent channel Channel.Agent_end);
  Sim.run sim;
  Alcotest.(check (list int)) "both arrive, in order" [ 1000; 9 ] (cwnds got)

(* A traced agent end: each handler runs inside its message's span and
   answers with one [Set_cwnd]; [before_end] sees the channel just
   before the handler ends. The datapath end actuates what arrives. *)
let traced_replier ?batching ?faults ?(before_end = ignore) () =
  let obs = Ccp_obs.Obs.create ~recorder:false ~tracer:true () in
  let tracer = Ccp_obs.Obs.tracer_exn obs in
  let sim = Sim.create () in
  let channel =
    Channel.create ~sim ~latency:(Latency_model.Constant (Time_ns.us 20)) ?faults ?batching ~obs
      ()
  in
  Channel.on_receive channel Channel.Agent_end (fun msg ->
      let span = Channel.rx_span channel in
      Ccp_obs.Tracer.handler_begin tracer span;
      Channel.send channel ~from:Channel.Agent_end
        (Message.Set_cwnd { flow = Message.flow msg; bytes = 1448 });
      before_end channel;
      Ccp_obs.Tracer.handler_end tracer span ~now:(Sim.now sim));
  Channel.on_receive channel Channel.Datapath_end (fun _ ->
      Ccp_obs.Tracer.finish tracer (Channel.rx_span channel) ~now:(Sim.now sim)
        ~disposition:Ccp_obs.Tracer.Actuated ~apply_ns:0.0);
  (sim, channel, tracer, obs)

(* Spans of a reply frame: each handler's reply carries its report's
   span, stamped as the frame leaves. A frame the fault plan drops
   orphans each of its spans once, where it is destroyed; a delivered
   one measures the IPC leg back from the frame's departure. An 8-entry
   frame holds all three replies and leaves after the last handler has
   ended. A 3-entry watermark flushes it inside the third handler, whose
   end then finds its span recorded already: no stale reference. *)
let test_reply_frame_spans () =
  let run ?faults ~max_count () =
    let frames_at_end = ref [] in
    let sim, channel, tracer, obs =
      traced_replier ?faults ~batching:(batching ~max_count ())
        ~before_end:(fun channel ->
          frames_at_end := Channel.messages_sent channel Channel.Agent_end :: !frames_at_end)
        ()
    in
    let entries =
      Array.map
        (fun f ->
          ( report f,
            Ccp_obs.Tracer.start tracer ~now:(Sim.now sim) ~flow:f
              ~kind:Ccp_obs.Tracer.Report_span ))
        [| 1; 2; 3 |]
    in
    Channel.deliver_raw channel ~toward:Channel.Agent_end (Codec.encode_batch entries);
    Sim.run sim;
    (channel, tracer, obs, List.rev !frames_at_end)
  in
  List.iter
    (fun (max_count, frames) ->
      let what = Printf.sprintf "%d-entry frame" max_count in
      let channel, tracer, _, at_end =
        run ~faults:(Fault_plan.make ~drop_probability:1.0 ()) ~max_count ()
      in
      let st = Ccp_obs.Tracer.stats tracer in
      Alcotest.(check (list int)) (what ^ ": frames out as each handler ends") frames at_end;
      Alcotest.(check int) (what ^ ": one frame dropped") 1
        (Channel.fault_stats channel).Channel.dropped;
      Alcotest.(check int) (what ^ ": each span orphaned") 3 st.Ccp_obs.Tracer.orphaned;
      Alcotest.(check int) (what ^ ": no stale reference") 0 st.Ccp_obs.Tracer.stale_refs;
      Alcotest.(check int) (what ^ ": none ended as no-action") 0 st.Ccp_obs.Tracer.no_action;
      Alcotest.(check int) (what ^ ": none left live") 0 st.Ccp_obs.Tracer.live)
    [ (8, [ 0; 0; 0 ]); (3, [ 0; 0; 1 ]) ];
  let channel, tracer, obs, _ = run ~max_count:8 () in
  let st = Ccp_obs.Tracer.stats tracer in
  Alcotest.(check int) "one reply frame" 1 (Channel.messages_sent channel Channel.Agent_end);
  Alcotest.(check int) "each span actuated" 3 st.Ccp_obs.Tracer.actuated;
  let back =
    Ccp_obs.Metrics.histogram obs.Ccp_obs.Obs.metrics ~unit_:"us" "trace.ipc_back_us"
  in
  Alcotest.(check int) "three IPC legs back" 3 (Ccp_obs.Metrics.observations back);
  Alcotest.(check (float 1e-9)) "each one one-way latency from the frame's departure" 10.0
    (Ccp_obs.Metrics.hist_mean back)

(* One [Set_cwnd] answering a traced urgent, alone on the wire. Dropped,
   it orphans the urgent's span while the handler runs, and the
   handler's end counts nothing. Duplicated, the first copy actuates the
   span and the second finds it finalized: one stale reference. *)
let test_single_reply_dropped_in_handler () =
  let run faults =
    let sim, channel, tracer, _ = traced_replier ~faults () in
    let span =
      Ccp_obs.Tracer.start tracer ~now:(Sim.now sim) ~flow:5 ~kind:Ccp_obs.Tracer.Urgent_span
    in
    Channel.deliver_raw channel ~toward:Channel.Agent_end
      (Codec.encode_traced ~span
         (Message.Urgent
            { flow = 5; kind = Message.Dup_ack_loss; cwnd_at_event = 1448; inflight_at_event = 0 }));
    Sim.run sim;
    Ccp_obs.Tracer.stats tracer
  in
  let st = run (Fault_plan.make ~drop_probability:1.0 ()) in
  Alcotest.(check int) "dropped: the span orphaned" 1 st.Ccp_obs.Tracer.orphaned;
  Alcotest.(check int) "dropped: no stale reference" 0 st.Ccp_obs.Tracer.stale_refs;
  Alcotest.(check int) "dropped: none left live" 0 st.Ccp_obs.Tracer.live;
  let st = run (Fault_plan.make ~duplicate_probability:1.0 ()) in
  Alcotest.(check int) "duplicated: the span actuated" 1 st.Ccp_obs.Tracer.actuated;
  Alcotest.(check int) "duplicated: one stale reference" 1 st.Ccp_obs.Tracer.stale_refs;
  Alcotest.(check int) "duplicated: none left live" 0 st.Ccp_obs.Tracer.live

(* Replies to a single frame leave one frame each, as does every agent
   send with batching off: the same frames and bytes either way, each
   the message's own encoding. *)
let test_single_frame_replies_unbatched () =
  let replies flow =
    [ Message.Set_cwnd { flow; bytes = 14_480 }; Message.Set_rate { flow; bytes_per_sec = 1e6 } ]
  in
  let run batching =
    let sim = Sim.create () in
    let channel =
      Channel.create ~sim ~latency:(Latency_model.Constant (Time_ns.us 20)) ?batching ()
    in
    Channel.on_receive channel Channel.Agent_end (fun msg ->
        List.iter (Channel.send channel ~from:Channel.Agent_end) (replies (Message.flow msg)));
    let got = ref [] in
    Channel.on_receive channel Channel.Datapath_end (fun m -> got := m :: !got);
    Channel.send channel ~from:Channel.Datapath_end
      (Message.Ready { flow = 4; mss = 1448; init_cwnd = 14_480 });
    Channel.send channel ~from:Channel.Datapath_end
      (Message.Urgent
         { flow = 5; kind = Message.Dup_ack_loss; cwnd_at_event = 1448; inflight_at_event = 0 });
    Sim.run sim;
    ( Channel.messages_sent channel Channel.Agent_end,
      Channel.bytes_sent channel Channel.Agent_end,
      List.rev !got )
  in
  let expected = replies 4 @ replies 5 in
  let wire = List.fold_left (fun n m -> n + String.length (Codec.encode m)) 0 expected in
  List.iter
    (fun (what, batching) ->
      let frames, bytes, got = run batching in
      Alcotest.(check int) (what ^ ": a frame per reply") 4 frames;
      Alcotest.(check int) (what ^ ": each frame the message's encoding") wire bytes;
      Alcotest.(check bool) (what ^ ": delivered in order") true
        (List.for_all2 Message.equal expected got))
    [ ("batching off", None); ("batching on", Some (batching ())) ];
  (* With batching off a batch frame opens no window either. *)
  let sim = Sim.create () in
  let channel = Channel.create ~sim ~latency:(Latency_model.Constant (Time_ns.us 20)) () in
  Channel.on_receive channel Channel.Agent_end (fun msg ->
      List.iter (Channel.send channel ~from:Channel.Agent_end) (replies (Message.flow msg)));
  Channel.on_receive channel Channel.Datapath_end ignore;
  Channel.deliver_raw channel ~toward:Channel.Agent_end
    (Codec.encode_batch [| (report 1, Message.no_trace); (report 2, Message.no_trace) |]);
  Alcotest.(check int) "batching off: a frame per reply to a batch" 4
    (Channel.messages_sent channel Channel.Agent_end)

let suite =
  [
    ( "ipc.wire",
      [
        Alcotest.test_case "varint round-trip" `Quick test_varint_round_trip;
        Alcotest.test_case "varint compactness" `Quick test_varint_compact;
        Alcotest.test_case "varint negative" `Quick test_varint_rejects_negative;
        Alcotest.test_case "varint allocation-free" `Quick test_varint_allocation_free;
        Alcotest.test_case "zigzag round-trip" `Quick test_zigzag_round_trip;
        Alcotest.test_case "float and string" `Quick test_float_and_string;
        Alcotest.test_case "truncation" `Quick test_reader_truncation;
        Alcotest.test_case "skip and in-place floats" `Quick test_skip_and_in_place_floats;
        QCheck_alcotest.to_alcotest prop_wire_round_trip;
      ] );
    ( "ipc.codec",
      [
        Alcotest.test_case "round-trip all message kinds" `Quick test_codec_round_trip_all;
        Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage;
        Alcotest.test_case "program round-trip" `Quick test_codec_program_round_trip;
        Alcotest.test_case "report size" `Quick test_codec_size_reasonable;
        QCheck_alcotest.to_alcotest prop_codec_round_trip;
        Alcotest.test_case "trace-context wire compatibility" `Quick
          test_traced_codec_compat;
        QCheck_alcotest.to_alcotest prop_traced_codec_round_trip;
        Alcotest.test_case "layout interning" `Quick test_layout_interning;
        Alcotest.test_case "layouts interned from two domains" `Quick test_layout_two_domains;
        Alcotest.test_case "encodes from two domains at once" `Quick test_codec_two_domains;
      ] );
    ( "ipc.latency",
      [
        Alcotest.test_case "calibration" `Quick test_latency_calibration;
        Alcotest.test_case "sampled vs analytic" `Slow test_latency_sampled_matches_analytic;
        Alcotest.test_case "constant and shifted" `Quick test_latency_constant_and_shifted;
        Alcotest.test_case "validation" `Quick test_latency_validation;
      ] );
    ( "ipc.channel",
      [
        Alcotest.test_case "delivery and latency" `Quick test_channel_delivery_and_latency;
        Alcotest.test_case "fifo ordering" `Quick test_channel_fifo_order;
        Alcotest.test_case "statistics" `Quick test_channel_stats;
        Alcotest.test_case "handler required" `Quick test_channel_requires_handler;
      ] );
    ( "ipc.batch",
      [
        QCheck_alcotest.to_alcotest prop_batch_round_trip;
        QCheck_alcotest.to_alcotest prop_cursor_batch_round_trip;
        QCheck_alcotest.to_alcotest prop_cursor_batch_rejects;
        Alcotest.test_case "framing disjoint from legacy" `Quick test_batch_framing_disjoint;
        Alcotest.test_case "count watermark" `Quick test_batch_count_watermark;
        Alcotest.test_case "deadline flush" `Quick test_batch_deadline;
        Alcotest.test_case "non-report flushes first" `Quick
          test_batch_nonreport_flushes_first;
        Alcotest.test_case "corrupt frame is atomic" `Quick test_batch_corrupt_frame;
        Alcotest.test_case "watermark validation" `Quick test_batch_validation;
        Alcotest.test_case "count watermark at the frame limit" `Quick test_batch_at_frame_limit;
        Alcotest.test_case "replies to a batch leave as one frame" `Quick test_reply_frames;
        Alcotest.test_case "a raising handler closes the reply window" `Quick
          test_reply_window_closes_on_raise;
        Alcotest.test_case "reply frame spans" `Quick test_reply_frame_spans;
        Alcotest.test_case "a single reply dropped in its handler is no stale ref" `Quick
          test_single_reply_dropped_in_handler;
        Alcotest.test_case "replies to a single frame go out alone" `Quick
          test_single_frame_replies_unbatched;
      ] );
  ]
