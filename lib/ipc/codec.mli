(** Binary codec for {!Message.t}, including full control-program ASTs.

    Every message crossing the simulated channel is actually encoded and
    decoded, so the wire format is exercised on every simulated IPC
    exchange, and its size is what the channel's byte counters report.
    [decode (encode m)] = [m] is a qcheck property in the test suite. *)

exception Decode_error of string

val encode : Message.t -> string
(** Encodes via a module-level scratch {!Wire.Writer} that is reset and
    reused across calls, so steady-state encoding allocates only the
    result string. Not reentrant (fine: the simulator is single
    threaded); use {!encode_with} with a private writer otherwise. *)

val encode_with : Wire.Writer.t -> Message.t -> string
(** [encode_with w msg] resets [w] and encodes into it. *)

val decode : string -> Message.t
(** Raises {!Decode_error} (or {!Wire.Reader.Truncated} /
    {!Wire.Reader.Malformed}) on malformed input; the datapath treats
    that as a hostile agent and drops the message. A report decodes only
    in a process that interned its layout ({!Message.layout}): the wire
    carries the layout's id, not its names. *)

val encode_program : Ccp_lang.Ast.program -> string
(** The program's bytes as they appear inside an [Install] frame. The
    encoding is canonical: constants are written as their IEEE bits, so
    two programs encode to the same bytes exactly when they are
    {!Ccp_lang.Ast.identical_program}. *)

val decode_program : string -> Ccp_lang.Ast.program

val encoded_size : Message.t -> int

val encode_traced : ?span:Message.trace_context -> Message.t -> string
(** [encode] plus an optional trailing trace-context block (tag byte 1 +
    varint span token). With [span] absent or negative the output is
    byte-identical to {!encode}, so tracing-off channels put exactly the
    same bytes on the wire as before the field existed. *)

val with_trace : span:Message.trace_context -> string -> string
(** [with_trace ~span (encode m)] is [encode_traced ~span m], byte for
    byte: the trace block appended to an encoding made earlier. A
    negative [span] returns the string itself. This is how an agent
    re-sends an [Install] it encoded once
    ({!Channel.send_install_frame}). *)

(** {2 Decode memo}

    What a receiver already holds, so a steady stream decodes without
    rebuilding it. A memo changes which values a decode shares, never
    what it decodes: the result is equal to the memo-free decode.

    Reports need no memo: a report carries its layout's id, and every
    decode finds the layout in the process's table
    ({!Message.find_layout}), so a report decodes into its values array
    and its record whatever came before it. A report whose id nothing in
    the process interned, or whose value count differs from its layout's
    length, is a {!Decode_error}. *)

type running = { bytes : string; program : Ccp_lang.Ast.program }
(** A flow's running program and its {!encode_program} bytes. *)

type memo
(** Per-receiver decode state: a lookup of each flow's running program
    (none by default). An [Install] whose program bytes equal the flow's
    running bytes yields the running AST itself, without decoding one. *)

val memo : unit -> memo

val set_running : memo -> (int -> running option) -> unit
(** Install the running-program lookup. It is called once per decoded
    [Install], so it should not allocate. *)

val decode_traced : ?memo:memo -> string -> Message.t * Message.trace_context
(** Inverse of {!encode_traced}; bytes without the trailing block decode
    as [(msg, Message.no_trace)] — absent-field backward compatibility.
    {!decode} itself still rejects any trailing bytes. Without [memo],
    no [Install] is matched against a running program. *)

(** {2 Batch frames}

    A batch frame packs many traced message encodings into one wire
    message: tag byte 10, varint entry count, then each entry as a
    length-prefixed {!encode_traced} encoding. Tag 10 is outside the
    single-message tag space, so the framings cannot be confused: a
    batching-unaware peer's {!decode} rejects a batch with a clean
    [Decode_error] rather than misparsing it.

    A sender builds the frame in place: {!add_batch_entry} appends each
    entry to one body writer, and {!seal_batch} frames the body, copying
    it once. *)

val batch_tag : int
(** First byte of every batch frame (10). *)

val max_batch_entries : int
(** Upper bound on entries per frame (4096); both {!seal_batch} and
    {!decode_batch} enforce it. *)

val is_batch : string -> bool
(** [true] iff the bytes start with {!batch_tag} — cheap framing sniff
    used by the channel's receive path. No legacy message starts with
    tag 10, so this never misclassifies. *)

val add_batch_entry : Wire.Writer.t -> span:Message.trace_context -> Message.t -> int
(** [add_batch_entry body ~span msg] appends [encode_traced ~span msg] to
    [body] as one entry, length prefix first, and returns the encoding's
    length, prefix excluded. No string is made for the entry. *)

val seal_batch : Wire.Writer.t -> count:int -> string
(** The batch frame of a [body] that holds [count] entries: the header,
    then the body. [body] is left as it was. Raises [Invalid_argument]
    above {!max_batch_entries}. Zero entries make a valid frame. *)

val encode_batch : (Message.t * Message.trace_context) array -> string
(** {!seal_batch} over {!add_batch_entry} of each element, in order. *)

val decode_batch : ?memo:memo -> string -> (Message.t * Message.trace_context) array
(** Inverse of {!encode_batch}: strict framing (trailing bytes rejected,
    entry count bounded), each entry decoded as {!decode_traced} would,
    but in place: the frame's reader is bounded to the entry
    ({!Wire.Reader.push_limit}), so no entry is copied out. Raises
    {!Decode_error} / {!Wire.Reader.Truncated} /
    {!Wire.Reader.Malformed} on malformed input — the whole frame is
    validated before this returns, so a caller never sees a prefix of
    it. Entries decode in order through one [memo]. *)
