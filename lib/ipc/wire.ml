module Writer = struct
  type t = Buffer.t

  let create () = Buffer.create 128
  let reset = Buffer.clear
  let byte t b = Buffer.add_char t (Char.chr (b land 0xff))

  (* Top-level recursions, so a call allocates no closure. *)
  let rec varint_bytes t n =
    if n < 0x80 then byte t n
    else begin
      byte t (0x80 lor (n land 0x7f));
      varint_bytes t (n lsr 7)
    end

  let varint t n =
    if n < 0 then invalid_arg "Wire.Writer.varint: negative";
    varint_bytes t n

  let zigzag t n =
    (* Map signed to unsigned: 0,-1,1,-2,... -> 0,1,2,3,... *)
    let encoded = (n lsl 1) lxor (n asr 62) in
    varint t (encoded land max_int)

  let float t f = Buffer.add_int64_le t (Int64.bits_of_float f)

  let word t n =
    if n < 0 then invalid_arg "Wire.Writer.word: negative";
    Buffer.add_int64_le t (Int64.of_int n)

  (* Reads the element in place: passing it to [float] would box it. *)
  let float_at t a i = Buffer.add_int64_le t (Int64.bits_of_float (Array.get a i))

  let string t s =
    varint t (String.length s);
    Buffer.add_string t s

  let raw = Buffer.add_string
  let append = Buffer.add_buffer
  let contents = Buffer.contents
  let length = Buffer.length

  let concat a b =
    let la = Buffer.length a and lb = Buffer.length b in
    let s = Bytes.create (la + lb) in
    Buffer.blit a 0 s 0 la;
    Buffer.blit b 0 s la lb;
    Bytes.unsafe_to_string s
end

module Reader = struct
  (* Reads stop at [limit]: the end of the string, or the end of the
     entry a [push_limit] entered. *)
  type t = { data : string; mutable pos : int; mutable limit : int }

  exception Truncated
  exception Malformed of string

  let of_string data = { data; pos = 0; limit = String.length data }

  let byte t =
    if t.pos >= t.limit then raise Truncated;
    let b = Char.code t.data.[t.pos] in
    t.pos <- t.pos + 1;
    b

  let rec varint_from t shift acc =
    if shift > 62 then raise (Malformed "varint too long");
    let b = byte t in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 <> 0 then varint_from t (shift + 7) acc
    else if acc < 0 then
      (* A ninth byte can set the sign bit; the writer never does. *)
      raise (Malformed "varint out of range")
    else acc

  let varint t = varint_from t 0 0

  let zigzag t =
    let encoded = varint t in
    (encoded lsr 1) lxor (-(encoded land 1))

  let float t =
    if t.pos + 8 > t.limit then raise Truncated;
    let bits = String.get_int64_le t.data t.pos in
    t.pos <- t.pos + 8;
    Int64.float_of_bits bits

  let word t =
    if t.pos + 8 > t.limit then raise Truncated;
    let v = String.get_int64_le t.data t.pos in
    (* The writer's words are non-negative ints: the top two bits clear. *)
    if Int64.shift_right_logical v 62 <> 0L then raise (Malformed "word out of range");
    t.pos <- t.pos + 8;
    Int64.to_int v

  let float_into t a i =
    if t.pos + 8 > t.limit then raise Truncated;
    Array.set a i (Int64.float_of_bits (String.get_int64_le t.data t.pos));
    t.pos <- t.pos + 8

  (* Byte comparison without a substring: [s] against the [n] bytes at
     [pos], which the caller has bounds-checked. *)
  let rec same_bytes data pos s i n =
    i >= n
    || Char.equal (String.unsafe_get data (pos + i)) (String.unsafe_get s i)
       && same_bytes data pos s (i + 1) n

  let skip_bytes t s =
    let n = String.length s in
    n <= t.limit - t.pos
    && same_bytes t.data t.pos s 0 n
    &&
    (t.pos <- t.pos + n;
     true)

  let string t =
    let len = varint t in
    if len > t.limit - t.pos then raise Truncated;
    let s = String.sub t.data t.pos len in
    t.pos <- t.pos + len;
    s

  let push_limit t n =
    if n < 0 || n > t.limit - t.pos then raise Truncated;
    let outer = t.limit in
    t.limit <- t.pos + n;
    outer

  let pop_limit t outer = t.limit <- outer
  let at_end t = t.pos = t.limit
  let remaining t = t.limit - t.pos
end
