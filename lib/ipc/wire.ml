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

  (* Reads the element in place: passing it to [float] would box it. *)
  let float_at t a i = Buffer.add_int64_le t (Int64.bits_of_float (Array.get a i))

  let string t s =
    varint t (String.length s);
    Buffer.add_string t s

  let raw = Buffer.add_string

  let contents = Buffer.contents
  let length = Buffer.length
end

module Reader = struct
  type t = { data : string; mutable pos : int }

  exception Truncated
  exception Malformed of string

  let of_string data = { data; pos = 0 }

  let byte t =
    if t.pos >= String.length t.data then raise Truncated;
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
    if t.pos + 8 > String.length t.data then raise Truncated;
    let bits = String.get_int64_le t.data t.pos in
    t.pos <- t.pos + 8;
    Int64.float_of_bits bits

  let float_into t a i =
    if t.pos + 8 > String.length t.data then raise Truncated;
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
    n <= String.length t.data - t.pos
    && same_bytes t.data t.pos s 0 n
    &&
    (t.pos <- t.pos + n;
     true)

  (* The length prefix is compared as the writer would encode it, byte by
     byte, so a match costs no varint decode. *)
  let rec skip_length t n =
    if n < 0x80 then
      t.pos < String.length t.data
      && Char.code (String.unsafe_get t.data t.pos) = n
      &&
      (t.pos <- t.pos + 1;
       true)
    else
      t.pos < String.length t.data
      && Char.code (String.unsafe_get t.data t.pos) = 0x80 lor (n land 0x7f)
      &&
      (t.pos <- t.pos + 1;
       skip_length t (n lsr 7))

  let skip_string t s =
    let start = t.pos in
    (skip_length t (String.length s) && skip_bytes t s)
    ||
    (t.pos <- start;
     false)

  let string t =
    let len = varint t in
    if len > String.length t.data - t.pos then raise Truncated;
    let s = String.sub t.data t.pos len in
    t.pos <- t.pos + len;
    s

  let at_end t = t.pos = String.length t.data
  let remaining t = String.length t.data - t.pos
end
