module Writer = struct
  type t = Buffer.t

  let create () = Buffer.create 128
  let reset = Buffer.clear
  let byte t b = Buffer.add_char t (Char.chr (b land 0xff))

  let varint t n =
    if n < 0 then invalid_arg "Wire.Writer.varint: negative";
    let rec go n =
      if n < 0x80 then byte t n
      else begin
        byte t (0x80 lor (n land 0x7f));
        go (n lsr 7)
      end
    in
    go n

  let zigzag t n =
    (* Map signed to unsigned: 0,-1,1,-2,... -> 0,1,2,3,... *)
    let encoded = (n lsl 1) lxor (n asr 62) in
    varint t (encoded land max_int)

  let float t f =
    let bits = Int64.bits_of_float f in
    for i = 0 to 7 do
      byte t (Int64.to_int (Int64.shift_right_logical bits (8 * i)) land 0xff)
    done

  let string t s =
    varint t (String.length s);
    Buffer.add_string t s

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

  let varint t =
    let rec go shift acc =
      if shift > 62 then raise (Malformed "varint too long");
      let b = byte t in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 <> 0 then go (shift + 7) acc
      else if acc < 0 then
        (* A ninth byte can set the sign bit; the writer never does. *)
        raise (Malformed "varint out of range")
      else acc
    in
    go 0 0

  let zigzag t =
    let encoded = varint t in
    (encoded lsr 1) lxor (-(encoded land 1))

  let float t =
    let bits = ref 0L in
    for i = 0 to 7 do
      bits := Int64.logor !bits (Int64.shift_left (Int64.of_int (byte t)) (8 * i))
    done;
    Int64.float_of_bits !bits

  let string t =
    let len = varint t in
    if len > String.length t.data - t.pos then raise Truncated;
    let s = String.sub t.data t.pos len in
    t.pos <- t.pos + len;
    s

  let at_end t = t.pos = String.length t.data
  let remaining t = String.length t.data - t.pos
end
