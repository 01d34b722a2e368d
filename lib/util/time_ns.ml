type t = int

let zero = 0
let ns n = n
let us n = n * 1_000
let ms n = n * 1_000_000
let sec n = n * 1_000_000_000

let of_float_sec s = int_of_float (Float.round (s *. 1e9))
let to_float_sec t = float_of_int t /. 1e9
let to_float_us t = float_of_int t /. 1e3
let to_float_ms t = float_of_int t /. 1e6

let add = ( + )
let sub = ( - )
let diff a b = abs (a - b)
let scale t f = int_of_float (Float.round (float_of_int t *. f))
let min = Int.min
let max = Int.max
let compare = Int.compare
let equal = Int.equal
let is_positive t = t > 0

let pp fmt t =
  let a = abs t in
  if a < 1_000 then Format.fprintf fmt "%dns" t
  else if a < 1_000_000 then Format.fprintf fmt "%.2fus" (to_float_us t)
  else if a < 1_000_000_000 then Format.fprintf fmt "%.2fms" (to_float_ms t)
  else Format.fprintf fmt "%.3fs" (to_float_sec t)

let to_string t = Format.asprintf "%a" pp t

let bytes_time ~bytes ~rate_bps =
  of_float_sec (float_of_int (bytes * 8) /. rate_bps)
