(* The xoshiro256** state s0..s3 lives in one 32-byte buffer, read and
   written as little-endian int64 words. Four [mutable int64] record
   fields would box a fresh int64 on every store, i.e. on every draw;
   bytes accesses stay unboxed. *)
type t = Bytes.t

let[@inline] get t i = Bytes.get_int64_le t (i * 8)
let[@inline] set t i v = Bytes.set_int64_le t (i * 8) v

(* splitmix64: expands a seed into well-distributed initial state, per
   Steele et al.; standard seeding procedure for xoshiro generators. *)
let splitmix64 state =
  state := Int64.add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create ~seed =
  let state = ref (Int64.of_int seed) in
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    set t i (splitmix64 state)
  done;
  t

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* xoshiro256** core step. Inlined into every sampler so the int64
   arithmetic stays in registers. *)
let[@inline always] next t =
  let s0 = get t 0 and s1 = get t 1 and s2 = get t 2 and s3 = get t 3 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let tmp = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  set t 1 (Int64.logxor s1 s2);
  set t 0 (Int64.logxor s0 s3);
  set t 2 (Int64.logxor s2 tmp);
  set t 3 (rotl s3 45);
  result

let bits64 t = next t

let split t =
  let seed = Int64.to_int (next t) land max_int in
  create ~seed

let copy = Bytes.copy

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Int64.to_int keeps the low 63 bits as a signed value, so a 63-bit
     logical shift can still come out negative; mask to OCaml's positive
     int range before reducing. *)
  let r = Int64.to_int (Int64.shift_right_logical (next t) 1) land max_int in
  r mod bound

let[@inline] float_unit t =
  (* 53 high bits -> [0,1) double, the conventional conversion. *)
  let bits = Int64.shift_right_logical (next t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let float t bound = float_unit t *. bound
let bool t = Int64.logand (next t) 1L = 1L
let uniform t ~lo ~hi = lo +. (float_unit t *. (hi -. lo))

let exponential t ~mean =
  let u = 1.0 -. float_unit t in
  -.mean *. log u

let gaussian t ~mu ~sigma =
  let u1 = 1.0 -. float_unit t and u2 = float_unit t in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  mu +. (sigma *. z)

let lognormal t ~mu ~sigma = exp (gaussian t ~mu ~sigma)

let pareto t ~shape ~scale =
  if shape <= 0.0 then invalid_arg "Rng.pareto: shape must be positive";
  let u = 1.0 -. float_unit t in
  scale /. (u ** (1.0 /. shape))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
