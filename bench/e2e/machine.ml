(* The speed of the machine at the moment, from a fixed calibration loop.

   On a shared 2-core container the same repetition runs up to ~25 %
   slower for minutes at a time while other tenants are busy, and a
   median over repetitions cannot remove a slowdown that lasts the whole
   run. The loop below is timed between repetitions and each
   repetition's end-to-end times are scaled by the timings on either side
   of it, so they read as on a machine where the loop takes
   [reference_ns] per operation. The loop resembles the
   simulator's hot path -- a binary event heap, a fresh record per event,
   hash-table updates -- so the two slow down together (over 276
   alternating samples, calibration time and fig3-native wall time
   correlated at 0.57). It never calls the code under test: a change to
   the simulator moves the scaled metrics exactly as it moves wall time. *)

let reference_ns = 700.0
let ops = 150_000
let depth = 8192

type event = { at : float; id : int; payload : int array }

(* ns per operation: pop the earliest event, update and probe a
   65536-entry table, push a successor. *)
let ns_per_op () =
  let rng = Random.State.make [| 7 |] in
  let heap = Array.make (depth + 1) { at = 0.0; id = 0; payload = [||] } in
  let size = ref 0 in
  let push e =
    let i = ref !size in
    incr size;
    while !i > 0 && heap.((!i - 1) / 2).at > e.at do
      heap.(!i) <- heap.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    heap.(!i) <- e
  in
  let pop () =
    let top = heap.(0) in
    decr size;
    let last = heap.(!size) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= !size then sifting := false
      else begin
        let c = if l + 1 < !size && heap.(l + 1).at < heap.(l).at then l + 1 else l in
        if heap.(c).at < last.at then begin
          heap.(!i) <- heap.(c);
          i := c
        end
        else sifting := false
      end
    done;
    heap.(!i) <- last;
    top
  in
  let table = Hashtbl.create 4096 in
  for i = 0 to depth - 1 do
    push { at = Random.State.float rng 1.0; id = i; payload = Array.make 4 i }
  done;
  let sum = ref 0 in
  let t0 = Monotonic_clock.now () in
  for i = 1 to ops do
    let e = pop () in
    Hashtbl.replace table (e.id land 65535) e.payload;
    (match Hashtbl.find_opt table (e.id * 7 land 65535) with
    | Some p -> sum := !sum + p.(0)
    | None -> ());
    push { at = e.at +. Random.State.float rng 1.0; id = e.id + i; payload = Array.make 4 i }
  done;
  let dt = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) in
  ignore (Sys.opaque_identity !sum);
  dt /. float_of_int ops
