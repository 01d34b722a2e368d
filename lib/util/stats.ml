module Summary = struct
  type t = {
    mutable count : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
    mutable sum : float;
  }

  let create () =
    { count = 0; mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity; sum = 0.0 }

  (* Welford's online algorithm keeps the variance numerically stable. *)
  let add t x =
    t.count <- t.count + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.count);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x;
    t.sum <- t.sum +. x

  let count t = t.count
  let mean t = t.mean
  let variance t = if t.count < 2 then 0.0 else t.m2 /. float_of_int (t.count - 1)
  let min t = t.min
  let max t = t.max
  let sum t = t.sum
end

module Samples = struct
  type t = {
    mutable data : float array;
    mutable len : int;
    mutable sorted : bool;
  }

  let create () = { data = Array.make 64 0.0; len = 0; sorted = true }

  let reserve t n =
    if t.len + n > Array.length t.data then begin
      let bigger = Array.make (max (t.len + n) (2 * t.len)) 0.0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end

  let add t x =
    reserve t 1;
    t.data.(t.len) <- x;
    t.len <- t.len + 1;
    t.sorted <- false

  let append t ~from =
    reserve t from.len;
    Array.blit from.data 0 t.data t.len from.len;
    t.len <- t.len + from.len;
    t.sorted <- false

  let count t = t.len

  (* [Float.compare x y < 0]: NaN sorts below every other float and
     equal to itself, and the zeros are equal. *)
  let[@inline] less (x : float) y = x < y || (x <> x && y = y)

  (* A port of the stdlib's [Array.sort] (a ternary heap sort) to the
     first [l] floats of [a], with [Float.compare] inlined, so it
     produces the same permutation without boxing an element or
     allocating. [maxson] returns -1 where the stdlib raises [Bottom]. *)
  let maxson (a : float array) l i =
    let i31 = i + i + i + 1 in
    if i31 + 2 < l then begin
      let x = if less a.(i31) a.(i31 + 1) then i31 + 1 else i31 in
      if less a.(x) a.(i31 + 2) then i31 + 2 else x
    end
    else if i31 + 1 < l && less a.(i31) a.(i31 + 1) then i31 + 1
    else if i31 < l then i31
    else -1

  let sort_prefix (a : float array) l =
    for start = ((l + 1) / 3) - 1 downto 0 do
      (* trickle l start a.(start) *)
      let e = a.(start) in
      let i = ref start and sinking = ref true in
      while !sinking do
        let j = maxson a l !i in
        if j >= 0 && less e a.(j) then begin
          a.(!i) <- a.(j);
          i := j
        end
        else begin
          a.(!i) <- e;
          sinking := false
        end
      done
    done;
    for n = l - 1 downto 2 do
      let e = a.(n) in
      a.(n) <- a.(0);
      (* trickleup (bubble n 0) e *)
      let i = ref 0 and j = ref (maxson a n 0) in
      while !j >= 0 do
        a.(!i) <- a.(!j);
        i := !j;
        j := maxson a n !i
      done;
      let rising = ref true in
      while !rising do
        let father = (!i - 1) / 3 in
        if less a.(father) e then begin
          a.(!i) <- a.(father);
          if father > 0 then i := father
          else begin
            a.(0) <- e;
            rising := false
          end
        end
        else begin
          a.(!i) <- e;
          rising := false
        end
      done
    done;
    if l > 1 then begin
      let e = a.(1) in
      a.(1) <- a.(0);
      a.(0) <- e
    end

  let ensure_sorted t =
    if not t.sorted then begin
      sort_prefix t.data t.len;
      t.sorted <- true
    end

  let percentile t p =
    if t.len = 0 then invalid_arg "Stats.Samples.percentile: empty";
    if p < 0.0 || p > 100.0 then invalid_arg "Stats.Samples.percentile: p out of range";
    ensure_sorted t;
    let rank = p /. 100.0 *. float_of_int (t.len - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    if lo = hi then t.data.(lo)
    else begin
      let frac = rank -. float_of_int lo in
      t.data.(lo) +. (frac *. (t.data.(hi) -. t.data.(lo)))
    end

  let median t = percentile t 50.0

  let mean t =
    if t.len = 0 then invalid_arg "Stats.Samples.mean: empty";
    let s = ref 0.0 in
    for i = 0 to t.len - 1 do
      s := !s +. t.data.(i)
    done;
    !s /. float_of_int t.len

  let cdf t ~points =
    if points <= 0 then invalid_arg "Stats.Samples.cdf: points must be positive";
    List.init points (fun i ->
        let frac = float_of_int (i + 1) /. float_of_int points in
        (percentile t (frac *. 100.0), frac))

  let to_array t =
    ensure_sorted t;
    Array.sub t.data 0 t.len
end

module Ewma = struct
  type t = { alpha : float; mutable value : float option }

  let create ~alpha =
    if alpha <= 0.0 || alpha > 1.0 then invalid_arg "Stats.Ewma.create: alpha in (0,1]";
    { alpha; value = None }

  let add t x =
    match t.value with
    | None -> t.value <- Some x
    | Some v -> t.value <- Some (v +. (t.alpha *. (x -. v)))

  let value t = Option.value t.value ~default:0.0
  let value_opt t = t.value
end

(* Windowed extrema use a monotonic deque of (time, value): entries the new
   sample dominates are evicted from the back, expired entries from the
   front, so the front is always the current extremum. *)
module Windowed_min = struct
  type entry = { at : Time_ns.t; v : float }
  type t = { window : Time_ns.t; mutable entries : entry list }

  let create ~window = { window; entries = [] }

  let add t ~now v =
    let rec trim = function
      | e :: rest when v <= e.v -> trim rest
      | keep -> keep
    in
    let rev = trim (List.rev t.entries) in
    t.entries <- List.rev ({ at = now; v } :: rev)

  let get t ~now =
    let cutoff = Time_ns.sub now t.window in
    let rec drop = function
      | e :: rest when Time_ns.compare e.at cutoff < 0 -> drop rest
      | keep -> keep
    in
    t.entries <- drop t.entries;
    match t.entries with [] -> None | e :: _ -> Some e.v
end

module Windowed_max = struct
  type entry = { at : Time_ns.t; v : float }
  type t = { window : Time_ns.t; mutable entries : entry list }

  let create ~window = { window; entries = [] }

  let add t ~now v =
    let rec trim = function
      | e :: rest when v >= e.v -> trim rest
      | keep -> keep
    in
    let rev = trim (List.rev t.entries) in
    t.entries <- List.rev ({ at = now; v } :: rev)

  let get t ~now =
    let cutoff = Time_ns.sub now t.window in
    let rec drop = function
      | e :: rest when Time_ns.compare e.at cutoff < 0 -> drop rest
      | keep -> keep
    in
    t.entries <- drop t.entries;
    match t.entries with [] -> None | e :: _ -> Some e.v
end

let jain_fairness xs =
  let n = Array.length xs in
  if n = 0 then 1.0
  else begin
    let sum = Array.fold_left ( +. ) 0.0 xs in
    let sumsq = Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 xs in
    if sumsq = 0.0 then 1.0 else sum *. sum /. (float_of_int n *. sumsq)
  end
