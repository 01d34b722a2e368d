(* Sim-clock-driven windowed sampler over the Metrics registry.

   The experiment driver calls [tick] on a fixed interval of simulated
   time; every [subticks]-th tick closes a window. Counters report the
   per-window delta (and a per-second rate), gauges report the
   last/min/max of the values seen at the ticks inside the window, and
   histograms report per-window quantiles computed from the
   bucket-count delta against the previous close — all derived from
   cumulative reads of the registry, so nothing is added to any hot
   path and registering new metrics mid-run just makes them appear in
   the next window.

   Memory is bounded: a ring of at most [windows] closed windows, each
   holding one point per active metric, plus one baseline per metric.
   When the ring wraps, [dropped_windows] counts what was evicted —
   same contract as the flight recorder. Determinism: metric iteration
   is sorted by name ([Metrics.sorted_views]), and the sampler draws
   nothing from any RNG, so a seeded run yields a byte-stable
   timeline. *)

type counter = { delta : int; rate : float }
type gauge = { last : float; min : float; max : float }
type hist = { count : int; mean : float; p50 : float; p90 : float; p99 : float }
type point = Counter_point of counter | Gauge_point of gauge | Hist_point of hist

type window = {
  index : int;  (* 0-based, counting every window ever closed *)
  t_start : int;  (* ns *)
  t_end : int;  (* ns *)
  points : (string * string * point) list;  (* (name, unit, point), sorted *)
}

(* Per-metric cumulative baseline at the previous window close, plus the
   gauge aggregate accumulated across the ticks of the open window. *)
type baseline =
  | B_counter of { mutable prev : int }
  | B_gauge of { mutable last : float; mutable min : float; mutable max : float }
  | B_hist of {
      mutable prev_counts : int array;
      mutable prev_sum : float;
      mutable prev_obs : int;
    }

type t = {
  metrics : Metrics.t;
  window_ns : int;
  subticks : int;
  cap : int;  (* ring capacity in windows *)
  ring : window option array;
  mutable next : int;  (* ring write cursor *)
  mutable closed : int;  (* windows ever closed *)
  baselines : (string, baseline) Hashtbl.t;
  mutable ticks_in_window : int;
  mutable window_start : int;  (* ns; start of the open window *)
  mutable started : bool;
  mutable on_close : (t -> window -> unit) option;
}

let create ~metrics ?(window = 250_000_000) ?(windows = 64) ?(subticks = 4) () =
  if window <= 0 then invalid_arg "Timeseries.create: window must be > 0";
  if windows <= 0 then invalid_arg "Timeseries.create: windows must be > 0";
  if subticks <= 0 then invalid_arg "Timeseries.create: subticks must be > 0";
  {
    metrics;
    window_ns = window;
    subticks;
    cap = windows;
    ring = Array.make windows None;
    next = 0;
    closed = 0;
    baselines = Hashtbl.create 64;
    ticks_in_window = 0;
    window_start = 0;
    started = false;
    on_close = None;
  }

let window_ns t = t.window_ns
let subticks t = t.subticks
let capacity t = t.cap
let tick_interval_ns t = max 1 (t.window_ns / t.subticks)
let closed_windows t = t.closed
let dropped_windows t = max 0 (t.closed - t.cap)
let set_on_close t f = t.on_close <- Some f

(* Fold the current registry state into the per-metric baselines. On a
   closing tick this also emits the window's points; on an ordinary
   subtick it only refreshes gauge aggregates. *)
let observe_views t ~closing =
  let points = ref [] in
  List.iter
    (fun (name, unit_, view) ->
      match view with
      | Metrics.V_counter cur -> (
        match Hashtbl.find_opt t.baselines name with
        | Some (B_counter b) ->
          if closing then begin
            let delta = cur - b.prev in
            b.prev <- cur;
            if delta <> 0 then
              points :=
                ( name,
                  unit_,
                  Counter_point
                    {
                      delta;
                      rate = float_of_int delta /. (float_of_int t.window_ns /. 1e9);
                    } )
                :: !points
          end
        | Some _ -> ()
        | None ->
          (* First sighting: the whole cumulative value belongs to windows
             before this metric was visible; baseline it without emitting,
             so deltas never double-count the past. *)
          Hashtbl.replace t.baselines name (B_counter { prev = cur }))
      | Metrics.V_gauge cur -> (
        match Hashtbl.find_opt t.baselines name with
        | Some (B_gauge b) ->
          b.last <- cur;
          if cur < b.min then b.min <- cur;
          if cur > b.max then b.max <- cur;
          if closing then begin
            points :=
              (name, unit_, Gauge_point { last = b.last; min = b.min; max = b.max })
              :: !points;
            b.min <- cur;
            b.max <- cur
          end
        | Some _ -> ()
        | None ->
          Hashtbl.replace t.baselines name (B_gauge { last = cur; min = cur; max = cur }))
      | Metrics.V_histogram hs -> (
        match Hashtbl.find_opt t.baselines name with
        | Some (B_hist b) ->
          if closing then begin
            let n = Array.length hs.Metrics.hs_counts in
            let delta_counts =
              Array.init n (fun i -> hs.Metrics.hs_counts.(i) - b.prev_counts.(i))
            in
            let count = hs.Metrics.hs_observations - b.prev_obs in
            let sum = hs.Metrics.hs_sum -. b.prev_sum in
            b.prev_counts <- hs.Metrics.hs_counts;
            b.prev_sum <- hs.Metrics.hs_sum;
            b.prev_obs <- hs.Metrics.hs_observations;
            if count > 0 then begin
              let q p =
                Metrics.quantile_of_counts ~bounds:hs.Metrics.hs_bounds
                  ~counts:delta_counts ~observations:count p
              in
              points :=
                ( name,
                  unit_,
                  Hist_point
                    {
                      count;
                      mean = sum /. float_of_int count;
                      p50 = q 0.50;
                      p90 = q 0.90;
                      p99 = q 0.99;
                    } )
                :: !points
            end
          end
        | Some _ -> ()
        | None ->
          Hashtbl.replace t.baselines name
            (B_hist
               {
                 prev_counts = hs.Metrics.hs_counts;
                 prev_sum = hs.Metrics.hs_sum;
                 prev_obs = hs.Metrics.hs_observations;
               })))
    (Metrics.sorted_views t.metrics);
  List.rev !points

let push_window t w =
  t.ring.(t.next) <- Some w;
  t.next <- (t.next + 1) mod t.cap;
  t.closed <- t.closed + 1;
  match t.on_close with Some f -> f t w | None -> ()

let close_window t ~now =
  let points = observe_views t ~closing:true in
  let w = { index = t.closed; t_start = t.window_start; t_end = now; points } in
  t.window_start <- now;
  t.ticks_in_window <- 0;
  push_window t w

let tick t ~now =
  if not t.started then begin
    (* The first tick anchors the window grid; cumulative state present
       before it is baselined out, so window 0 covers activity from this
       point on. *)
    t.started <- true;
    t.window_start <- now;
    t.ticks_in_window <- 0;
    ignore (observe_views t ~closing:false : (string * string * point) list);
    false
  end
  else begin
    t.ticks_in_window <- t.ticks_in_window + 1;
    if t.ticks_in_window >= t.subticks then begin
      close_window t ~now;
      true
    end
    else begin
      ignore (observe_views t ~closing:false : (string * string * point) list);
      false
    end
  end

let flush t ~now =
  if t.started && (t.ticks_in_window > 0 || now > t.window_start) then
    close_window t ~now

let windows t =
  let n = min t.closed t.cap in
  let start = if t.closed <= t.cap then 0 else t.next in
  List.init n (fun i ->
      match t.ring.((start + i) mod t.cap) with
      | Some w -> w
      | None -> assert false)

let last_window t =
  if t.closed = 0 then None
  else t.ring.((t.next + t.cap - 1) mod t.cap)

let point w name =
  List.find_map
    (fun (n, _, p) -> if String.equal n name then Some p else None)
    w.points

(* ---- export ------------------------------------------------------------- *)

let sec ns = float_of_int ns /. 1e9

let counter_spec =
  Schema.(
    doc [ field "delta" count (fun c -> c.delta); field "rate" (number ()) (fun c -> c.rate) ])

let gauge_spec =
  Schema.(
    doc
      ~check:(fun g ->
        let lo = get_num g "min" and hi = get_num g "max" and last = get_num g "last" in
        require (lo <= last && last <= hi) "gauge last %g outside [min %g, max %g]" last lo hi)
      [
        field "last" (number ()) (fun g -> g.last);
        field "min" (number ()) (fun g -> g.min);
        field "max" (number ()) (fun g -> g.max);
      ])

let hist_spec =
  Schema.(
    doc
      ~check:(fun h ->
        let p50 = get_num h "p50" and p90 = get_num h "p90" and p99 = get_num h "p99" in
        require (p50 <= p90 && p90 <= p99) "quantiles not monotone (%g, %g, %g)" p50 p90 p99)
      [
        field "count" count (fun h -> h.count);
        field "mean" (number ()) (fun h -> h.mean);
        field "p50" (number ()) (fun h -> h.p50);
        field "p90" (number ()) (fun h -> h.p90);
        field "p99" (number ()) (fun h -> h.p99);
      ])

let point_spec =
  Schema.(
    doc
      [
        field "name" string (fun (name, _, _) -> name);
        field "unit" string (fun (_, unit_, _) -> unit_);
        variant "kind"
          [
            case "counter" (function _, _, Counter_point c -> Some c | _ -> None) counter_spec;
            case "gauge" (function _, _, Gauge_point g -> Some g | _ -> None) gauge_spec;
            case "histogram" (function _, _, Hist_point h -> Some h | _ -> None) hist_spec;
          ];
      ])

let window_spec =
  Schema.(
    doc
      ~check:(fun w ->
        let t0 = get_num w "t_start_s" and t1 = get_num w "t_end_s" in
        require (t1 > t0) "window span (%g, %g) inconsistent" t0 t1)
      [
        field "index" count (fun w -> w.index);
        field "t_start_s" (number ~ge:0.0 ()) (fun w -> sec w.t_start);
        field "t_end_s" (number ()) (fun w -> sec w.t_end);
        field "metrics" (list (obj point_spec)) (fun w -> w.points);
      ])

let to_csv t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "window,t_start_s,t_end_s,name,unit,kind,delta,rate,last,min,max,count,mean,p50,p90,p99\n";
  List.iter
    (fun w ->
      List.iter
        (fun (name, unit_, p) ->
          let head =
            Printf.sprintf "%d,%.6f,%.6f,%s,%s," w.index (sec w.t_start)
              (sec w.t_end) name unit_
          in
          Buffer.add_string buf head;
          (match p with
          | Counter_point { delta; rate } ->
            Buffer.add_string buf
              (Printf.sprintf "counter,%d,%.6f,,,,,,,,\n" delta rate)
          | Gauge_point { last; min; max } ->
            Buffer.add_string buf
              (Printf.sprintf "gauge,,,%.6f,%.6f,%.6f,,,,,\n" last min max)
          | Hist_point { count; mean; p50; p90; p99 } ->
            Buffer.add_string buf
              (Printf.sprintf "histogram,,,,,,%d,%.6f,%.6f,%.6f,%.6f\n" count mean
                 p50 p90 p99)))
        w.points)
    (windows t);
  Buffer.contents buf
