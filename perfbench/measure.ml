(* Clocks, latency samples, GC readings, the host-speed probe and the
   span tracer shared by every workload. Every timestamp is read from
   the nanosecond monotonic clock. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs_of_ns ns = float_of_int ns /. 1e9

(* The [p]-quantile of [xs], interpolating between closest ranks. *)
let quantile xs p =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
    let a = Array.of_list sorted in
    let r = p *. float_of_int (Array.length a - 1) in
    let i = int_of_float r in
    let j = min (i + 1) (Array.length a - 1) in
    a.(i) +. ((a.(j) -. a.(i)) *. (r -. float_of_int i))

(* ------------------------------------------------------------------ *)
(* Latency samples                                                     *)
(* ------------------------------------------------------------------ *)

module Samples = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 4096 0; n = 0 }

  let add s v =
    if s.n = Array.length s.a then begin
      let a = Array.make (2 * s.n) 0 in
      Array.blit s.a 0 a 0 s.n;
      s.a <- a
    end;
    s.a.(s.n) <- v;
    s.n <- s.n + 1

  let count s = s.n
  let clear s = s.n <- 0
  let capacity s = Array.length s.a

  let append dst src =
    for i = 0 to src.n - 1 do
      add dst src.a.(i)
    done

  (* The mean, in microseconds; unlike [percentile_us], it allocates
     nothing, so it can run at times set by the clock without making the
     heap depend on the host's speed. *)
  let mean_us s =
    let sum = ref 0 in
    for i = 0 to s.n - 1 do
      sum := !sum + s.a.(i)
    done;
    float_of_int !sum /. float_of_int (max 1 s.n) /. 1e3

  (* The [p]-quantile of the samples, in microseconds. *)
  let percentile_us s p =
    quantile (List.init s.n (fun i -> float_of_int s.a.(i))) p /. 1e3
end

(* The speed of a shared 2-vCPU virtual machine swings by 1.5-2x, in
   stretches from a tenth of a second to minutes, with the program
   unchanged. A fixed integer loop barely notices, so the contention is
   in the memory system, and the memory fill of [host_fill_ms] tracks it
   too loosely to correct for it. A run is therefore
   measured in short slices and reports its quiet moments: the latency
   percentiles and the rate of the [keep] slices with the lowest mean
   latency, their samples pooled, and the 1st percentile of its set-up
   samples, which are taken throughout the run. A run then reads the
   same whenever a few tenths of a second of it ran on a quiet host. The
   median slice is printed beside it. *)
let quiet_time xs = quantile xs 0.01

module Quiet = struct
  (* Slots are allocated once and refilled in place, so that a run's
     live heap does not depend on which slices were kept. *)
  type t = {
    slots : Samples.t array;
    mean : float array;  (** latency of each filled slot *)
    ops : int array;
    busy_ns : int array;
    mutable n : int;  (** filled slots *)
    mutable slices : int;  (** slices offered *)
  }

  let create keep =
    {
      slots = Array.init keep (fun _ -> Samples.create ());
      mean = Array.make keep 0.;
      ops = Array.make keep 0;
      busy_ns = Array.make keep 0;
      n = 0;
      slices = 0;
    }

  (* Offers a slice: its latency samples, and the ops it completed in
     [busy_ns] of loop time. *)
  let offer q (s : Samples.t) ~ops ~busy_ns =
    q.slices <- q.slices + 1;
    let mean = Samples.mean_us s in
    let slot =
      if q.n < Array.length q.slots then begin
        q.n <- q.n + 1;
        Some (q.n - 1)
      end
      else begin
        let worst = ref 0 in
        Array.iteri (fun i v -> if v > q.mean.(!worst) then worst := i) q.mean;
        if mean < q.mean.(!worst) then Some !worst else None
      end
    in
    Option.iter
      (fun i ->
        Samples.clear q.slots.(i);
        Samples.append q.slots.(i) s;
        q.mean.(i) <- mean;
        q.ops.(i) <- ops;
        q.busy_ns.(i) <- busy_ns)
      slot

  let words q = Array.fold_left (fun a s -> a + Samples.capacity s) 0 q.slots

  (* The [p]-quantile of the kept slices' samples, in microseconds. *)
  let percentile_us q p =
    let all = Samples.create () in
    for i = 0 to q.n - 1 do
      Samples.append all q.slots.(i)
    done;
    Samples.percentile_us all p

  (* Ops per second of loop time over the kept slices. *)
  let rate q =
    let sum a = Array.fold_left ( + ) 0 (Array.sub a 0 q.n) in
    float_of_int (sum q.ops) /. secs_of_ns (max 1 (sum q.busy_ns))
end

let median xs = quantile xs 0.5

(* ------------------------------------------------------------------ *)
(* Host-speed probes, so a slow host can be told apart from a slow     *)
(* program: a fixed integer loop, timed at the start and the end of    *)
(* each run, and a memory fill, timed more often. On a shared 2-vCPU   *)
(* virtual machine the loop barely moves while the program slows by   *)
(* 1.5x; the fill moves with the program (per-slice correlation 0.68   *)
(* on sheet-reads), a random pointer chase over 1 MB does not (0.23).  *)
(* ------------------------------------------------------------------ *)

let host_probe_ms () =
  let t0 = now_ns () in
  let x = ref 88172645463325252 in
  for _ = 1 to 20_000_000 do
    let v = !x in
    let v = v lxor (v lsl 13) in
    let v = v lxor (v lsr 7) in
    x := v lxor (v lsl 17)
  done;
  ignore (Sys.opaque_identity !x);
  float_of_int (now_ns () - t0) /. 1e6

(* Writes 8 MB into a 2 MB buffer and reads it back. The buffer is
   outside the OCaml heap, so it does not count in mem_peak_mb. *)
let fill_buffer = lazy Bigarray.(Array1.create int c_layout 262_144)

let host_fill_ms () =
  let b = Lazy.force fill_buffer in
  let t0 = now_ns () in
  for k = 1 to 4 do
    Bigarray.Array1.fill b k
  done;
  let s = ref 0 in
  for i = 0 to Bigarray.Array1.dim b - 1 do
    s := !s + Bigarray.Array1.unsafe_get b i
  done;
  ignore (Sys.opaque_identity !s);
  float_of_int (now_ns () - t0) /. 1e6

(* ------------------------------------------------------------------ *)
(* GC readings                                                         *)
(* ------------------------------------------------------------------ *)

let word_bytes = Sys.word_size / 8
let mb_of_words w = float_of_int (w * word_bytes) /. 1048576.

(* Live words after a full major collection. *)
let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let top_heap_mb () = mb_of_words (Gc.quick_stat ()).Gc.top_heap_words

(* ------------------------------------------------------------------ *)
(* Span tracer                                                         *)
(* ------------------------------------------------------------------ *)

(* The benchmark records a span around each call it makes into a layer.
   Spans of one operation are kept until the operation ends, then
   reconciled: they must lie inside the operation's span without
   overlapping, so that the layers' self times plus the operation's own
   self time add up to the operation span exactly. Per-layer totals are
   folded in as operations end. A disabled tracer reads no clock. *)
module Trace = struct
  type t = {
    enabled : bool;
    names : string array;
    total_ns : int array;
    calls : int array;
    (* spans of the open operation *)
    mutable op_open : bool;
    mutable op_start : int;
    mutable n : int;
    sp_layer : int array;
    sp_start : int array;
    sp_end : int array;
    (* operation totals *)
    mutable ops : int;
    mutable op_ns : int;
    mutable op_self_ns : int;
    mutable unreconciled : int;
  }

  let max_spans = 256

  let create ~enabled names =
    let k = Array.length names in
    {
      enabled;
      names;
      total_ns = Array.make k 0;
      calls = Array.make k 0;
      op_open = false;
      op_start = 0;
      n = 0;
      sp_layer = Array.make max_spans 0;
      sp_start = Array.make max_spans 0;
      sp_end = Array.make max_spans 0;
      ops = 0;
      op_ns = 0;
      op_self_ns = 0;
      unreconciled = 0;
    }

  let layer t name =
    let rec go i =
      if i = Array.length t.names then invalid_arg ("Trace.layer " ^ name)
      else if t.names.(i) = name then i
      else go (i + 1)
    in
    go 0

  let start t = if t.enabled then now_ns () else 0

  (* Closes a layer span opened by [start]. Outside an operation the
     span only feeds the layer's totals. *)
  let stop t layer t0 =
    if t.enabled then begin
      let t1 = now_ns () in
      t.total_ns.(layer) <- t.total_ns.(layer) + (t1 - t0);
      t.calls.(layer) <- t.calls.(layer) + 1;
      if t.op_open && t.n < max_spans then begin
        t.sp_layer.(t.n) <- layer;
        t.sp_start.(t.n) <- t0;
        t.sp_end.(t.n) <- t1;
        t.n <- t.n + 1
      end
      else if t.op_open then t.unreconciled <- t.unreconciled + 1
    end

  let op_begin t =
    if t.enabled then begin
      t.op_open <- true;
      t.n <- 0;
      t.op_start <- now_ns ()
    end

  let op_end t =
    if t.enabled then begin
      let e = now_ns () in
      let s = t.op_start in
      let prev = ref s and covered = ref 0 and ok = ref true in
      for i = 0 to t.n - 1 do
        if t.sp_start.(i) < !prev || t.sp_end.(i) > e then ok := false;
        covered := !covered + (t.sp_end.(i) - t.sp_start.(i));
        prev := t.sp_end.(i)
      done;
      let self = e - s - !covered in
      if (not !ok) || self < 0 then t.unreconciled <- t.unreconciled + 1;
      t.ops <- t.ops + 1;
      t.op_ns <- t.op_ns + (e - s);
      t.op_self_ns <- t.op_self_ns + self;
      t.op_open <- false
    end

  let merge dst src =
    Array.iteri
      (fun i v ->
        dst.total_ns.(i) <- dst.total_ns.(i) + v;
        dst.calls.(i) <- dst.calls.(i) + src.calls.(i))
      src.total_ns;
    dst.ops <- dst.ops + src.ops;
    dst.op_ns <- dst.op_ns + src.op_ns;
    dst.op_self_ns <- dst.op_self_ns + src.op_self_ns;
    dst.unreconciled <- dst.unreconciled + src.unreconciled

  (* Mean microseconds per call of the named layer; 0 when the workload
     never calls it. *)
  let mean_us t name =
    let i = layer t name in
    if t.calls.(i) = 0 then 0.
    else float_of_int t.total_ns.(i) /. float_of_int t.calls.(i) /. 1e3

  (* Share of the operation spans not covered by any layer span. *)
  let self_share t =
    if t.op_ns = 0 then 0. else float_of_int t.op_self_ns /. float_of_int t.op_ns
end
