(* Thread-safe metrics registry: labeled counters, gauges and
   log-bucketed histograms, with Prometheus-text and JSON exposition.

   Design constraints, in order:

   1. Counting costs nothing here. A count the program already keeps in
      a plain field (the engine's executions, the WAL's appends, ...)
      is registered once as a *source*: a read function the registry
      calls when it is scraped. The hot site is the field's own
      increment, with or without a registry attached. Releasing a
      source folds its last reading into the series, so a series never
      decreases and the registry stops holding the released object.
      Only a count with no plain twin, and every histogram, is a cell
      updated at the event; such a site holds its cell inside an
      [option] resolved once at attach time, so its disabled path is a
      single immediate branch on [None] (bench E20 gates the overhead
      at <= 5%).

   2. Updates, registrations and scrapes may run on different threads:
      the daemon updates cells from its threads while its HTTP endpoint
      scrapes them. Cells are lock-free: a counter is an [int Atomic.t],
      a gauge a [float Atomic.t], a histogram an array of bucket atomics
      plus a CAS-updated sum. A series' sources are one immutable
      record behind an atomic, so a scrape sees a source either live or
      folded, never both or neither. Registration (the get-or-create of
      a family/series) takes the registry mutex, once per series.

   3. Exposition is deterministic: families sort by name, series by
      label signature, so scrapes and cram goldens are stable.

   Histograms are log-bucketed (decades by default, the same geometry
   as [Telemetry]'s settle-latency buckets) and quantiles are
   *estimated* from the buckets by geometric interpolation —
   [quantile] is shared with [Inspect]'s per-instance profiles so both
   report the same p50/p90/p99 for the same counts. *)

(* A series' scrape-time sources: [folded] is the sum of the last
   values of the released ones. A source's value is its reading less
   [base]: its reading at registration for a counter, 0 for a gauge. *)
type sources = { folded : int; live : source list }
and source = { read : unit -> int; base : int; home : sources Atomic.t }

type counter = { n : int Atomic.t; c_sources : sources Atomic.t }
type gauge = { x : float Atomic.t; g_sources : sources Atomic.t }

type histogram = {
  h_bounds : float array; (* upper bounds, last one [infinity] *)
  h_counts : int Atomic.t array; (* same length as [h_bounds] *)
  h_sum : float Atomic.t;
}

type cell = C of counter | G of gauge | H of histogram

type family = {
  f_name : string; (* full exposition name, namespace included *)
  f_help : string;
  f_kind : [ `Counter | `Gauge | `Histogram ];
  (* label signature -> (labels, cell); the signature is the rendered
     [{k="v",...}] string so it is canonical and render-ready *)
  f_series : (string, (string * string) list * cell) Hashtbl.t;
}

type t = {
  namespace : string;
  m : Mutex.t;
  families : (string, family) Hashtbl.t;
}

let create ?(namespace = "alphonse") () =
  { namespace; m = Mutex.create (); families = Hashtbl.create 32 }

(* seconds, decades: <1us ... >=10s, same shape as telemetry latency *)
let default_bounds =
  [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1.; 10.; infinity |]

let escape_label v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let signature labels =
  match labels with
  | [] -> ""
  | _ ->
    let labels = List.sort compare labels in
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k (escape_label v)) labels)
    ^ "}"

let kind_name = function
  | `Counter -> "counter"
  | `Gauge -> "gauge"
  | `Histogram -> "histogram"

(* get-or-create, under the registry mutex; called at attach time *)
let series reg ~kind ~help ~labels name mk =
  if name = "" then invalid_arg "Metrics: empty metric name";
  let full = if reg.namespace = "" then name else reg.namespace ^ "_" ^ name in
  Mutex.lock reg.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock reg.m) @@ fun () ->
  let fam =
    match Hashtbl.find_opt reg.families full with
    | Some f ->
      if f.f_kind <> kind then
        invalid_arg
          (Printf.sprintf "Metrics: %s registered as %s, requested as %s" full
             (kind_name f.f_kind) (kind_name kind));
      f
    | None ->
      let f =
        { f_name = full; f_help = help; f_kind = kind;
          f_series = Hashtbl.create 4 }
      in
      Hashtbl.replace reg.families full f;
      f
  in
  let sig_ = signature labels in
  match Hashtbl.find_opt fam.f_series sig_ with
  | Some (_, cell) -> cell
  | None ->
    let cell = mk () in
    Hashtbl.replace fam.f_series sig_ (List.sort compare labels, cell);
    cell

let no_sources () = Atomic.make { folded = 0; live = [] }

let counter reg ?(help = "") ?(labels = []) name =
  let mk () = C { n = Atomic.make 0; c_sources = no_sources () } in
  match series reg ~kind:`Counter ~help ~labels name mk with
  | C c -> c
  | _ -> assert false

let gauge reg ?(help = "") ?(labels = []) name =
  let mk () = G { x = Atomic.make 0.; g_sources = no_sources () } in
  match series reg ~kind:`Gauge ~help ~labels name mk with
  | G g -> g
  | _ -> assert false

let histogram reg ?(help = "") ?(labels = []) ?(bounds = default_bounds) name =
  let bounds =
    let n = Array.length bounds in
    if n = 0 then invalid_arg "Metrics.histogram: empty bounds";
    if bounds.(n - 1) = infinity then Array.copy bounds
    else Array.append bounds [| infinity |]
  in
  let mk () =
    H
      {
        h_bounds = bounds;
        h_counts = Array.init (Array.length bounds) (fun _ -> Atomic.make 0);
        h_sum = Atomic.make 0.;
      }
  in
  match series reg ~kind:`Histogram ~help ~labels name mk with
  | H h ->
    if Array.length h.h_bounds <> Array.length bounds then
      invalid_arg ("Metrics.histogram: bounds mismatch for " ^ name);
    h
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Hot-path operations (lock-free)                                     *)
(* ------------------------------------------------------------------ *)

let inc c = Atomic.incr c.n
let add c k = ignore (Atomic.fetch_and_add c.n k)
let set g v = Atomic.set g.x v

let rec update a f =
  let old = Atomic.get a in
  if not (Atomic.compare_and_set a old (f old)) then update a f

let source reg ?help ?labels kind name read =
  let s =
    match kind with
    | `Counter ->
      { read; base = read (); home = (counter reg ?help ?labels name).c_sources }
    | `Gauge -> { read; base = 0; home = (gauge reg ?help ?labels name).g_sources }
  in
  update s.home (fun st -> { st with live = s :: st.live });
  s

let release s =
  update s.home (fun st ->
      if List.memq s st.live then
        let live = List.filter (( != ) s) st.live in
        { folded = st.folded + s.read () - s.base; live }
      else st)

let sources_value a =
  let st = Atomic.get a in
  List.fold_left (fun acc s -> acc + s.read () - s.base) st.folded st.live

let counter_value c = Atomic.get c.n + sources_value c.c_sources
let gauge_value g = Atomic.get g.x +. float_of_int (sources_value g.g_sources)


let observe h v =
  let n = Array.length h.h_bounds in
  let rec bucket i = if i >= n - 1 || v < h.h_bounds.(i) then i else bucket (i + 1) in
  Atomic.incr h.h_counts.(bucket 0);
  update h.h_sum (fun sum -> sum +. v)

let histogram_counts h = Array.map Atomic.get h.h_counts
let histogram_count h = Array.fold_left (fun a c -> a + Atomic.get c) 0 h.h_counts
let histogram_sum h = Atomic.get h.h_sum

(* ------------------------------------------------------------------ *)
(* Quantile estimation (shared with Inspect's profiles)                *)
(* ------------------------------------------------------------------ *)

(* [counts.(i)] holds observations < [bounds.(i)] (and >= the previous
   bound). The estimate geometrically interpolates inside the bucket
   containing the rank — honest for log-spaced buckets, where the
   arithmetic midpoint would skew high. *)
let quantile ~counts ~bounds q =
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then nan
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let rank = q *. float_of_int total in
    let n = Array.length counts in
    let rec go i cum =
      if i >= n then bounds.(Array.length bounds - 1)
      else
        let cum' = cum + counts.(i) in
        if counts.(i) > 0 && float_of_int cum' >= rank then begin
          let hi = bounds.(i) in
          let lo =
            if i = 0 then if Float.is_finite hi then hi /. 10. else 1e-9
            else bounds.(i - 1)
          in
          let lo = if lo <= 0. then 1e-9 else lo in
          let hi = if Float.is_finite hi then hi else lo *. 10. in
          let p = (rank -. float_of_int cum) /. float_of_int counts.(i) in
          lo *. ((hi /. lo) ** p)
        end
        else go (i + 1) cum'
    in
    go 0 0
  end

let quantiles ~counts ~bounds =
  ( quantile ~counts ~bounds 0.50,
    quantile ~counts ~bounds 0.90,
    quantile ~counts ~bounds 0.99 )

(* ------------------------------------------------------------------ *)
(* Exposition                                                          *)
(* ------------------------------------------------------------------ *)

let sorted_families reg =
  Mutex.lock reg.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock reg.m) @@ fun () ->
  Hashtbl.fold (fun _ f acc -> f :: acc) reg.families []
  |> List.sort (fun a b -> compare a.f_name b.f_name)

let sorted_series fam =
  Hashtbl.fold (fun sig_ (labels, cell) acc -> (sig_, labels, cell) :: acc)
    fam.f_series []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let float_str v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let bound_str b = if b = infinity then "+Inf" else Printf.sprintf "%g" b

(* the label signature already renders as [{k="v",...}]; to splice an
   extra [le] pair in we re-open the brace *)
let with_le sig_ b =
  let le = Printf.sprintf "le=\"%s\"" (bound_str b) in
  if sig_ = "" then "{" ^ le ^ "}"
  else String.sub sig_ 0 (String.length sig_ - 1) ^ "," ^ le ^ "}"

let to_prometheus reg =
  let buf = Buffer.create 4096 in
  List.iter
    (fun fam ->
      if fam.f_help <> "" then
        Buffer.add_string buf
          (Printf.sprintf "# HELP %s %s\n" fam.f_name fam.f_help);
      Buffer.add_string buf
        (Printf.sprintf "# TYPE %s %s\n" fam.f_name (kind_name fam.f_kind));
      List.iter
        (fun (sig_, _, cell) ->
          match cell with
          | C c ->
            Buffer.add_string buf
              (Printf.sprintf "%s%s %d\n" fam.f_name sig_ (counter_value c))
          | G g ->
            Buffer.add_string buf
              (Printf.sprintf "%s%s %s\n" fam.f_name sig_
                 (float_str (gauge_value g)))
          | H h ->
            let cum = ref 0 in
            Array.iteri
              (fun i c ->
                cum := !cum + Atomic.get c;
                Buffer.add_string buf
                  (Printf.sprintf "%s_bucket%s %d\n" fam.f_name
                     (with_le sig_ h.h_bounds.(i))
                     !cum))
              h.h_counts;
            Buffer.add_string buf
              (Printf.sprintf "%s_sum%s %s\n" fam.f_name sig_
                 (float_str (Atomic.get h.h_sum)));
            Buffer.add_string buf
              (Printf.sprintf "%s_count%s %d\n" fam.f_name sig_ !cum))
        (sorted_series fam))
    (sorted_families reg);
  Buffer.contents buf

let to_json reg =
  let series_json (_, labels, cell) =
    let labels_json =
      ("labels", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) labels))
    in
    match cell with
    | C c ->
      let v = float_of_int (counter_value c) in
      Json.Obj [ labels_json; ("value", Json.Num v) ]
    | G g -> Json.Obj [ labels_json; ("value", Json.Num (gauge_value g)) ]
    | H h ->
      let counts = histogram_counts h in
      let p50, p90, p99 = quantiles ~counts ~bounds:h.h_bounds in
      Json.Obj
        [
          labels_json;
          ("count", Json.Num (float_of_int (Array.fold_left ( + ) 0 counts)));
          ("sum", Json.Num (Atomic.get h.h_sum));
          ("p50", Json.Num p50);
          ("p90", Json.Num p90);
          ("p99", Json.Num p99);
          ( "buckets",
            Json.Arr
              (Array.to_list
                 (Array.mapi
                    (fun i c ->
                      Json.Obj
                        [
                          ("le", Json.Str (bound_str h.h_bounds.(i)));
                          ("count", Json.Num (float_of_int c));
                        ])
                    counts)) );
        ]
  in
  Json.Obj
    [
      ("schema", Json.Str "alphonse-metrics/1");
      ( "metrics",
        Json.Arr
          (List.map
             (fun fam ->
               Json.Obj
                 [
                   ("name", Json.Str fam.f_name);
                   ("type", Json.Str (kind_name fam.f_kind));
                   ("help", Json.Str fam.f_help);
                   ("series", Json.Arr (List.map series_json (sorted_series fam)));
                 ])
             (sorted_families reg)) );
    ]

(* timing helper for instrumented regions: call sites keep the disabled
   path to one [option] branch by testing their cell before calling *)
let now () = Unix.gettimeofday ()
let observe_since h t0 = observe h (now () -. t0)
