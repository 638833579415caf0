(* Deterministic fault injection for the engine (the test half lives in
   test/test_faults.ml). The engine pokes its installed fault hook at
   every decision point — [Engine.fault_sites] — and a hook that raises
   models a crash there: an allocation failure, a cancellation, a bug in
   engine-adjacent code. The injectors below are deterministic (counted
   or seeded with splitmix64), so every failing schedule is replayable
   from a seed. *)

exception Injected of string
exception Killed of string

let sites = Engine.fault_sites

(* ------------------------------------------------------------------ *)
(* Engine-independent kill hooks                                        *)
(* ------------------------------------------------------------------ *)

(* The durability layer ([Wal], [Durable]) hosts its own crash sites —
   mid-frame, pre-fsync, pre-rename — through a plain [string -> unit]
   hook, so the combinators below build hooks without touching an
   engine. A raised [Killed] models the process dying at that byte
   offset: the test harness abandons the in-memory state entirely and
   recovers from disk, like a restarted process would. *)

let kill_nth ?only n =
  if n < 1 then invalid_arg "Faults.kill_nth";
  let seen = ref 0 in
  let fired = ref false in
  let hook site =
    if (not !fired) && (match only with None -> true | Some s -> s = site)
    then begin
      incr seen;
      if !seen = n then begin
        fired := true;
        raise (Killed site)
      end
    end
  in
  (hook, fired)

let counting_hook () =
  let tbl : (string, int ref) Hashtbl.t = Hashtbl.create 8 in
  let hook site =
    match Hashtbl.find_opt tbl site with
    | Some r -> incr r
    | None -> Hashtbl.replace tbl site (ref 1)
  in
  let read () =
    Hashtbl.fold (fun site r acc -> (site, !r) :: acc) tbl []
    |> List.sort compare
  in
  (hook, read)

let clear eng = Engine.set_fault_hook eng None

(* ------------------------------------------------------------------ *)
(* Counting: observe a run's decision points without perturbing it      *)
(* ------------------------------------------------------------------ *)

let count eng f =
  let tbl : (string, int ref) Hashtbl.t = Hashtbl.create 8 in
  let hook site =
    match Hashtbl.find_opt tbl site with
    | Some r -> incr r
    | None -> Hashtbl.replace tbl site (ref 1)
  in
  let saved = Engine.fault_hook eng in
  Engine.set_fault_hook eng (Some hook);
  let finally () = Engine.set_fault_hook eng saved in
  let v = Fun.protect ~finally f in
  let counts =
    Hashtbl.fold (fun site r acc -> (site, !r) :: acc) tbl []
    |> List.sort compare
  in
  (v, counts)

let total counts = List.fold_left (fun acc (_, n) -> acc + n) 0 counts

(* ------------------------------------------------------------------ *)
(* Counted one-shot injection                                           *)
(* ------------------------------------------------------------------ *)

(* [inject_nth eng ?only n] arms a hook raising [Injected site] at the
   [n]-th poke (1-based; pokes of other sites don't count when [only] is
   given), exactly once. Returns a flag telling whether it ever fired —
   a sweep uses it to know when it has walked past the end of a run. *)
(* Injection counters resolve from the engine's registry at arm time —
   once per injector, never per poke. The engine's own poke site stays
   uninstrumented so a fired fault is counted exactly once, here. *)
let injection_counter eng =
  match Engine.metrics eng with
  | None -> None
  | Some reg ->
    Some
      (Metrics.counter reg "fault_injections_total"
         ~help:"faults fired by the seeded/counted injectors")

let inject_nth eng ?only n =
  if n < 1 then invalid_arg "Faults.inject_nth";
  let seen = ref 0 in
  let fired = ref false in
  let cell = injection_counter eng in
  let hook site =
    if (not !fired) && (match only with None -> true | Some s -> s = site)
    then begin
      incr seen;
      if !seen = n then begin
        fired := true;
        (match cell with None -> () | Some c -> Metrics.inc c);
        raise (Injected site)
      end
    end
  in
  Engine.set_fault_hook eng (Some hook);
  fired

(* ------------------------------------------------------------------ *)
(* Seeded injection (splitmix64)                                        *)
(* ------------------------------------------------------------------ *)

let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* uniform in [0, 1): the top 53 bits of one splitmix64 draw *)
let uniform state =
  Int64.to_float (Int64.shift_right_logical (splitmix64 state) 11)
  *. (1.0 /. 9007199254740992.0)

(* [install_seeded eng ~seed ~rate ()] arms a deterministic
   pseudo-random injector: each poke independently raises with
   probability [rate]. *)
let install_seeded eng ~seed ?(rate = 0.01) () =
  if not (rate >= 0. && rate <= 1.) then
    invalid_arg "Faults.install_seeded: rate must be in [0, 1]";
  let state = ref (Int64.of_int seed) in
  let fired = ref 0 in
  let cell = injection_counter eng in
  let hook site =
    if uniform state < rate then begin
      incr fired;
      (match cell with None -> () | Some c -> Metrics.inc c);
      raise (Injected site)
    end
  in
  Engine.set_fault_hook eng (Some hook);
  fired

(* ------------------------------------------------------------------ *)
(* Telemetry-driven site selection                                      *)
(* ------------------------------------------------------------------ *)

(* [pick ~seed counts n]: [n] deterministic injection points [(site,
   k)] — "fail at the k-th poke of this site" — drawn from the observed
   per-site counts of a clean run (from {!count}, or folded out of a
   telemetry stream), weighted by how often each site is actually hit.
   Feed each point back through {!inject_nth} for a replayable
   experiment. *)
let pick ~seed counts n =
  let counts = List.filter (fun (_, c) -> c > 0) counts in
  let tot = total counts in
  if tot = 0 || n <= 0 then []
  else begin
    let state = ref (Int64.of_int seed) in
    List.init n (fun _ ->
        let target = 1 + int_of_float (uniform state *. float_of_int tot) in
        let target = min target tot in
        let rec locate acc = function
          | [] -> assert false
          | (site, c) :: rest ->
            if target <= acc + c then (site, target - acc) else locate (acc + c) rest
        in
        locate 0 counts)
  end
