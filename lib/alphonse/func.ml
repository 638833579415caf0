type ('a, 'b) t = {
  eng : Engine.t;
  fname : string;
  strategy : Engine.strategy;
  policy : Policy.t;
  pp_key : ('a -> string) option;
      (* names instances "fname(key)" in telemetry and DOT dumps *)
  value_equal : 'b -> 'b -> bool;
  body : ('a, 'b) t -> 'a -> 'b;
  table : ('a, ('a, 'b) entry) Htbl.t;
  (* recency list: [newest] is the most recently used (LRU) or most
     recently inserted (FIFO); eviction scans from [oldest]. *)
  mutable newest : ('a, 'b) entry option;
  mutable oldest : ('a, 'b) entry option;
}

and ('a, 'b) entry = {
  key : 'a;
  enode : Engine.node;
  mutable cache : 'b cache;
  mutable younger : ('a, 'b) entry option;
  mutable older : ('a, 'b) entry option;
  mutable live : bool;
}

(* The first execution allocates the [Cached] cell; later executions
   overwrite it in place, so a re-execution allocates no cache cell. An
   inline record rather than a one-cell array: a float result stays
   boxed, and a cached read returns it without re-boxing. *)
and 'b cache = Empty | Cached of { mutable v : 'b }

let fcounter = ref 0

let create eng ?name ?strategy ?(policy = Policy.Unbounded)
    ?(hash_arg = Htbl.poly_hash) ?(equal_arg = Htbl.poly_equal)
    ?(equal_result = Htbl.poly_equal) ?pp_key body =
  incr fcounter;
  let fname =
    match name with Some n -> n | None -> Fmt.str "func#%d" !fcounter
  in
  let strategy =
    match strategy with Some s -> s | None -> Engine.default_strategy eng
  in
  {
    eng;
    fname;
    strategy;
    policy;
    pp_key;
    value_equal = equal_result;
    body;
    table = Htbl.create ~hash:hash_arg ~equal:equal_arg ();
    newest = None;
    oldest = None;
  }

let unlink t e =
  (match e.younger with
  | Some y -> y.older <- e.older
  | None -> t.newest <- e.older);
  (match e.older with
  | Some o -> o.younger <- e.younger
  | None -> t.oldest <- e.younger);
  e.younger <- None;
  e.older <- None

let push_front t e =
  e.older <- t.newest;
  e.younger <- None;
  (match t.newest with Some n -> n.younger <- Some e | None -> ());
  t.newest <- Some e;
  match t.oldest with None -> t.oldest <- Some e | Some _ -> ()

let evict t e =
  (* discard first: it can raise (an injected fault cancels the
     eviction), and then the table, recency list and node must all still
     agree that the entry is live *)
  Engine.discard t.eng e.enode;
  Htbl.remove t.table e.key;
  unlink t e;
  e.live <- false

(* Enforce the capacity bound, evicting only sound candidates (no live
   dependents, not pending, not executing) and never the entry just
   inserted. Gives up rather than evicting an unsound candidate. *)
let maybe_evict t ~keep =
  match Policy.capacity t.policy with
  | None -> ()
  | Some cap ->
    let excess () = Htbl.length t.table - cap in
    let rec scan e_opt =
      if excess () > 0 then
        match e_opt with
        | None -> ()
        | Some e when e == keep -> scan e.younger
        | Some e ->
          let next = e.younger in
          if Engine.removable t.eng e.enode then evict t e;
          scan next
    in
    scan t.oldest

let find_or_create t a =
  match Htbl.find t.table a with
  | e -> e
  | exception Not_found ->
    let recompute_ref = ref (fun () -> true) in
    let iname =
      match t.pp_key with
      | Some pp -> Fmt.str "%s(%s)" t.fname (pp a)
      | None -> t.fname
    in
    let enode =
      Engine.new_instance t.eng ~name:iname ~strategy:t.strategy
        ~recompute:(fun () -> !recompute_ref ())
        ()
    in
    let e = { key = a; enode; cache = Empty; younger = None; older = None;
              live = true }
    in
    (recompute_ref :=
       fun () ->
         let v = t.body t a in
         match e.cache with
         | Empty ->
           e.cache <- Cached { v };
           true
         | Cached c ->
           let changed = not (t.value_equal c.v v) in
           c.v <- v;
           changed);
    Htbl.add t.table a e;
    push_front t e;
    maybe_evict t ~keep:e;
    e

let call t a =
  let e = find_or_create t a in
  (match t.policy with
  | Policy.Lru _ when e.live -> (
    match t.newest with
    | Some n when n == e -> ()
    | _ ->
      unlink t e;
      push_front t e)
  | _ -> ());
  Engine.on_call t.eng e.enode;
  match e.cache with
  | Cached c -> c.v
  | Empty -> assert false (* on_call always fills a fresh cache *)

let size t = Htbl.length t.table

let peek t a =
  match Htbl.find_opt t.table a with
  | Some { cache = Cached c; _ } -> Some c.v
  | Some { cache = Empty; _ } | None -> None

let node t a =
  match Htbl.find_opt t.table a with Some e -> Some e.enode | None -> None

let name t = t.fname
let engine t = t.eng
