(* Open-addressing hash table (linear probing), one flat slot array.

   [find] sits on the engine's hottest path — every incremental call
   resolves its instance through it — so the layout is chosen for load
   count: probe = one array read + one key compare, no chain of cons
   cells. Capacities are powers of two (mask, not modulo) and the table
   grows at load factor 1/2. [Tomb] stones keep probe chains intact
   across [remove]; they are recycled by the next [grow]. *)

type ('k, 'v) slot = Empty | Tomb | Bind of 'k * 'v

type ('k, 'v) t = {
  hash : 'k -> int;
  equal : 'k -> 'k -> bool;
  mutable slots : ('k, 'v) slot array;
  mutable size : int;  (* live bindings *)
  mutable used : int;  (* live bindings + tombstones *)
}

let create ~hash ~equal () =
  { hash; equal; slots = Array.make 16 Empty; size = 0; used = 0 }

let length t = t.size

(* The probe of [find]: top level, so a lookup allocates no closure and
   answers without an option. *)
let rec probe equal slots mask k i =
  match Array.unsafe_get slots i with
  | Empty -> raise_notrace Not_found
  | Tomb -> probe equal slots mask k ((i + 1) land mask)
  | Bind (k', v) ->
    if equal k k' then v else probe equal slots mask k ((i + 1) land mask)

let find t k =
  (* snapshot: a concurrent [grow] swaps [t.slots] wholesale *)
  let slots = t.slots in
  let mask = Array.length slots - 1 in
  probe t.equal slots mask k (t.hash k land mask)

let find_opt t k = match find t k with v -> Some v | exception Not_found -> None

(* An integer mixer for hashing immediate keys: [land mask] reads the
   low bits, and a multiply carries every input bit into them only
   upward, so the high half is folded back down. *)
let hash_int k =
  let h = k * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 32)) land max_int

(* [Hashtbl.hash] and [( = )] with a path for immediate values (ints,
   chars, bools, constant constructors) that makes no C call. Two
   immediates are [( = )] exactly when they are the same word; any
   other pair goes to [( = )] itself, so every answer — NaN's included —
   is [( = )]'s. *)
let poly_hash k =
  let r = Obj.repr k in
  if Obj.is_int r then hash_int (Obj.obj r : int) else Hashtbl.hash k

let poly_equal a b =
  if Obj.is_int (Obj.repr a) && Obj.is_int (Obj.repr b) then a == b else a = b

(* Insert into [slots] directly; reuses the first tombstone on the probe
   path. *)
let put slots mask hash equal k v =
  let rec probe i tomb =
    match slots.(i) with
    | Empty ->
      let j = match tomb with Some j -> j | None -> i in
      slots.(j) <- Bind (k, v);
      tomb <> None
    | Tomb ->
      let tomb = match tomb with Some _ -> tomb | None -> Some i in
      probe ((i + 1) land mask) tomb
    | Bind (k', _) ->
      if equal k k' then invalid_arg "Htbl.add: key already bound"
      else probe ((i + 1) land mask) tomb
  in
  probe (hash k land mask) None

let grow t =
  let old = t.slots in
  let cap = Array.length old in
  (* double only when at least half the occupancy is live; otherwise the
     same capacity sheds the tombstones *)
  let cap' = if 2 * t.size >= cap then 2 * cap else cap in
  let slots = Array.make cap' Empty in
  let mask = cap' - 1 in
  Array.iter
    (function
      | Bind (k, v) -> ignore (put slots mask t.hash t.equal k v)
      | Empty | Tomb -> ())
    old;
  t.used <- t.size;
  t.slots <- slots

let add t k v =
  if 2 * (t.used + 1) > Array.length t.slots then grow t;
  let slots = t.slots in
  if put slots (Array.length slots - 1) t.hash t.equal k v then ()
  else t.used <- t.used + 1;
  t.size <- t.size + 1

let remove t k =
  let slots = t.slots in
  let mask = Array.length slots - 1 in
  let rec probe i =
    match slots.(i) with
    | Empty -> ()
    | Tomb -> probe ((i + 1) land mask)
    | Bind (k', _) ->
      if t.equal k k' then begin
        slots.(i) <- Tomb;
        t.size <- t.size - 1
      end
      else probe ((i + 1) land mask)
  in
  probe (t.hash k land mask)

let iter f t =
  Array.iter (function Bind (k, v) -> f k v | Empty | Tomb -> ()) t.slots

let fold f t init =
  Array.fold_left
    (fun acc -> function Bind (k, v) -> f k v acc | Empty | Tomb -> acc)
    init t.slots

let clear t =
  Array.fill t.slots 0 (Array.length t.slots) Empty;
  t.size <- 0;
  t.used <- 0
