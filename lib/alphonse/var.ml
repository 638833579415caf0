type 'a t = {
  eng : Engine.t;
  vname : string;
  equal : 'a -> 'a -> bool;
  mutable contents : 'a;
  mutable vnode : Engine.node option;
}

let counter = ref 0

let create eng ?name ?(equal = Htbl.poly_equal) v =
  incr counter;
  let vname =
    match name with Some n -> n | None -> "var#" ^ string_of_int !counter
  in
  { eng; vname; equal; contents = v; vnode = None }

(* Algorithm 3: the dependency node appears on the first access made under
   an executing incremental procedure. *)
let ensure_node t =
  match t.vnode with
  | Some n -> n
  | None ->
    let n = Engine.new_storage t.eng ~name:t.vname in
    t.vnode <- Some n;
    n

let get t =
  (* Quick regime: no instance executing, so nothing to record — the read
     is just the load (§6.1's ~1x promise for the mutator). *)
  if Engine.quick t.eng then t.contents
  else begin
    if Engine.recording t.eng then Engine.record_read t.eng (ensure_node t);
    t.contents
  end

let slow_set t v =
  (* Algorithm 4 opens with access(l): the write itself is a dependency of
     the executing procedure, which must re-run if the location is later
     clobbered by someone else. *)
  let node =
    if Engine.recording t.eng then Some (ensure_node t) else t.vnode
  in
  (* an open transaction must be able to restore the cell on rollback *)
  (if Engine.in_transaction t.eng then
     let old = t.contents in
     Engine.txn_log t.eng (fun () -> t.contents <- old));
  match node with
  | None -> t.contents <- v (* untracked: no Alphonse overhead, §6.1 *)
  | Some n ->
    let changed = not (t.equal t.contents v) in
    t.contents <- v;
    Engine.record_write t.eng n ~changed

let set t v =
  match t.vnode with
  | Some n when Engine.quick t.eng ->
    (* Quick regime: nothing executes, and no transaction or journal is
       open, so the write records, logs and journals nothing. It marks
       the node, walking its dependents, only when it changes the value
       of a node not marked since its last tracked read; otherwise it
       is the store (the E6 tracked-mutator fast path, and E10's
       equal-value write). *)
    if Engine.quick_write_ok t.eng n || t.equal t.contents v then
      t.contents <- v
    else begin
      t.contents <- v;
      Engine.record_write t.eng n ~changed:true
    end
  (* Quick regime + no node: nothing is recording and no transaction is
     open, so [slow_set] would do just the store. *)
  | None when Engine.quick t.eng -> t.contents <- v
  | _ -> slow_set t v

let update t f = set t (f (get t))
let name t = t.vname
let id t = Option.map Engine.node_id t.vnode
let is_tracked t = t.vnode <> None
let node t = t.vnode
let engine t = t.eng
