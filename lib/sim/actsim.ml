(* Incremental measured-activity engine.  See actsim.mli for the contract;
   the invariants the implementation leans on:

   - Packing is exactly Bitsim.count_transitions's: consecutive blocks
     overlap by one lane (block b+1's lane 0 repeats block b's last cycle),
     so every cycle pair is an adjacent-lane pair inside one word and a
     node's count is the sum over blocks of
     popcount ((w lxor (w lsr 1)) land pair_mask).
   - Every word of every node is a deterministic function of the packed
     input words (garbage lanes included: input lanes past the trace end
     are 0, and the closures are pure), so whole-word equality is an exact
     propagation cutoff — if a popped node's words all come back equal,
     nothing downstream can have changed, and the incremental state is
     bit-identical to a full replay.
   - The worklist is a min-heap of topological positions with membership
     flags, so each node is re-evaluated at most once per update and only
     after all its dirty predecessors. *)

type stats = {
  updates : int;
  node_visits : int;
  word_evals : int;
}

type t = {
  net : Network.t;
  n : int;
  nins : int;
  nvecs : int;
  nblocks : int;
  ids : int array; (* index -> id, ascending (the Compiled convention) *)
  index : (Network.id, int) Hashtbl.t;
  is_input : bool array;
  in_words : int array array; (* block -> input position -> packed word *)
  pair_mask : int array; (* block -> adjacent-lane pair mask *)
  ones_mask : int array; (* block -> lanes counted once for ones totals *)
  planes : int array array; (* block -> value plane, length n *)
  counts : int array;
  fanins : int array array; (* per node, in fanin-position order *)
  fanouts : int array array; (* per node, distinct *)
  eval_fn : (int array -> int) array;
  mutable topo : int array;
  mutable pos : int array; (* index -> position in topo *)
  heap : Int_heap.t;
  in_heap : bool array;
  mutable s_updates : int;
  mutable s_visits : int;
  mutable s_words : int;
}

let network t = t.net
let size t = t.n
let num_inputs t = t.nins
let cycles t = t.nvecs
let ids t = Array.copy t.ids
let counts t = Array.copy t.counts
let iter t f = Array.iteri (fun i id -> f id t.counts.(i)) t.ids

let index_of t id =
  match Hashtbl.find_opt t.index id with
  | Some x -> x
  | None -> invalid_arg "Actsim: node id not in the snapshot"

let toggles t id = t.counts.(index_of t id)

let ones t id =
  let x = index_of t id in
  let acc = ref 0 in
  for b = 0 to t.nblocks - 1 do
    acc := !acc + Bitsim.popcount (t.planes.(b).(x) land t.ones_mask.(b))
  done;
  !acc

let switched_capacitance t =
  let acc = ref 0.0 in
  Array.iteri
    (fun i id ->
      acc := !acc +. (Network.cap t.net id *. float_of_int t.counts.(i)))
    t.ids;
  !acc /. float_of_int (max 1 (t.nvecs - 1))

(* Whole-network replay: re-evaluate every logic node's words in topo
   order for every block, then recount from scratch — creation's pass,
   whose results the incremental path must reproduce bit for bit. *)
let full_pass t =
  for b = 0 to t.nblocks - 1 do
    let plane = t.planes.(b) in
    for p = 0 to t.n - 1 do
      let x = Array.unsafe_get t.topo p in
      if not t.is_input.(x) then begin
        t.s_words <- t.s_words + 1;
        Array.unsafe_set plane x ((Array.unsafe_get t.eval_fn x) plane)
      end
    done
  done;
  for x = 0 to t.n - 1 do
    let c = ref 0 in
    for b = 0 to t.nblocks - 1 do
      let w = t.planes.(b).(x) in
      c := !c + Bitsim.popcount ((w lxor (w lsr 1)) land t.pair_mask.(b))
    done;
    t.counts.(x) <- !c
  done

let compile_node t id =
  let fi = Array.of_list (List.map (index_of t) (Network.fanins t.net id)) in
  (fi, Bitsim.compile_word fi (Network.func t.net id))

let create net ~trace =
  let vecs = Array.of_list trace in
  let nvecs = Array.length vecs in
  if nvecs = 0 then invalid_arg "Actsim.create: empty trace";
  let input_ids = Network.inputs net in
  let nins = List.length input_ids in
  if Array.length vecs.(0) <> nins then
    invalid_arg "Actsim.create: input arity mismatch";
  let ids = Array.of_list (Network.node_ids net) in (* ascending, inputs included *)
  let n = Array.length ids in
  let index = Hashtbl.create (2 * n) in
  Array.iteri (fun i id -> Hashtbl.replace index id i) ids;
  let is_input = Array.map (Network.is_input net) ids in
  (* Block layout: at least one block, each at most 63 lanes, consecutive
     blocks overlapping by one lane (Bitsim.count_transitions's scheme). *)
  let blocks =
    let rec go acc s =
      let len = min Bitsim.vectors_per_word (nvecs - s) in
      let acc = (s, len) :: acc in
      if s + len - 1 >= nvecs - 1 then List.rev acc else go acc (s + len - 1)
    in
    Array.of_list (go [] 0)
  in
  let nblocks = Array.length blocks in
  let in_words =
    Array.map
      (fun (s, len) ->
        Array.init nins (fun k ->
            let w = ref 0 in
            for l = 0 to len - 1 do
              if (Array.unsafe_get vecs (s + l)).(k) then w := !w lor (1 lsl l)
            done;
            !w))
      blocks
  in
  let pair_mask = Array.map (fun (_, len) -> Bitsim.lane_mask (len - 1)) blocks in
  let ones_mask =
    Array.mapi
      (fun b (_, len) ->
        (* The overlap lane (lane 0 of every block after the first) repeats
           a cycle already counted in the previous block. *)
        let m = Bitsim.lane_mask len in
        if b = 0 then m else m land lnot 1)
      blocks
  in
  let t =
    {
      net; n; nins; nvecs; nblocks; ids; index; is_input;
      in_words; pair_mask; ones_mask;
      planes = Array.init nblocks (fun _ -> Array.make n 0);
      counts = Array.make n 0;
      fanins = Array.make n [||];
      fanouts = Array.make n [||];
      eval_fn = Array.make n (fun _ -> 0);
      topo = [||]; pos = Array.make n (-1);
      heap = Int_heap.create ();
      in_heap = Array.make n false;
      s_updates = 0; s_visits = 0; s_words = 0;
    }
  in
  Array.iteri
    (fun i id ->
      if not is_input.(i) then begin
        let fi, f = compile_node t id in
        t.fanins.(i) <- fi;
        t.eval_fn.(i) <- f
      end)
    ids;
  Array.iteri
    (fun i _ ->
      let seen = Hashtbl.create 4 in
      Array.iter
        (fun f ->
          if not (Hashtbl.mem seen f) then begin
            Hashtbl.replace seen f ();
            t.fanouts.(f) <- Array.append t.fanouts.(f) [| i |]
          end)
        t.fanins.(i))
    ids;
  t.topo <- Array.of_list (List.map (index_of t) (Network.topo_order net));
  Array.iteri (fun p x -> t.pos.(x) <- p) t.topo;
  (* Input planes are written once; edits never touch primary inputs. *)
  List.iteri
    (fun k id ->
      let x = index_of t id in
      for b = 0 to nblocks - 1 do
        t.planes.(b).(x) <- in_words.(b).(k)
      done)
    input_ids;
  full_pass t;
  t

let push t x =
  if not t.in_heap.(x) then begin
    t.in_heap.(x) <- true;
    Int_heap.push t.heap t.pos.(x)
  end

let drain t =
  while not (Int_heap.is_empty t.heap) do
    let p = Int_heap.min_elt t.heap in
    Int_heap.remove_min t.heap;
    let x = t.topo.(p) in
    t.in_heap.(x) <- false;
    t.s_visits <- t.s_visits + 1;
    let f = t.eval_fn.(x) in
    let changed = ref false in
    let cnt = ref t.counts.(x) in
    for b = 0 to t.nblocks - 1 do
      let plane = t.planes.(b) in
      let old_w = Array.unsafe_get plane x in
      let new_w = f plane in
      t.s_words <- t.s_words + 1;
      if new_w <> old_w then begin
        changed := true;
        let pm = t.pair_mask.(b) in
        cnt :=
          !cnt
          - Bitsim.popcount ((old_w lxor (old_w lsr 1)) land pm)
          + Bitsim.popcount ((new_w lxor (new_w lsr 1)) land pm);
        Array.unsafe_set plane x new_w
      end
    done;
    t.counts.(x) <- !cnt;
    if !changed then Array.iter (fun j -> push t j) t.fanouts.(x)
  done

(* Restore topological order from the network after a rewiring made the
   cached order stale.  The node set must be unchanged since create. *)
let refresh_topo t =
  let order = Network.topo_order t.net in
  if List.length order <> t.n then
    invalid_arg "Actsim.update: network node set changed since create";
  t.topo <- Array.of_list (List.map (index_of t) order);
  Array.iteri (fun p x -> t.pos.(x) <- p) t.topo

let update t id =
  let x = index_of t id in
  if t.is_input.(x) then invalid_arg "Actsim.update: primary input";
  t.s_updates <- t.s_updates + 1;
  let old_fi = t.fanins.(x) in
  let fi, f = compile_node t id in
  t.fanins.(x) <- fi;
  t.eval_fn.(x) <- f;
  (* Rewire the distinct-fanout mirror for fanins that left or joined. *)
  let member a v = Array.exists (fun y -> y = v) a in
  Array.iter
    (fun g ->
      if not (member fi g) then
        t.fanouts.(g) <- Array.of_list
            (List.filter (fun y -> y <> x) (Array.to_list t.fanouts.(g))))
    old_fi;
  Array.iter
    (fun g ->
      if (not (member old_fi g)) && not (member t.fanouts.(g) x) then
        t.fanouts.(g) <- Array.append t.fanouts.(g) [| x |])
    fi;
  if Array.exists (fun g -> t.pos.(g) > t.pos.(x)) fi then refresh_topo t;
  push t x;
  drain t

let stats t =
  {
    updates = t.s_updates;
    node_visits = t.s_visits;
    word_evals = t.s_words;
  }
