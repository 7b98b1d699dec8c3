(* Incremental static timing over flat float arrays.  See sta.mli for
   the contract; the invariants the implementation leans on:

   - Worklists are binary min-heaps of topo positions (forward) or
     reversed topo positions (backward), so nodes are recomputed in
     dependency order and each is visited at most once per update: by
     the time a position pops, every pending predecessor (forward) /
     successor (backward) with a smaller key has already been
     processed, and new pushes only ever target larger keys.
   - A node's value is refolded from scratch over its full fan-in /
     fan-out using the same fold the whole-array pass performs, so an
     incremental update reproduces bit-identical floats — which is what
     lets the differential tests compare with [=] and lets the early
     cutoff ([new value <> old value]) be exact rather than
     epsilon-based.
   - Requireds depend only on delays, topology and the sink limit —
     never on arrivals — so a delay change at [x] seeds the backward
     worklist with [fanins x] (a node's own required excludes its own
     delay) while the forward worklist is seeded with [x] itself. *)

type graph = {
  size : int;
  topo : int array;
  fanins : int array array;
  fanouts : int array array;
  is_source : bool array;
  sinks : int array;
}

type stats = {
  full_passes : int;
  updates : int;
  arrival_visits : int;
  required_visits : int;
}

(* Minimal binary min-heap of ints; lp_logic sits below lp_sim so the
   event queue's Int_heap is out of reach, and this is ~30 lines. *)
module Heap = struct
  type h = { mutable a : int array; mutable n : int }

  let make () = { a = Array.make 64 0; n = 0 }
  let is_empty h = h.n = 0

  let push h k =
    if h.n = Array.length h.a then begin
      let b = Array.make (2 * h.n) 0 in
      Array.blit h.a 0 b 0 h.n;
      h.a <- b
    end;
    h.a.(h.n) <- k;
    let i = ref h.n in
    h.n <- h.n + 1;
    let sifting = ref true in
    while !sifting && !i > 0 do
      let p = (!i - 1) / 2 in
      if h.a.(p) > h.a.(!i) then begin
        let tmp = h.a.(p) in
        h.a.(p) <- h.a.(!i);
        h.a.(!i) <- tmp;
        i := p
      end
      else sifting := false
    done

  let pop h =
    let top = h.a.(0) in
    h.n <- h.n - 1;
    h.a.(0) <- h.a.(h.n);
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let s = ref !i in
      if l < h.n && h.a.(l) < h.a.(!s) then s := l;
      if r < h.n && h.a.(r) < h.a.(!s) then s := r;
      if !s <> !i then begin
        let tmp = h.a.(!s) in
        h.a.(!s) <- h.a.(!i);
        h.a.(!i) <- tmp;
        i := !s
      end
      else sifting := false
    done;
    top
end

type t = {
  g : graph;
  mutable required : float;
  delays : float array;
  at : float array;
  rt : float array;
  mutable rt_valid : bool;
  topo_pos : int array; (* node -> position in g.topo; -1 if not live *)
  is_sink : bool array;
  fwd : Heap.h; (* pending arrival recomputes, keyed by topo position *)
  bwd : Heap.h; (* pending required recomputes, keyed by reversed position *)
  in_fwd : bool array;
  in_bwd : bool array;
  mutable s_full_passes : int;
  mutable s_updates : int;
  mutable s_arrival_visits : int;
  mutable s_required_visits : int;
}

let required_limit t = t.required

let set_required_limit t r =
  t.required <- r;
  t.rt_valid <- false

let delay t i = t.delays.(i)

(* The local refolds: must perform exactly the fold the full passes do. *)

let arrival_of t x =
  if t.g.is_source.(x) then 0.0
  else begin
    let latest = ref 0.0 in
    let fs = t.g.fanins.(x) in
    for k = 0 to Array.length fs - 1 do
      let a = t.at.(fs.(k)) in
      if a > !latest then latest := a
    done;
    !latest +. t.delays.(x)
  end

let required_of t x =
  let r = ref infinity in
  let fo = t.g.fanouts.(x) in
  for k = 0 to Array.length fo - 1 do
    let j = fo.(k) in
    let v = t.rt.(j) -. t.delays.(j) in
    if v < !r then r := v
  done;
  if t.is_sink.(x) && t.required < !r then r := t.required;
  !r

let full_arrival t =
  let n = Array.length t.g.topo in
  for p = 0 to n - 1 do
    let x = t.g.topo.(p) in
    t.at.(x) <- arrival_of t x
  done

let full_required t =
  Array.fill t.rt 0 (Array.length t.rt) infinity;
  for p = Array.length t.g.topo - 1 downto 0 do
    let x = t.g.topo.(p) in
    t.rt.(x) <- required_of t x
  done

let ensure_rt t =
  if not t.rt_valid then begin
    t.s_full_passes <- t.s_full_passes + 1;
    full_required t;
    t.rt_valid <- true
  end

(* Worklist machinery. *)

let push_fwd t x =
  if t.topo_pos.(x) >= 0 && not t.in_fwd.(x) then begin
    t.in_fwd.(x) <- true;
    Heap.push t.fwd t.topo_pos.(x)
  end

let push_bwd t x =
  if t.topo_pos.(x) >= 0 && not t.in_bwd.(x) then begin
    t.in_bwd.(x) <- true;
    Heap.push t.bwd (Array.length t.g.topo - 1 - t.topo_pos.(x))
  end

let drain_fwd t =
  while not (Heap.is_empty t.fwd) do
    let x = t.g.topo.(Heap.pop t.fwd) in
    t.in_fwd.(x) <- false;
    t.s_arrival_visits <- t.s_arrival_visits + 1;
    let a = arrival_of t x in
    if a <> t.at.(x) then begin
      t.at.(x) <- a;
      let fo = t.g.fanouts.(x) in
      for k = 0 to Array.length fo - 1 do
        push_fwd t fo.(k)
      done
    end
  done

let drain_bwd t =
  let n = Array.length t.g.topo in
  while not (Heap.is_empty t.bwd) do
    let x = t.g.topo.(n - 1 - Heap.pop t.bwd) in
    t.in_bwd.(x) <- false;
    t.s_required_visits <- t.s_required_visits + 1;
    let r = required_of t x in
    if r <> t.rt.(x) then begin
      t.rt.(x) <- r;
      let fs = t.g.fanins.(x) in
      for k = 0 to Array.length fs - 1 do
        push_bwd t fs.(k)
      done
    end
  done

let critical_delay t =
  let d = ref 0.0 in
  Array.iter
    (fun s ->
      let a = t.at.(s) in
      if a > !d then d := a)
    t.g.sinks;
  !d

let worst_slack t =
  let w = ref infinity in
  Array.iter
    (fun s ->
      let sl = t.required -. t.at.(s) in
      if sl < !w then w := sl)
    t.g.sinks;
  !w

let create ?required g delays =
  if Array.length delays <> g.size then
    invalid_arg "Sta.create: delays length does not match graph size";
  let topo_pos = Array.make g.size (-1) in
  Array.iteri (fun p x -> topo_pos.(x) <- p) g.topo;
  let is_sink = Array.make g.size false in
  Array.iter (fun s -> is_sink.(s) <- true) g.sinks;
  let t =
    { g;
      required = 0.0 (* placeholder; set below *);
      delays = Array.copy delays;
      at = Array.make g.size 0.0;
      rt = Array.make g.size infinity;
      rt_valid = false; topo_pos; is_sink;
      fwd = Heap.make (); bwd = Heap.make ();
      in_fwd = Array.make g.size false;
      in_bwd = Array.make g.size false;
      s_full_passes = 1; s_updates = 0;
      s_arrival_visits = 0; s_required_visits = 0 }
  in
  full_arrival t;
  t.required <- (match required with Some r -> r | None -> critical_delay t);
  t

let set_delay t i d =
  if i < 0 || i >= t.g.size || t.topo_pos.(i) < 0 then
    invalid_arg "Sta.set_delay: not a live node of the timing graph";
  if d <> t.delays.(i) then begin
    t.delays.(i) <- d;
    t.s_updates <- t.s_updates + 1;
    push_fwd t i;
    drain_fwd t;
    if t.rt_valid then begin
      let fs = t.g.fanins.(i) in
      for k = 0 to Array.length fs - 1 do
        push_bwd t fs.(k)
      done;
      drain_bwd t
    end
  end

let arrival_array t = t.at

let required_array t =
  ensure_rt t;
  t.rt

let slack_array t =
  ensure_rt t;
  Array.init t.g.size (fun i -> t.rt.(i) -. t.at.(i))

let arrival t i = t.at.(i)

let required t i =
  ensure_rt t;
  t.rt.(i)

let slack t i =
  ensure_rt t;
  t.rt.(i) -. t.at.(i)

let stats t =
  { full_passes = t.s_full_passes; updates = t.s_updates;
    arrival_visits = t.s_arrival_visits;
    required_visits = t.s_required_visits }
