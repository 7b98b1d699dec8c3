(* Content-addressed cache: one hash table of 63-bit keys -> artifact
   variants under a single mutex.  The lock covers table bookkeeping
   only; artifact computation happens outside it, so a slow BDD cone on
   one domain never blocks a cached-proof hit on another. *)

(* Same SplitMix64-style finisher as Network.structural_hash (constants
   truncated to OCaml's 63-bit int); kept local because keys mix
   repo-level ingredients (kind tags, floats, trace and DFG
   fingerprints) the network hash never sees. *)
let mix z =
  let z = (z * 0x1E3779B97F4A7C15) + 0x165667B19E3779F9 in
  let z = (z lxor (z lsr 29)) * 0x2545F4914F6CDD1D in
  let z = (z lxor (z lsr 31)) * 0x27D4EB2F165667C5 in
  (z lxor (z lsr 30)) land max_int

let combine h x = mix ((h * 0x100000001B3) lxor x)
let combine_float h f = combine h (Int64.to_int (Int64.bits_of_float f) land max_int)

type artifact =
  | A_cone of (string * float) array
  | A_equivalent
  | A_activity of float
  | A_annotation of Annotation.t

type entry = { value : artifact; mutable last_use : int }

type t = {
  lock : Mutex.t;
  tbl : (int, entry) Hashtbl.t;
  capacity : int;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = { hits : int; misses : int; evictions : int; entries : int }

let create ?(capacity = 4096) () =
  {
    lock = Mutex.create ();
    tbl = Hashtbl.create 256;
    capacity = max 1 capacity;
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let stats t =
  Mutex.lock t.lock;
  let s =
    { hits = t.hits; misses = t.misses; evictions = t.evictions;
      entries = Hashtbl.length t.tbl }
  in
  Mutex.unlock t.lock;
  s

(* Drop least-recently-used entries until 7/8 of capacity remain.  O(n
   log n) on overflow only — with the 1/8 hysteresis that cost is
   amortized over capacity/8 inserts. *)
let evict_locked t =
  let n = Hashtbl.length t.tbl in
  let target = max 1 (t.capacity * 7 / 8) in
  if n > target then begin
    let arr = Array.make n (0, 0) in
    let i = ref 0 in
    Hashtbl.iter
      (fun k e ->
        arr.(!i) <- (e.last_use, k);
        incr i)
      t.tbl;
    Array.sort compare arr;
    let drop = n - target in
    for j = 0 to drop - 1 do
      Hashtbl.remove t.tbl (snd arr.(j))
    done;
    t.evictions <- t.evictions + drop
  end

let find t key =
  Mutex.lock t.lock;
  t.tick <- t.tick + 1;
  let r =
    match Hashtbl.find_opt t.tbl key with
    | Some e ->
      e.last_use <- t.tick;
      t.hits <- t.hits + 1;
      Some e.value
    | None ->
      t.misses <- t.misses + 1;
      None
  in
  Mutex.unlock t.lock;
  r

let insert t key v =
  Mutex.lock t.lock;
  t.tick <- t.tick + 1;
  (* Last writer wins on a duplicated concurrent miss — sound because
     every cached computation is deterministic. *)
  Hashtbl.replace t.tbl key { value = v; last_use = t.tick };
  if Hashtbl.length t.tbl > t.capacity then evict_locked t;
  Mutex.unlock t.lock

let memoize t key compute =
  match find t key with
  | Some v -> v
  | None ->
    let v = compute () in
    insert t key v;
    v

(* Kind tags keep the artifact spaces disjoint even for identical
   ingredient hashes. *)
let k_cone = 2
and k_cec = 3
and k_activity = 4
and k_annotation = 5

let cone_probabilities t net ~input_probs =
  let num_inputs = List.length (Network.inputs net) in
  if Array.length input_probs <> num_inputs then
    invalid_arg "Memo.cone_probabilities: input_probs arity mismatch";
  let key =
    Array.fold_left combine_float
      (combine k_cone (Network.structural_hash net))
      input_probs
  in
  let compute () =
    (* One global build and one shared-memo sweep over every output,
       rather than a cone rebuild and a fresh memo per output. *)
    let man = Bdd.manager () in
    let bdds = Network.global_bdds net man in
    let outputs = Network.outputs net in
    let probs =
      Bdd.probabilities man (fun v -> input_probs.(v))
        (List.map (fun (_, o) -> Hashtbl.find bdds o) outputs)
    in
    A_cone (Array.of_list (List.map2 (fun (name, _) p -> (name, p)) outputs probs))
  in
  match memoize t key compute with A_cone a -> a | _ -> assert false

let dfg_activity t dfg ~fingerprint compute =
  let key =
    combine (combine k_activity (Dfg.structural_hash dfg)) fingerprint
  in
  match memoize t key (fun () -> A_activity (compute ())) with
  | A_activity a -> a
  | _ -> assert false

let activity t net ~trace =
  let key =
    combine
      (combine k_annotation (Network.structural_hash net))
      (Annotation.trace_fingerprint trace)
  in
  (* Annotations are immutable snapshots (caps included), so a hit is
     shared, not copied. *)
  match memoize t key (fun () -> A_annotation (Annotation.measure net ~trace)) with
  | A_annotation a -> a
  | _ -> assert false

let cec_key a b =
  combine
    (combine k_cec (Network.structural_hash a))
    (Network.structural_hash b)

(* Only [Equivalent] is stored under the pair key.  Every prover must
   agree on it, but each finds its own counterexample (a session's SAT
   model, [Cec.check]'s simulation vector), so a cached vector would let
   whichever prover ran first decide what the other returns. *)
let check_with t a b prove =
  let key = cec_key a b in
  match find t key with
  | Some A_equivalent -> Cec.Equivalent
  | Some _ -> assert false
  | None ->
    let o = prove () in
    if o = Cec.Equivalent then insert t key A_equivalent;
    o

let check t a b = check_with t a b (fun () -> Cec.check a b)
