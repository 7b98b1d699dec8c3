(* Cache of proved equivalences: one hash table keyed by the ordered pair
   of structural hashes under a single mutex.  The lock covers table
   bookkeeping only; proofs run outside it, so a slow SAT call on one
   domain never blocks a cached-proof hit on another.  An entry holds
   nothing but its recency: its presence is the cached verdict. *)

type entry = { mutable last_use : int }

type t = {
  lock : Mutex.t;
  tbl : (int * int, entry) Hashtbl.t;
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
    let arr = Array.make n (0, (0, 0)) in
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
  let hit =
    match Hashtbl.find_opt t.tbl key with
    | Some e ->
      e.last_use <- t.tick;
      t.hits <- t.hits + 1;
      true
    | None ->
      t.misses <- t.misses + 1;
      false
  in
  Mutex.unlock t.lock;
  hit

let insert t key =
  Mutex.lock t.lock;
  t.tick <- t.tick + 1;
  (* Two domains proving the same pair at once both insert; the second
     only refreshes the entry. *)
  Hashtbl.replace t.tbl key { last_use = t.tick };
  if Hashtbl.length t.tbl > t.capacity then evict_locked t;
  Mutex.unlock t.lock

(* Only [Equivalent] is stored.  Every prover must agree on it, but each
   finds its own counterexample (a session's SAT model, [Cec.check]'s
   simulation vector), so a cached vector would let whichever prover ran
   first decide what the other returns. *)
let check_with t a b prove =
  let key = (Network.structural_hash a, Network.structural_hash b) in
  if find t key then Cec.Equivalent
  else
    let o = prove () in
    if o = Cec.Equivalent then insert t key;
    o

let check t a b = check_with t a b (fun () -> Cec.check a b)
