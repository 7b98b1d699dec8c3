(* Complement-edge ROBDD engine.

   Nodes live in struct-of-arrays int storage inside the manager; a BDD
   edge is a single immediate int [node_index * 2 + complement_bit], so
   negation is one XOR and no negated subgraph is ever materialized.  The
   unique table is open-addressing with linear probing over an int array;
   the computed table is a direct-mapped array of packed int slots (op,
   three operands, result) — neither allocates on lookup.  Every binary
   operation routes through the single memoized [ite] kernel with
   standard-triple normalization.  Canonical form: the THEN edge of every
   stored node is regular (never complemented), which makes structural
   equality of functions equality of edge ints.

   Variable order is a manager-level permutation (variable [v] sits at
   level [level_of_var.(v)]); [reorder] runs Rudell sifting in a scratch
   workspace and rebuilds the store under the best order found.

   The store has no garbage collector; [mark]/[release] reclaim it as a
   stack instead.  Children are always stored before their parents, so
   truncating the store to a mark keeps every node below it whole.  Each
   handle records the epoch in which it was made, and once a manager has
   been marked each node slot records the epoch in which it was filled; a
   release bumps the epoch, so a handle to a released node is caught when
   it is next used (its slot is past the store, or was refilled in a
   later epoch).  Managers that are never marked keep no such record.

   The previous Hashtbl-of-tuples engine survives verbatim as
   [Bdd_reference], the differential-testing oracle. *)

type stats = {
  live_nodes : int;
  peak_nodes : int;
  cache_hits : int;
  cache_misses : int;
  unique_slots : int;
  cache_slots : int;
}

type man = {
  (* Node store; index 0 is the single terminal (the constant 1 seen
     through a regular edge, 0 through a complemented one). *)
  mutable nlvl : int array;
  mutable nlo : int array;
  mutable nhi : int array; (* always regular *)
  (* Epoch in which each slot was filled; empty until the first mark. *)
  mutable nbirth : int array;
  mutable n_nodes : int;
  mutable peak : int;
  (* Unique table: open addressing, linear probing; 0 marks an empty
     slot (the terminal is never stored). *)
  mutable utab : int array;
  mutable umask : int;
  mutable uocc : int;
  (* Computed table: direct-mapped, 5 ints per slot
     (op + ctag, a, b, c, result); lossy on collision.  Clearing bumps
     [ctag] (a multiple of 8, above every op code), so older entries stop
     matching without a pass over the table. *)
  mutable cache : int array;
  mutable cmask : int; (* slot count - 1 *)
  mutable ctag : int;
  mutable chits : int;
  mutable cmisses : int;
  (* Variable order: a bijection between variables and levels. *)
  mutable var_at_level : int array;
  mutable level_of_var : int array;
  mutable nvars : int;
  (* Bumped by every release that frees nodes and every store rebuild. *)
  mutable epoch : int;
  mutable reorders : int; (* marks from before a reorder are rejected *)
}

type t = { man : man; e : int; ep : int (* epoch when wrapped *) }

type mark = { mman : man; mnodes : int; mepoch : int; mreorders : int }

let e_true = 0
let e_false = 1

(* ---------- manager ---------- *)

let initial_nodes = 1024
let initial_uslots = 4096
let initial_cslots = 4096

let fresh_cache slots = Array.make (slots * 5) (-1)

let manager_raw () =
  let m =
    {
      nlvl = Array.make initial_nodes 0;
      nlo = Array.make initial_nodes 0;
      nhi = Array.make initial_nodes 0;
      nbirth = [||];
      n_nodes = 1;
      peak = 0;
      utab = Array.make initial_uslots 0;
      umask = initial_uslots - 1;
      uocc = 0;
      cache = fresh_cache initial_cslots;
      cmask = initial_cslots - 1;
      ctag = 0;
      chits = 0;
      cmisses = 0;
      var_at_level = [||];
      level_of_var = [||];
      nvars = 0;
      epoch = 0;
      reorders = 0;
    }
  in
  m.nlvl.(0) <- max_int;
  m

let node_count m = m.uocc
let peak_node_count m = m.peak

let stats m =
  {
    live_nodes = m.uocc;
    peak_nodes = m.peak;
    cache_hits = m.chits;
    cache_misses = m.cmisses;
    unique_slots = m.umask + 1;
    cache_slots = m.cmask + 1;
  }

let clear_caches m = m.ctag <- m.ctag + 8

let set_order m order =
  if m.n_nodes > 1 then
    invalid_arg "Bdd.set_order: manager already holds nodes";
  let n = Array.length order in
  let seen = Array.make n false in
  Array.iter
    (fun v ->
      if v < 0 || v >= n || seen.(v) then
        invalid_arg "Bdd.set_order: not a permutation of 0..n-1";
      seen.(v) <- true)
    order;
  m.var_at_level <- Array.copy order;
  m.level_of_var <- Array.make n 0;
  Array.iteri (fun l v -> m.level_of_var.(v) <- l) order;
  m.nvars <- n

let manager ?order () =
  let m = manager_raw () in
  (match order with Some o -> set_order m o | None -> ());
  m

let order m = Array.sub m.var_at_level 0 m.nvars
let num_vars m = m.nvars

(* Unknown variables are appended below every existing level, in index
   order, so managers without an explicit order use the natural one. *)
let ensure_var m i =
  if i < 0 then invalid_arg "Bdd: negative variable index";
  if i >= m.nvars then begin
    let cap = Array.length m.var_at_level in
    if i >= cap then begin
      let cap' = max (i + 1) (max 16 (cap * 2)) in
      let vat = Array.make cap' 0 and lov = Array.make cap' 0 in
      Array.blit m.var_at_level 0 vat 0 m.nvars;
      Array.blit m.level_of_var 0 lov 0 m.nvars;
      m.var_at_level <- vat;
      m.level_of_var <- lov
    end;
    for v = m.nvars to i do
      m.var_at_level.(v) <- v;
      m.level_of_var.(v) <- v
    done;
    m.nvars <- i + 1
  end

(* ---------- node store + unique table ---------- *)

let hash3 a b c =
  ((a * 0x9e3779b1) lxor (b * 0x85ebca77) lxor (c * 0xc2b2ae3d)) land max_int

let grow_nodes m =
  let cap = Array.length m.nlvl in
  let cap' = cap * 2 in
  let g a = let a' = Array.make cap' 0 in Array.blit a 0 a' 0 cap; a' in
  m.nlvl <- g m.nlvl;
  m.nlo <- g m.nlo;
  m.nhi <- g m.nhi;
  if Array.length m.nbirth > 0 then m.nbirth <- g m.nbirth;
  m.nlvl.(0) <- max_int

let rehash_unique m =
  let slots = (m.umask + 1) * 2 in
  let utab = Array.make slots 0 in
  let mask = slots - 1 in
  for n = 1 to m.n_nodes - 1 do
    let h = ref (hash3 m.nlvl.(n) m.nlo.(n) m.nhi.(n) land mask) in
    while utab.(!h) <> 0 do h := (!h + 1) land mask done;
    utab.(!h) <- n
  done;
  m.utab <- utab;
  m.umask <- mask;
  (* Keep the computed table roughly as large as the unique table; the
     old (now lossy-stale-free but small) contents are dropped. *)
  if m.cmask < mask then begin
    m.cache <- fresh_cache slots;
    m.cmask <- mask
  end

(* Find-or-create the node (v, lo, hi); [hi] must be regular and
   [lo <> hi]. *)
let mk_raw m v lo hi =
  let h = ref (hash3 v lo hi land m.umask) in
  let res = ref (-1) in
  while !res < 0 do
    let n = m.utab.(!h) in
    if n = 0 then begin
      if m.n_nodes >= Array.length m.nlvl then grow_nodes m;
      let n = m.n_nodes in
      m.n_nodes <- n + 1;
      m.nlvl.(n) <- v;
      m.nlo.(n) <- lo;
      m.nhi.(n) <- hi;
      if Array.length m.nbirth > 0 then m.nbirth.(n) <- m.epoch;
      m.utab.(!h) <- n;
      m.uocc <- m.uocc + 1;
      if m.uocc > m.peak then m.peak <- m.uocc;
      if m.uocc * 4 > (m.umask + 1) * 3 then rehash_unique m;
      res := n
    end
    else if m.nlvl.(n) = v && m.nlo.(n) = lo && m.nhi.(n) = hi then res := n
    else h := (!h + 1) land m.umask
  done;
  !res * 2

(* Reduction + complement canonicalization: the THEN edge stays regular. *)
let mk m v lo hi =
  if lo = hi then lo
  else if hi land 1 = 1 then mk_raw m v (lo lxor 1) (hi lxor 1) lxor 1
  else mk_raw m v lo hi

let top m e = m.nlvl.(e lsr 1)

(* Remove node [n], the newest node in the store, from the unique table.
   Under linear probing a node's probe path crosses only slots filled
   before it (insertion, rehash and this deletion all keep that true), so
   no remaining node's path crosses [n]'s slot: clearing the slot is the
   whole deletion (a backward shift would never move an entry), with no
   tombstone and no rehash. *)
let unique_delete m n =
  let h = ref (hash3 m.nlvl.(n) m.nlo.(n) m.nhi.(n) land m.umask) in
  while m.utab.(!h) <> n do h := (!h + 1) land m.umask done;
  m.utab.(!h) <- 0;
  m.uocc <- m.uocc - 1

(* ---------- computed table ---------- *)

let op_ite = 0
let op_exists = 1
let op_restrict = 3
let op_compose = 4

let cache_find m op a b c =
  let base = (hash3 (a lxor (op * 0x27d4eb2f)) b c land m.cmask) * 5 in
  let cache = m.cache in
  if
    cache.(base) = op + m.ctag
    && cache.(base + 1) = a
    && cache.(base + 2) = b
    && cache.(base + 3) = c
  then begin
    m.chits <- m.chits + 1;
    cache.(base + 4)
  end
  else begin
    m.cmisses <- m.cmisses + 1;
    -1
  end

let cache_store m op a b c r =
  let base = (hash3 (a lxor (op * 0x27d4eb2f)) b c land m.cmask) * 5 in
  let cache = m.cache in
  cache.(base) <- op + m.ctag;
  cache.(base + 1) <- a;
  cache.(base + 2) <- b;
  cache.(base + 3) <- c;
  cache.(base + 4) <- r

(* ---------- the ite kernel ---------- *)

let rec ite_int m f g h =
  if g = h then g
  else if f = e_true then g
  else if f = e_false then h
  else begin
    let g = if g = f then e_true else if g = f lxor 1 then e_false else g in
    let h = if h = f then e_false else if h = f lxor 1 then e_true else h in
    if g = h then g
    else if g = e_true && h = e_false then f
    else if g = e_false && h = e_true then f lxor 1
    else begin
      (* Standard-triple swaps: put the smaller operand first in the
         commutative forms so equivalent calls share one cache slot. *)
      let f, g, h =
        if g = e_true then
          if h lsr 1 < f lsr 1 then (h, e_true, f) else (f, g, h)
        else if h = e_false then
          if g lsr 1 < f lsr 1 then (g, f, e_false) else (f, g, h)
        else if g = e_false then
          if h lsr 1 < f lsr 1 then (h lxor 1, e_false, f lxor 1)
          else (f, g, h)
        else if h = e_true then
          if g lsr 1 < f lsr 1 then (g lxor 1, f lxor 1, e_true)
          else (f, g, h)
        else if g = h lxor 1 then
          if g lsr 1 < f lsr 1 then (g, f, f lxor 1) else (f, g, h)
        else (f, g, h)
      in
      (* First argument regular ... *)
      let f, g, h = if f land 1 = 1 then (f lxor 1, h, g) else (f, g, h) in
      (* ... then THEN-argument regular, complementing the result. *)
      let neg = g land 1 = 1 in
      let g = if neg then g lxor 1 else g in
      let h = if neg then h lxor 1 else h in
      let r = cache_find m op_ite f g h in
      let r =
        if r >= 0 then r
        else begin
          let v = min (top m f) (min (top m g) (top m h)) in
          let nf = f lsr 1 and ng = g lsr 1 and nh = h lsr 1 in
          let cf = f land 1 and cg = g land 1 and ch = h land 1 in
          let fv = m.nlvl.(nf) = v and gv = m.nlvl.(ng) = v
          and hv = m.nlvl.(nh) = v in
          let f0 = if fv then m.nlo.(nf) lxor cf else f in
          let f1 = if fv then m.nhi.(nf) lxor cf else f in
          let g0 = if gv then m.nlo.(ng) lxor cg else g in
          let g1 = if gv then m.nhi.(ng) lxor cg else g in
          let h0 = if hv then m.nlo.(nh) lxor ch else h in
          let h1 = if hv then m.nhi.(nh) lxor ch else h in
          let r1 = ite_int m f1 g1 h1 in
          let r0 = ite_int m f0 g0 h0 in
          let r = mk m v r0 r1 in
          cache_store m op_ite f g h r;
          r
        end
      in
      if neg then r lxor 1 else r
    end
  end

let and_int m f g = ite_int m f g e_false
let or_int m f g = ite_int m f e_true g
let xor_int m f g = ite_int m f (g lxor 1) g

(* ---------- public construction ---------- *)

(* A handle made in the current epoch is live, and so is the terminal;
   any other is live while its node slot is still in the store and was
   filled no later than the handle was made.  Without slot epochs the
   epoch can only have moved by a reorder that rebuilt the store. *)
let live f =
  let m = f.man in
  f.ep = m.epoch
  ||
  let n = f.e lsr 1 in
  n = 0
  || (n < m.n_nodes && n < Array.length m.nbirth && m.nbirth.(n) <= f.ep)

let check f = if not (live f) then invalid_arg "Bdd: node was released"

let own m f =
  if f.man != m then invalid_arg "Bdd: node belongs to another manager";
  check f;
  f.e

let wrap m e = { man = m; e; ep = m.epoch }

(* ---------- mark / release ---------- *)

let mark m =
  if Array.length m.nbirth = 0 then
    m.nbirth <- Array.make (Array.length m.nlvl) m.epoch;
  { mman = m; mnodes = m.n_nodes; mepoch = m.epoch; mreorders = m.reorders }

let release m mk =
  if mk.mman != m then invalid_arg "Bdd.release: mark from another manager";
  if mk.mreorders <> m.reorders then
    invalid_arg "Bdd.release: manager reordered since the mark";
  let lim = mk.mnodes in
  (* The last slot below the mark refilled after the mark was taken means
     an earlier release went below it. *)
  if lim > m.n_nodes || m.nbirth.(lim - 1) > mk.mepoch then
    invalid_arg "Bdd.release: store already released below the mark";
  if m.n_nodes > lim then begin
    (* Newest first, so each deleted node is the newest one left. *)
    for n = m.n_nodes - 1 downto lim do
      unique_delete m n
    done;
    m.n_nodes <- lim;
    m.epoch <- m.epoch + 1;
    clear_caches m
  end

let tru m = wrap m e_true
let fls m = wrap m e_false

let var_int m i =
  ensure_var m i;
  mk m m.level_of_var.(i) e_false e_true

let var m i = wrap m (var_int m i)
let nvar m i = wrap m (var_int m i lxor 1)

let not_ m f = wrap m (own m f lxor 1)
let and_ m f g = wrap m (and_int m (own m f) (own m g))
let or_ m f g = wrap m (or_int m (own m f) (own m g))
let xor m f g = wrap m (xor_int m (own m f) (own m g))
let xnor m f g = wrap m (xor_int m (own m f) (own m g) lxor 1)
let ite m c t e = wrap m (ite_int m (own m c) (own m t) (own m e))

let and_list m fs =
  wrap m (List.fold_left (fun acc f -> and_int m acc (own m f)) e_true fs)

let or_list m fs =
  wrap m (List.fold_left (fun acc f -> or_int m acc (own m f)) e_false fs)

let rec of_expr_int m = function
  | Expr.Const b -> if b then e_true else e_false
  | Expr.Var i -> var_int m i
  | Expr.Not e -> of_expr_int m e lxor 1
  | Expr.And es ->
    List.fold_left (fun acc e -> and_int m acc (of_expr_int m e)) e_true es
  | Expr.Or es ->
    List.fold_left (fun acc e -> or_int m acc (of_expr_int m e)) e_false es
  | Expr.Xor (a, b) -> xor_int m (of_expr_int m a) (of_expr_int m b)

let of_expr m e = wrap m (of_expr_int m e)

(* ---------- inspection ---------- *)

let equal a b = a.man == b.man && a.e = b.e
let is_true f = f.e = e_true
let is_false f = f.e = e_false
let is_const f = f.e lsr 1 = 0

let var_of m n = m.var_at_level.(m.nlvl.(n))

let eval f env =
  check f;
  let m = f.man in
  let rec go e =
    let n = e lsr 1 in
    if n = 0 then e land 1 = 0
    else
      let child = if env (var_of m n) then m.nhi.(n) else m.nlo.(n) in
      go (child lxor (e land 1))
  in
  go f.e

(* Iterate every node index reachable from [e], each once. *)
let iter_nodes m e k =
  let seen = Hashtbl.create 64 in
  let rec go e =
    let n = e lsr 1 in
    if n <> 0 && not (Hashtbl.mem seen n) then begin
      Hashtbl.add seen n ();
      k n;
      go m.nlo.(n);
      go m.nhi.(n)
    end
  in
  go e

let support f =
  check f;
  let m = f.man in
  let module IS = Set.Make (Int) in
  let acc = ref IS.empty in
  iter_nodes m f.e (fun n -> acc := IS.add (var_of m n) !acc);
  IS.elements !acc

let size f =
  check f;
  let c = ref 0 in
  iter_nodes f.man f.e (fun _ -> incr c);
  !c

let shared_size m es =
  let seen = Hashtbl.create 64 in
  let rec go e =
    let n = e lsr 1 in
    if n <> 0 && not (Hashtbl.mem seen n) then begin
      Hashtbl.add seen n ();
      go m.nlo.(n);
      go m.nhi.(n)
    end
  in
  List.iter go es;
  Hashtbl.length seen

let any_sat f =
  check f;
  let m = f.man in
  (* Every nonterminal node is non-constant, so at most one branch probe
     fails per node and the search is linear in the path length. *)
  let rec go e =
    let n = e lsr 1 and c = e land 1 in
    if n = 0 then if c = 0 then Some [] else None
    else
      let v = var_of m n in
      match go (m.nhi.(n) lxor c) with
      | Some p -> Some ((v, true) :: p)
      | None ->
        (match go (m.nlo.(n) lxor c) with
        | Some p -> Some ((v, false) :: p)
        | None -> None)
  in
  go f.e

(* ---------- cofactor / substitution ---------- *)

(* [restrict] and [compose] commute with complement, so they memoize on
   the regular edge and re-apply the sign bit afterwards. *)
let restrict_int m f v b =
  ensure_var m v;
  let lv = m.level_of_var.(v) in
  let key = (v * 2) + if b then 1 else 0 in
  let rec go e =
    let c = e land 1 in
    let re = e lxor c in
    if top m re > lv then e
    else if top m re = lv then
      let n = re lsr 1 in
      (if b then m.nhi.(n) else m.nlo.(n)) lxor c
    else begin
      let r = cache_find m op_restrict re key 0 in
      let r =
        if r >= 0 then r
        else begin
          let n = re lsr 1 in
          let r = mk m m.nlvl.(n) (go m.nlo.(n)) (go m.nhi.(n)) in
          cache_store m op_restrict re key 0 r;
          r
        end
      in
      r lxor c
    end
  in
  go f

let restrict m f v b = wrap m (restrict_int m (own m f) v b)

let compose m f v g =
  let fe = own m f and ge = own m g in
  ensure_var m v;
  let lv = m.level_of_var.(v) in
  let rec go e =
    let c = e land 1 in
    let re = e lxor c in
    if top m re > lv then e
    else begin
      let r = cache_find m op_compose re ge v in
      let r =
        if r >= 0 then r
        else begin
          let n = re lsr 1 in
          let r =
            if m.nlvl.(n) = lv then ite_int m ge m.nhi.(n) m.nlo.(n)
            else begin
              let r0 = go m.nlo.(n) and r1 = go m.nhi.(n) in
              (* Substitution below may disturb the order locally; rebuild
                 through ite to restore canonicity. *)
              let vedge = mk m m.nlvl.(n) e_false e_true in
              ite_int m vedge r1 r0
            end
          in
          cache_store m op_compose re ge v r;
          r
        end
      in
      r lxor c
    end
  in
  wrap m (go fe)

(* ---------- quantification ---------- *)

(* A variable set is represented as the positive cube of its members:
   regular edges all the way down, so the cube is its own cache key. *)
let cube_of_vars m vs =
  let module IS = Set.Make (Int) in
  let vs = IS.elements (IS.of_list vs) in
  List.iter (ensure_var m) vs;
  let lvls = List.sort compare (List.map (fun v -> m.level_of_var.(v)) vs) in
  List.fold_left (fun acc lv -> mk m lv e_false acc) e_true (List.rev lvls)

(* Advance the cube past quantified variables that sit above [lvl]: they
   cannot occur in a function whose top level is [lvl]. *)
let rec cube_above m cube lvl =
  if cube <> e_true && top m cube < lvl then
    cube_above m m.nhi.(cube lsr 1) lvl
  else cube

let rec exists_int m f cube =
  if f lsr 1 = 0 || cube = e_true then f
  else begin
    let lf = top m f in
    let cube = cube_above m cube lf in
    if cube = e_true then f
    else begin
      let r = cache_find m op_exists f cube 0 in
      if r >= 0 then r
      else begin
        let n = f lsr 1 and c = f land 1 in
        let f0 = m.nlo.(n) lxor c and f1 = m.nhi.(n) lxor c in
        let r =
          if top m cube = lf then begin
            let cube' = m.nhi.(cube lsr 1) in
            let r1 = exists_int m f1 cube' in
            if r1 = e_true then e_true
            else or_int m r1 (exists_int m f0 cube')
          end
          else mk m lf (exists_int m f0 cube) (exists_int m f1 cube)
        in
        cache_store m op_exists f cube 0 r;
        r
      end
    end
  end

let exists m vs f = wrap m (exists_int m (own m f) (cube_of_vars m vs))

let forall m vs f =
  wrap m (exists_int m (own m f lxor 1) (cube_of_vars m vs) lxor 1)

let boolean_difference m f v =
  wrap m
    (xor_int m (restrict_int m (own m f) v true)
       (restrict_int m (own m f) v false))

(* ---------- probability ---------- *)

let probability _m p f =
  check f;
  let m = f.man in
  let memo = Hashtbl.create 64 in
  (* Memoize on regular nodes; the complement bit flips P afterwards. *)
  let rec go e =
    let n = e lsr 1 and c = e land 1 in
    let pn =
      if n = 0 then 1.0
      else
        match Hashtbl.find_opt memo n with
        | Some r -> r
        | None ->
          let pv = p (var_of m n) in
          let r = (pv *. go m.nhi.(n)) +. ((1.0 -. pv) *. go m.nlo.(n)) in
          Hashtbl.add memo n r;
          r
    in
    if c = 1 then 1.0 -. pn else pn
  in
  go f.e

(* One memo for every root: a node's probability does not depend on the
   root that reaches it, and every root is live (checked by [own]), so a
   float array over the store's current slots (NaN = not yet computed)
   serves the whole sweep.  Same arithmetic as [probability], hence the
   same floats. *)
let probabilities m p fs =
  let es = List.map (own m) fs in
  let memo = Array.make m.n_nodes Float.nan in
  let rec go e =
    let n = e lsr 1 and c = e land 1 in
    let pn =
      if n = 0 then 1.0
      else begin
        let r = memo.(n) in
        if Float.is_nan r then begin
          let pv = p (var_of m n) in
          let r = (pv *. go m.nhi.(n)) +. ((1.0 -. pv) *. go m.nlo.(n)) in
          memo.(n) <- r;
          r
        end
        else r
      end
    in
    if c = 1 then 1.0 -. pn else pn
  in
  List.map go es

(* ---------- enumeration ---------- *)

let fold_paths _m f ~init ~f:step =
  check f;
  let m = f.man in
  let rec go acc path e =
    let n = e lsr 1 and c = e land 1 in
    if n = 0 then if c = 0 then step acc (List.rev path) else acc
    else begin
      let v = var_of m n in
      let acc = go acc ((v, false) :: path) (m.nlo.(n) lxor c) in
      go acc ((v, true) :: path) (m.nhi.(n) lxor c)
    end
  in
  go init [] f.e

let to_expr _m f =
  check f;
  let m = f.man in
  let memo = Hashtbl.create 64 in
  let rec go e =
    if e = e_true then Expr.tru
    else if e = e_false then Expr.fls
    else
      match Hashtbl.find_opt memo e with
      | Some r -> r
      | None ->
        let n = e lsr 1 and c = e land 1 in
        let r =
          Expr.ite
            (Expr.var (var_of m n))
            (go (m.nhi.(n) lxor c))
            (go (m.nlo.(n) lxor c))
        in
        Hashtbl.add memo e r;
        r
  in
  go f.e

(* ---------- dynamic variable reordering (Rudell sifting) ---------- *)

(* Scratch node used only inside [reorder]: a plain (no complement
   edges) mutable DAG with per-level unique tables and reference counts,
   which is what the in-place adjacent-level swap needs. *)
type wnode = {
  wid : int;
  mutable wvar : int; (* -1 terminal, -2 dead *)
  mutable wlo : wnode;
  mutable whi : wnode;
  mutable wref : int;
}

let reorder m roots_t =
  List.iter
    (fun r ->
      if r.man != m then invalid_arg "Bdd.reorder: node from another manager";
      check r)
    roots_t;
  m.reorders <- m.reorders + 1;
  let n = m.nvars in
  if n <= 1 then roots_t
  else begin
    let roots = List.map (fun r -> r.e) roots_t in
    (* Snapshot the store so a net loss (complement-edge size can move
       against the workspace metric) can be rolled back wholesale. *)
    let snap_lvl = m.nlvl and snap_lo = m.nlo and snap_hi = m.nhi
    and snap_birth = m.nbirth and snap_epoch = m.epoch in
    let snap_nodes = m.n_nodes and snap_utab = m.utab and snap_umask = m.umask
    and snap_uocc = m.uocc in
    let snap_vat = Array.copy m.var_at_level
    and snap_lov = Array.copy m.level_of_var in
    let orig_size = shared_size m roots in
    let rec w1 = { wid = 1; wvar = -1; wlo = w1; whi = w1; wref = 0 } in
    let rec w0 = { wid = 0; wvar = -1; wlo = w0; whi = w0; wref = 0 } in
    let next_wid = ref 2 in
    let var_at = Array.sub m.var_at_level 0 n in
    let lev_of = Array.sub m.level_of_var 0 (Array.length m.level_of_var) in
    let tables = Array.init n (fun _ -> Hashtbl.create 64) in
    let fresh_node v lo hi =
      let nd = { wid = !next_wid; wvar = v; wlo = lo; whi = hi; wref = 0 } in
      incr next_wid;
      lo.wref <- lo.wref + 1;
      hi.wref <- hi.wref + 1;
      nd
    in
    (* Expand complement edges into the workspace. *)
    let memo = Hashtbl.create 256 in
    let rec conv e =
      if e = e_true then w1
      else if e = e_false then w0
      else
        match Hashtbl.find_opt memo e with
        | Some nd -> nd
        | None ->
          let nn = e lsr 1 and c = e land 1 in
          let lo = conv (m.nlo.(nn) lxor c) in
          let hi = conv (m.nhi.(nn) lxor c) in
          let lvl = m.nlvl.(nn) in
          let tbl = tables.(lvl) in
          let nd =
            match Hashtbl.find_opt tbl (lo.wid, hi.wid) with
            | Some nd -> nd
            | None ->
              let nd = fresh_node var_at.(lvl) lo hi in
              Hashtbl.replace tbl (lo.wid, hi.wid) nd;
              nd
          in
          Hashtbl.add memo e nd;
          nd
    in
    let wroots = List.map conv roots in
    List.iter (fun nd -> nd.wref <- nd.wref + 1) wroots;
    let total () =
      Array.fold_left (fun acc t -> acc + Hashtbl.length t) 0 tables
    in
    let dead = ref [] in
    let deref nd =
      nd.wref <- nd.wref - 1;
      if nd.wref = 0 && nd.wvar >= 0 then dead := nd :: !dead
    in
    let flush_dead () =
      while !dead <> [] do
        match !dead with
        | [] -> ()
        | nd :: rest ->
          dead := rest;
          (* A node queued here may have been resurrected by a later
             rewrite in the same swap; re-check the count. *)
          if nd.wvar >= 0 && nd.wref = 0 then begin
            Hashtbl.remove tables.(lev_of.(nd.wvar)) (nd.wlo.wid, nd.whi.wid);
            nd.wvar <- -2;
            deref nd.wlo;
            deref nd.whi
          end
      done
    in
    (* In-place swap of adjacent levels l and l+1; edges from above stay
       valid because dependent nodes are rewritten, not replaced. *)
    let swap l =
      let x = var_at.(l) and y = var_at.(l + 1) in
      let xt = tables.(l) and yt = tables.(l + 1) in
      let xs = Hashtbl.fold (fun _ nd acc -> nd :: acc) xt [] in
      let newx = Hashtbl.create (max 16 (Hashtbl.length xt * 2)) in
      (* Nodes independent of y keep their identity one level down; seed
         the new table with them first so rewrites can reuse them. *)
      let deps =
        List.filter
          (fun nd ->
            if nd.wlo.wvar = y || nd.whi.wvar = y then true
            else begin
              Hashtbl.replace newx (nd.wlo.wid, nd.whi.wid) nd;
              false
            end)
          xs
      in
      let hc lo hi =
        if lo == hi then lo
        else
          match Hashtbl.find_opt newx (lo.wid, hi.wid) with
          | Some nd -> nd
          | None ->
            let nd = fresh_node x lo hi in
            Hashtbl.replace newx (lo.wid, hi.wid) nd;
            nd
      in
      List.iter
        (fun nd ->
          let f0 = nd.wlo and f1 = nd.whi in
          let f00, f01 =
            if f0.wvar = y then (f0.wlo, f0.whi) else (f0, f0)
          in
          let f10, f11 =
            if f1.wvar = y then (f1.wlo, f1.whi) else (f1, f1)
          in
          let n0 = hc f00 f10 in
          let n1 = hc f01 f11 in
          nd.wvar <- y;
          nd.wlo <- n0;
          nd.whi <- n1;
          n0.wref <- n0.wref + 1;
          n1.wref <- n1.wref + 1;
          Hashtbl.replace yt (n0.wid, n1.wid) nd;
          deref f0;
          deref f1)
        deps;
      tables.(l) <- yt;
      tables.(l + 1) <- newx;
      var_at.(l) <- y;
      var_at.(l + 1) <- x;
      lev_of.(y) <- l;
      lev_of.(x) <- l + 1;
      flush_dead ()
    in
    (* Sift one variable through every position; settle at the best. *)
    let sift x =
      let cur = ref lev_of.(x) in
      let best_size = ref (total ()) and best_pos = ref !cur in
      while !cur < n - 1 do
        swap !cur;
        incr cur;
        let s = total () in
        if s < !best_size then begin
          best_size := s;
          best_pos := !cur
        end
      done;
      while !cur > 0 do
        swap (!cur - 1);
        decr cur;
        let s = total () in
        if s < !best_size then begin
          best_size := s;
          best_pos := !cur
        end
      done;
      while !cur < !best_pos do
        swap !cur;
        incr cur
      done
    in
    let by_size =
      List.sort
        (fun (_, a) (_, b) -> compare b a)
        (List.init n (fun l -> (var_at.(l), Hashtbl.length tables.(l))))
    in
    List.iter (fun (x, sz) -> if sz > 0 then sift x) by_size;
    (* Rebuild the store under the sifted order, in a new epoch so handles
       into the old store are caught. *)
    m.epoch <- m.epoch + 1;
    m.nlvl <- Array.make initial_nodes 0;
    m.nlo <- Array.make initial_nodes 0;
    m.nhi <- Array.make initial_nodes 0;
    if Array.length m.nbirth > 0 then m.nbirth <- Array.make initial_nodes 0;
    m.nlvl.(0) <- max_int;
    m.n_nodes <- 1;
    m.utab <- Array.make initial_uslots 0;
    m.umask <- initial_uslots - 1;
    m.uocc <- 0;
    clear_caches m;
    for l = 0 to n - 1 do
      m.var_at_level.(l) <- var_at.(l);
      m.level_of_var.(var_at.(l)) <- l
    done;
    let memo2 = Hashtbl.create 256 in
    let rec back nd =
      if nd == w1 then e_true
      else if nd == w0 then e_false
      else
        match Hashtbl.find_opt memo2 nd.wid with
        | Some e -> e
        | None ->
          let lo = back nd.wlo and hi = back nd.whi in
          let e = mk m lev_of.(nd.wvar) lo hi in
          Hashtbl.add memo2 nd.wid e;
          e
    in
    let new_roots = List.map back wroots in
    if shared_size m new_roots > orig_size then begin
      (* Roll back: sifting won on the plain-DAG metric but lost after
         complement-edge sharing; keep the original store and handles. *)
      m.nlvl <- snap_lvl;
      m.nlo <- snap_lo;
      m.nhi <- snap_hi;
      m.nbirth <- snap_birth;
      m.epoch <- snap_epoch;
      m.n_nodes <- snap_nodes;
      m.utab <- snap_utab;
      m.umask <- snap_umask;
      m.uocc <- snap_uocc;
      m.var_at_level <- snap_vat;
      m.level_of_var <- snap_lov;
      clear_caches m;
      roots_t
    end
    else List.map (wrap m) new_roots
  end
