(* MiniSat/Glucose-style CDCL over flat int arrays.

   Data layout, in the spirit of the compiled simulation core:
   - clauses are slices of one int arena: [size; info; lit0; lit1; ...],
     a clause reference is the offset of its size slot, the info word
     packs the learned flag, a deletion mark and the LBD, and the two
     watched literals are always at offsets +2/+3;
   - watch and occurrence lists are growable int vectors indexed by
     literal;
   - the trail, decision levels, reasons and VSIDS activities are plain
     arrays indexed by variable.

   Beyond the original MiniSat recipe (two-watched-literal propagation,
   first-UIP learning, VSIDS through an indexed heap, Luby restarts,
   phase saving, incremental assumptions) this version carries the
   modern-solver upgrades:
   - learned-clause minimization (recursive reason-subsumption with the
     abstract-level filter);
   - LBD (glue) tracking on learned clauses and periodic clause-DB
     reduction with arena compaction and watch rebuild;
   - chronological (partial) backtracking: a conflict whose computed
     backjump would discard a deep prefix of the trail backtracks one
     level instead and re-propagates the asserting literal there;
   - SatELite-style preprocessing: forward/backward subsumption,
     self-subsumption strengthening and bounded variable elimination,
     with eliminated clauses stored for model extension and re-added on
     demand when an eliminated variable reappears in a new clause or
     assumption (so incremental sessions stay sound);
   - an interrupt hook, polled between conflicts, that cancels a solve
     (conflict budgets).

   Why the solver does not reuse {!Int_heap}: branching needs an
   {e indexed} max-heap — activities are floats that change while a
   variable sits in the heap, so the heap must locate a member in O(1)
   and sift it in place.  [Int_heap] is the opposite specialization. *)

type lit = int

let pos v = 2 * v
let neg v = (2 * v) + 1
let negate l = l lxor 1
let var_of l = l lsr 1
let is_pos l = l land 1 = 0

exception Interrupted

(* Growable int vector (watch lists, occurrence lists, scratch). *)
module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = [||]; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let a = Array.make (max 4 (2 * v.n)) 0 in
      Array.blit v.a 0 a 0 v.n;
      v.a <- a
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let clear v = v.n <- 0
end

type t = {
  (* Per-variable state.  Arrays are sized to [cap] and grown by
     doubling; [nvars] is the live prefix. *)
  mutable nvars : int;
  mutable assigns : int array; (* -1 unassigned, 0 false, 1 true *)
  mutable level : int array;
  mutable reason : int array; (* clause ref, or -1 for decisions *)
  mutable activity : float array;
  mutable phase : bool array; (* saved polarity for decisions *)
  mutable seen : bool array; (* conflict-analysis scratch *)
  mutable frozen : bool array; (* never eliminated by preprocessing *)
  mutable eliminated : bool array;
  mutable lbd_seen : int array; (* per-level stamp for LBD counting *)
  mutable lbd_stamp : int;
  (* Indexed binary max-heap on activity. *)
  mutable heap : int array;
  mutable heap_pos : int array; (* -1 when not in heap *)
  mutable heap_size : int;
  mutable var_inc : float;
  (* Assignment trail. *)
  mutable trail : int array; (* literals in assignment order *)
  mutable trail_size : int;
  mutable trail_lim : int array; (* trail size at each decision level *)
  mutable trail_lim_size : int;
  mutable qhead : int;
  (* Clause arena, clause ref lists and watches. *)
  mutable arena : int array;
  mutable arena_size : int;
  mutable watches : Vec.t array; (* indexed by literal *)
  clauses : Vec.t; (* problem clause refs *)
  learned : Vec.t; (* learned clause refs *)
  mutable ok : bool;
  mutable true_var : int;
  mutable model : bool array;
  (* Variable-elimination store: clauses removed when a variable was
     eliminated, for model extension and on-demand reintroduction. *)
  elim_clauses : (int, int array list) Hashtbl.t;
  mutable elim_order : int list; (* newest elimination first *)
  mutable interrupt : unit -> bool;
  mutable preprocessed : bool;
  (* Clause-DB reduction schedule. *)
  mutable max_learned : int;
  (* Scratch vectors for conflict analysis. *)
  scratch_tail : Vec.t;
  scratch_clear : Vec.t;
  scratch_stack : Vec.t;
  (* Counters. *)
  mutable n_clauses : int; (* live problem clauses *)
  mutable n_learned : int;
  mutable n_learned_lits : int;
  mutable n_decisions : int;
  mutable n_propagations : int;
  mutable n_conflicts : int;
  mutable n_restarts : int;
  mutable n_eliminated : int;
  mutable n_subsumed : int;
  mutable n_strengthened : int;
  mutable n_minimized_lits : int;
  mutable n_reductions : int;
  mutable n_removed_learned : int;
}

(* A backjump longer than this many levels unwinds a single level
   instead (chronological backtracking). *)
let chrono = 100

let create () =
  {
    nvars = 0;
    assigns = Array.make 16 (-1);
    level = Array.make 16 0;
    reason = Array.make 16 (-1);
    activity = Array.make 16 0.0;
    phase = Array.make 16 false;
    seen = Array.make 16 false;
    frozen = Array.make 16 false;
    eliminated = Array.make 16 false;
    lbd_seen = Array.make 17 0;
    lbd_stamp = 0;
    heap = Array.make 16 0;
    heap_pos = Array.make 16 (-1);
    heap_size = 0;
    var_inc = 1.0;
    trail = Array.make 16 0;
    trail_size = 0;
    trail_lim = Array.make 17 0;
    trail_lim_size = 0;
    qhead = 0;
    arena = Array.make 256 0;
    arena_size = 0;
    watches = Array.init 32 (fun _ -> Vec.create ());
    clauses = Vec.create ();
    learned = Vec.create ();
    ok = true;
    true_var = -1;
    model = [||];
    elim_clauses = Hashtbl.create 64;
    elim_order = [];
    interrupt = (fun () -> false);
    preprocessed = false;
    max_learned = 300;
    scratch_tail = Vec.create ();
    scratch_clear = Vec.create ();
    scratch_stack = Vec.create ();
    n_clauses = 0;
    n_learned = 0;
    n_learned_lits = 0;
    n_decisions = 0;
    n_propagations = 0;
    n_conflicts = 0;
    n_restarts = 0;
    n_eliminated = 0;
    n_subsumed = 0;
    n_strengthened = 0;
    n_minimized_lits = 0;
    n_reductions = 0;
    n_removed_learned = 0;
  }

let num_vars s = s.nvars
let ok s = s.ok
let set_interrupt s f = s.interrupt <- f

(* Clause info word: bit 0 = learned, bit 1 = deleted, bits 2.. = LBD. *)
let cl_size s cr = s.arena.(cr)
let cl_is_deleted s cr = s.arena.(cr + 1) land 2 <> 0
let cl_delete s cr = s.arena.(cr + 1) <- s.arena.(cr + 1) lor 2
let cl_lbd s cr = s.arena.(cr + 1) lsr 2

(* ------------------------------------------------------------------ *)
(* Activity order: indexed max-heap                                   *)
(* ------------------------------------------------------------------ *)

let heap_swap s i j =
  let a = s.heap.(i) and b = s.heap.(j) in
  s.heap.(i) <- b;
  s.heap.(j) <- a;
  s.heap_pos.(b) <- i;
  s.heap_pos.(a) <- j

let rec sift_up s i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if s.activity.(s.heap.(i)) > s.activity.(s.heap.(p)) then begin
      heap_swap s i p;
      sift_up s p
    end
  end

let rec sift_down s i =
  let l = (2 * i) + 1 in
  if l < s.heap_size then begin
    let r = l + 1 in
    let c =
      if r < s.heap_size && s.activity.(s.heap.(r)) > s.activity.(s.heap.(l))
      then r
      else l
    in
    if s.activity.(s.heap.(c)) > s.activity.(s.heap.(i)) then begin
      heap_swap s i c;
      sift_down s c
    end
  end

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    let i = s.heap_size in
    s.heap.(i) <- v;
    s.heap_pos.(v) <- i;
    s.heap_size <- s.heap_size + 1;
    sift_up s i
  end

let heap_pop s =
  let v = s.heap.(0) in
  s.heap_size <- s.heap_size - 1;
  s.heap_pos.(v) <- -1;
  if s.heap_size > 0 then begin
    let w = s.heap.(s.heap_size) in
    s.heap.(0) <- w;
    s.heap_pos.(w) <- 0;
    sift_down s 0
  end;
  v

(* ------------------------------------------------------------------ *)
(* Variables                                                          *)
(* ------------------------------------------------------------------ *)

let grow_to s cap0 =
  let old = Array.length s.assigns in
  if cap0 > old then begin
    let cap = max cap0 (2 * old) in
    let extend a def =
      let b = Array.make cap def in
      Array.blit a 0 b 0 old;
      b
    in
    s.assigns <- extend s.assigns (-1);
    s.level <- extend s.level 0;
    s.reason <- extend s.reason (-1);
    s.activity <- extend s.activity 0.0;
    s.phase <- extend s.phase false;
    s.seen <- extend s.seen false;
    s.frozen <- extend s.frozen false;
    s.eliminated <- extend s.eliminated false;
    s.heap <- extend s.heap 0;
    s.heap_pos <- extend s.heap_pos (-1);
    s.trail <- extend s.trail 0;
    let lim = Array.make (cap + 1) 0 in
    Array.blit s.trail_lim 0 lim 0 (old + 1);
    s.trail_lim <- lim;
    let lbd = Array.make (cap + 1) 0 in
    Array.blit s.lbd_seen 0 lbd 0 (old + 1);
    s.lbd_seen <- lbd;
    let ws = Array.init (2 * cap) (fun _ -> Vec.create ()) in
    Array.blit s.watches 0 ws 0 (2 * old);
    s.watches <- ws
  end

let new_var s =
  let v = s.nvars in
  grow_to s (v + 1);
  s.nvars <- v + 1;
  heap_insert s v;
  v

let lit_value s l =
  let a = s.assigns.(l lsr 1) in
  if a < 0 then -1 else a lxor (l land 1)

let decision_level s = s.trail_lim_size

(* ------------------------------------------------------------------ *)
(* Trail                                                              *)
(* ------------------------------------------------------------------ *)

let enqueue s l reason =
  let v = l lsr 1 in
  s.assigns.(v) <- (l land 1) lxor 1;
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  s.trail.(s.trail_size) <- l;
  s.trail_size <- s.trail_size + 1

let new_decision_level s =
  s.trail_lim.(s.trail_lim_size) <- s.trail_size;
  s.trail_lim_size <- s.trail_lim_size + 1

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = s.trail_lim.(lvl) in
    for k = s.trail_size - 1 downto bound do
      let l = s.trail.(k) in
      let v = l lsr 1 in
      s.phase.(v) <- s.assigns.(v) = 1;
      s.assigns.(v) <- -1;
      heap_insert s v
    done;
    s.trail_size <- bound;
    s.qhead <- bound;
    s.trail_lim_size <- lvl
  end

(* ------------------------------------------------------------------ *)
(* Clause arena                                                       *)
(* ------------------------------------------------------------------ *)

let arena_reserve s extra =
  let need = s.arena_size + extra in
  if need > Array.length s.arena then begin
    let a = Array.make (max need (2 * Array.length s.arena)) 0 in
    Array.blit s.arena 0 a 0 s.arena_size;
    s.arena <- a
  end

(* Store a clause of >= 2 literals; watches the first two. *)
let store_clause s ~learned ~lbd lits =
  let size = Array.length lits in
  arena_reserve s (size + 2);
  let cr = s.arena_size in
  s.arena.(cr) <- size;
  s.arena.(cr + 1) <- (lbd lsl 2) lor (if learned then 1 else 0);
  Array.iteri (fun k l -> s.arena.(cr + 2 + k) <- l) lits;
  s.arena_size <- cr + size + 2;
  let tag = (cr lsl 1) lor (if size = 2 then 1 else 0) in
  Vec.push s.watches.(lits.(0)) tag;
  Vec.push s.watches.(lits.(0)) lits.(1);
  Vec.push s.watches.(lits.(1)) tag;
  Vec.push s.watches.(lits.(1)) lits.(0);
  if learned then Vec.push s.learned cr
  else begin
    Vec.push s.clauses cr;
    s.n_clauses <- s.n_clauses + 1
  end;
  cr

(* ------------------------------------------------------------------ *)
(* Propagation: two watched literals                                  *)
(* ------------------------------------------------------------------ *)

(* Watch lists hold (tagged clause ref, blocker) pairs, flattened.  The
   tag word is [cr lsl 1 lor is_binary]; the blocker is some other
   literal of the clause.  A true blocker means the clause is satisfied
   without touching the arena — on clause-heavy instances most watch
   visits end at that one-word test.  A binary clause is decided
   entirely from its watch entry (the blocker IS the other literal), so
   its watches never move and its arena words are never read. *)
(* Returns the conflicting clause ref, or -1. *)
let propagate s =
  let conflict = ref (-1) in
  while !conflict < 0 && s.qhead < s.trail_size do
    let p = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    s.n_propagations <- s.n_propagations + 1;
    let false_lit = p lxor 1 in
    let ws = s.watches.(false_lit) in
    let i = ref 0 and j = ref 0 in
    let n = ws.Vec.n in
    while !i < n do
      let tag = ws.Vec.a.(!i) in
      let blocker = ws.Vec.a.(!i + 1) in
      i := !i + 2;
      let bval = lit_value s blocker in
      if bval = 1 then begin
        ws.Vec.a.(!j) <- tag;
        ws.Vec.a.(!j + 1) <- blocker;
        j := !j + 2
      end
      else begin
        let cr = tag lsr 1 in
        if tag land 1 = 1 then begin
          (* Binary: the blocker is the only other literal. *)
          ws.Vec.a.(!j) <- tag;
          ws.Vec.a.(!j + 1) <- blocker;
          j := !j + 2;
          if bval = 0 then begin
            conflict := cr;
            s.qhead <- s.trail_size;
            while !i < n do
              ws.Vec.a.(!j) <- ws.Vec.a.(!i);
              ws.Vec.a.(!j + 1) <- ws.Vec.a.(!i + 1);
              i := !i + 2;
              j := !j + 2
            done
          end
          else enqueue s blocker cr
        end
        else begin
          let arena = s.arena in
          (* Normalize: the false literal sits at offset +3. *)
          if arena.(cr + 2) = false_lit then begin
            arena.(cr + 2) <- arena.(cr + 3);
            arena.(cr + 3) <- false_lit
          end;
          let first = arena.(cr + 2) in
          if first <> blocker && lit_value s first = 1 then begin
            (* Clause already satisfied; keep the watch, better
               blocker. *)
            ws.Vec.a.(!j) <- tag;
            ws.Vec.a.(!j + 1) <- first;
            j := !j + 2
          end
          else begin
            (* Look for a non-false replacement watch. *)
            let size = arena.(cr) in
            let k = ref 4 in
            while !k <= size + 1 && lit_value s arena.(cr + !k) = 0 do
              incr k
            done;
            if !k <= size + 1 then begin
              (* Move the watch to the replacement literal. *)
              arena.(cr + 3) <- arena.(cr + !k);
              arena.(cr + !k) <- false_lit;
              Vec.push s.watches.(arena.(cr + 3)) tag;
              Vec.push s.watches.(arena.(cr + 3)) first
            end
            else begin
              (* Unit or conflicting; the watch stays. *)
              ws.Vec.a.(!j) <- tag;
              ws.Vec.a.(!j + 1) <- first;
              j := !j + 2;
              if lit_value s first = 0 then begin
                conflict := cr;
                s.qhead <- s.trail_size;
                (* Copy the remaining watches back before bailing
                   out. *)
                while !i < n do
                  ws.Vec.a.(!j) <- ws.Vec.a.(!i);
                  ws.Vec.a.(!j + 1) <- ws.Vec.a.(!i + 1);
                  i := !i + 2;
                  j := !j + 2
                done
              end
              else enqueue s first cr
            end
          end
        end
      end
    done;
    ws.Vec.n <- !j
  done;
  !conflict

(* ------------------------------------------------------------------ *)
(* VSIDS                                                              *)
(* ------------------------------------------------------------------ *)

let rescale_activity s =
  for v = 0 to s.nvars - 1 do
    s.activity.(v) <- s.activity.(v) *. 1e-100
  done;
  s.var_inc <- s.var_inc *. 1e-100

let bump_var s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then rescale_activity s;
  if s.heap_pos.(v) >= 0 then sift_up s s.heap_pos.(v)

let decay_activity s = s.var_inc <- s.var_inc /. 0.99

(* ------------------------------------------------------------------ *)
(* Conflict analysis: first UIP + recursive minimization              *)
(* ------------------------------------------------------------------ *)

(* Is the tail literal [q0] redundant — i.e. implied by the rest of the
   learnt clause through the implication graph?  Standard reason-side
   expansion with the abstract-level filter: expanding stops (and fails)
   at a decision variable or a variable whose level is not among the
   learnt clause's levels.  Marks set during a successful expansion stay
   (they subsume later queries) and are cleared with the rest at the end
   of [analyze]. *)
let lit_redundant s abstract q0 =
  let stack = s.scratch_stack in
  Vec.clear stack;
  Vec.push stack q0;
  let clear = s.scratch_clear in
  let top = clear.Vec.n in
  let ok = ref true in
  while !ok && stack.Vec.n > 0 do
    stack.Vec.n <- stack.Vec.n - 1;
    let q = stack.Vec.a.(stack.Vec.n) in
    let vq = q lsr 1 in
    let cr = s.reason.(vq) in
    let size = s.arena.(cr) in
    let k = ref 0 in
    while !ok && !k < size do
      let l = s.arena.(cr + 2 + !k) in
      incr k;
      let v = l lsr 1 in
      if v <> vq && (not s.seen.(v)) && s.level.(v) > 0 then begin
        if
          s.reason.(v) >= 0
          && abstract land (1 lsl (s.level.(v) land 31)) <> 0
        then begin
          s.seen.(v) <- true;
          Vec.push clear v;
          Vec.push stack l
        end
        else ok := false
      end
    done
  done;
  if not !ok then begin
    for k = top to clear.Vec.n - 1 do
      s.seen.(clear.Vec.a.(k)) <- false
    done;
    clear.Vec.n <- top
  end;
  !ok

(* Returns (learnt clause, backtrack level, lbd); learnt.(0) is the
   asserting literal and learnt.(1) — when present — a literal of the
   backtrack level, so the pair can be watched directly. *)
let analyze s confl =
  let tail = s.scratch_tail in
  Vec.clear tail;
  let clear = s.scratch_clear in
  Vec.clear clear;
  let path_count = ref 0 in
  let p = ref (-1) in
  let index = ref s.trail_size in
  let cr = ref confl in
  let break_ = ref false in
  while not !break_ do
    let size = s.arena.(!cr) in
    for k = 0 to size - 1 do
      let q = s.arena.(!cr + 2 + k) in
      if q <> !p then begin
        let v = q lsr 1 in
        if (not s.seen.(v)) && s.level.(v) > 0 then begin
          s.seen.(v) <- true;
          bump_var s v;
          if s.level.(v) >= decision_level s then incr path_count
          else begin
            Vec.push tail q;
            Vec.push clear v
          end
        end
      end
    done;
    (* Walk back to the most recent literal that contributed. *)
    decr index;
    while not s.seen.(s.trail.(!index) lsr 1) do
      decr index
    done;
    p := s.trail.(!index);
    let v = !p lsr 1 in
    s.seen.(v) <- false;
    decr path_count;
    if !path_count = 0 then break_ := true else cr := s.reason.(v)
  done;
  (* Minimize: drop tail literals already implied by the others. *)
  let abstract = ref 0 in
  for k = 0 to tail.Vec.n - 1 do
    abstract :=
      !abstract lor (1 lsl (s.level.(tail.Vec.a.(k) lsr 1) land 31))
  done;
  let j = ref 0 in
  for k = 0 to tail.Vec.n - 1 do
    let q = tail.Vec.a.(k) in
    if s.reason.(q lsr 1) < 0 || not (lit_redundant s !abstract q) then begin
      tail.Vec.a.(!j) <- q;
      incr j
    end
    else s.n_minimized_lits <- s.n_minimized_lits + 1
  done;
  tail.Vec.n <- !j;
  let nlits = tail.Vec.n + 1 in
  let learnt = Array.make nlits 0 in
  learnt.(0) <- negate !p;
  Array.blit tail.Vec.a 0 learnt 1 tail.Vec.n;
  let bt = ref 0 in
  if nlits > 1 then begin
    let best = ref 1 in
    for k = 2 to nlits - 1 do
      if s.level.(learnt.(k) lsr 1) > s.level.(learnt.(!best) lsr 1) then
        best := k
    done;
    let tmp = learnt.(1) in
    learnt.(1) <- learnt.(!best);
    learnt.(!best) <- tmp;
    bt := s.level.(learnt.(1) lsr 1)
  end;
  (* LBD: number of distinct decision levels across the learnt clause. *)
  s.lbd_stamp <- s.lbd_stamp + 1;
  let lbd = ref 0 in
  for k = 0 to nlits - 1 do
    let lv = s.level.(learnt.(k) lsr 1) in
    if s.lbd_seen.(lv) <> s.lbd_stamp then begin
      s.lbd_seen.(lv) <- s.lbd_stamp;
      incr lbd
    end
  done;
  for k = 0 to clear.Vec.n - 1 do
    s.seen.(clear.Vec.a.(k)) <- false
  done;
  Vec.clear clear;
  (learnt, !bt, !lbd)

(* ------------------------------------------------------------------ *)
(* Problem construction                                               *)
(* ------------------------------------------------------------------ *)

(* [add_clause] and [uneliminate] are mutually recursive: adding a
   clause over a variable the preprocessor eliminated first restores the
   clauses whose removal justified the elimination (they may themselves
   mention other eliminated variables, handled by the recursion). *)
let rec add_clause s lits =
  List.iter
    (fun l ->
      if l < 0 || l lsr 1 >= s.nvars then
        invalid_arg "Solver.add_clause: literal of an unallocated variable")
    lits;
  List.iter
    (fun l -> if s.eliminated.(l lsr 1) then uneliminate s (l lsr 1))
    lits;
  cancel_until s 0;
  if s.ok then begin
    let lits = List.sort_uniq compare lits in
    let tautology =
      List.exists (fun l -> is_pos l && List.mem (negate l) lits) lits
    in
    let satisfied = List.exists (fun l -> lit_value s l = 1) lits in
    if not (tautology || satisfied) then begin
      let lits = List.filter (fun l -> lit_value s l <> 0) lits in
      match lits with
      | [] -> s.ok <- false
      | [ l ] ->
        enqueue s l (-1);
        if propagate s >= 0 then s.ok <- false
      | _ -> ignore (store_clause s ~learned:false ~lbd:0 (Array.of_list lits))
    end
  end

and uneliminate s v =
  s.eliminated.(v) <- false;
  if s.assigns.(v) < 0 then heap_insert s v;
  match Hashtbl.find_opt s.elim_clauses v with
  | None -> ()
  | Some cls ->
    Hashtbl.remove s.elim_clauses v;
    List.iter (fun c -> add_clause s (Array.to_list c)) cls

let freeze s v =
  if v < 0 || v >= s.nvars then
    invalid_arg "Solver.freeze: unallocated variable";
  if s.eliminated.(v) then uneliminate s v;
  s.frozen.(v) <- true

let true_lit s =
  if s.true_var < 0 then begin
    let v = new_var s in
    s.true_var <- v;
    add_clause s [ pos v ]
  end;
  pos s.true_var

(* ------------------------------------------------------------------ *)
(* Arena compaction, level-0 simplification, clause-DB reduction      *)
(* ------------------------------------------------------------------ *)

(* Compact the arena to the live clauses and rebuild every watch list.
   Only legal at decision level 0; reasons of level-0 assignments are
   cleared first (conflict analysis never expands past level 0, so they
   are dead weight anyway). *)
let garbage_collect s =
  for k = 0 to s.trail_size - 1 do
    s.reason.(s.trail.(k) lsr 1) <- -1
  done;
  let live = ref 0 in
  let count vec =
    for k = 0 to vec.Vec.n - 1 do
      let cr = vec.Vec.a.(k) in
      if not (cl_is_deleted s cr) then live := !live + cl_size s cr + 2
    done
  in
  count s.clauses;
  count s.learned;
  let arena = Array.make (max 256 !live) 0 in
  let posn = ref 0 in
  let relocate vec =
    let j = ref 0 in
    for k = 0 to vec.Vec.n - 1 do
      let cr = vec.Vec.a.(k) in
      if not (cl_is_deleted s cr) then begin
        let len = cl_size s cr + 2 in
        Array.blit s.arena cr arena !posn len;
        vec.Vec.a.(!j) <- !posn;
        incr j;
        posn := !posn + len
      end
    done;
    vec.Vec.n <- !j
  in
  relocate s.clauses;
  relocate s.learned;
  s.arena <- arena;
  s.arena_size <- !posn;
  for l = 0 to (2 * s.nvars) - 1 do
    Vec.clear s.watches.(l)
  done;
  let watch vec =
    for k = 0 to vec.Vec.n - 1 do
      let cr = vec.Vec.a.(k) in
      let tag = (cr lsl 1) lor (if s.arena.(cr) = 2 then 1 else 0) in
      Vec.push s.watches.(s.arena.(cr + 2)) tag;
      Vec.push s.watches.(s.arena.(cr + 2)) s.arena.(cr + 3);
      Vec.push s.watches.(s.arena.(cr + 3)) tag;
      Vec.push s.watches.(s.arena.(cr + 3)) s.arena.(cr + 2)
    done
  in
  watch s.clauses;
  watch s.learned

(* Delete clauses satisfied at level 0 and strip falsified literals from
   the survivors (in place; the arena holes go away at the next
   compaction). *)
let remove_satisfied s vec ~learned =
  for k = 0 to vec.Vec.n - 1 do
    let cr = vec.Vec.a.(k) in
    if not (cl_is_deleted s cr) then begin
      let size = cl_size s cr in
      let sat = ref false in
      for i = 0 to size - 1 do
        if lit_value s s.arena.(cr + 2 + i) = 1 then sat := true
      done;
      if !sat then begin
        cl_delete s cr;
        if not learned then s.n_clauses <- s.n_clauses - 1
      end
      else begin
        let j = ref 0 in
        for i = 0 to size - 1 do
          let l = s.arena.(cr + 2 + i) in
          if lit_value s l <> 0 then begin
            s.arena.(cr + 2 + !j) <- l;
            incr j
          end
        done;
        s.arena.(cr) <- !j;
        (* Level-0 units enqueued but not yet propagated (e.g. a unit
           learnt clause at a restart boundary) can strip a clause down
           to one or zero literals here; such a clause cannot be watched
           — apply it directly and delete it. *)
        if !j = 0 then begin
          s.ok <- false;
          cl_delete s cr;
          if not learned then s.n_clauses <- s.n_clauses - 1
        end
        else if !j = 1 then begin
          enqueue s s.arena.(cr + 2) (-1);
          cl_delete s cr;
          if not learned then s.n_clauses <- s.n_clauses - 1
        end
      end
    end
  done

(* Glucose-style reduction: sort the learned clauses by LBD (ties by
   size), delete the worse half, keep glue clauses (LBD <= 2) forever.
   Runs at level 0 so nothing is locked as a reason. *)
let reduce_db s =
  remove_satisfied s s.clauses ~learned:false;
  remove_satisfied s s.learned ~learned:true;
  let refs =
    Array.of_seq
      (Seq.filter
         (fun cr -> not (cl_is_deleted s cr))
         (Seq.init s.learned.Vec.n (fun k -> s.learned.Vec.a.(k))))
  in
  Array.sort
    (fun a b ->
      let c = compare (cl_lbd s b) (cl_lbd s a) in
      if c <> 0 then c else compare (cl_size s b) (cl_size s a))
    refs;
  let quota = Array.length refs / 2 in
  let removed = ref 0 in
  Array.iteri
    (fun k cr ->
      if k < quota && cl_lbd s cr > 2 then begin
        cl_delete s cr;
        incr removed
      end)
    refs;
  s.n_removed_learned <- s.n_removed_learned + !removed;
  s.n_reductions <- s.n_reductions + 1;
  s.max_learned <- s.max_learned + (s.max_learned / 10);
  garbage_collect s

let simplify s =
  cancel_until s 0;
  if s.ok && propagate s >= 0 then s.ok <- false;
  if s.ok then begin
    remove_satisfied s s.clauses ~learned:false;
    remove_satisfied s s.learned ~learned:true;
    garbage_collect s
  end

(* ------------------------------------------------------------------ *)
(* SatELite-style preprocessing                                       *)
(* ------------------------------------------------------------------ *)

(* The preprocessor works on occurrence lists, not watches: watches are
   rebuilt from scratch (via [garbage_collect]) when it finishes, so
   clauses can be deleted and strengthened freely in between.  Units
   found along the way are applied through the occurrence lists too. *)

let cl_signature s cr =
  let size = cl_size s cr in
  let sg = ref 0 in
  for k = 0 to size - 1 do
    sg := !sg lor (1 lsl (s.arena.(cr + 2 + k) land 63))
  done;
  !sg

let preprocess s =
  if s.ok && decision_level s = 0 then begin
    (* Learned clauses are implied by the problem clauses, and keeping
       them would let elimination miss occurrences — drop them. *)
    for k = 0 to s.learned.Vec.n - 1 do
      cl_delete s s.learned.Vec.a.(k)
    done;
    Vec.clear s.learned;
    let nlits = 2 * s.nvars in
    let occs = Array.init nlits (fun _ -> Vec.create ()) in
    let mark = Array.make nlits false in
    let queue = s.scratch_stack in
    Vec.clear queue;
    let occ_add cr =
      let size = cl_size s cr in
      for k = 0 to size - 1 do
        Vec.push occs.(s.arena.(cr + 2 + k)) cr
      done
    in
    for k = 0 to s.clauses.Vec.n - 1 do
      let cr = s.clauses.Vec.a.(k) in
      if not (cl_is_deleted s cr) then begin
        occ_add cr;
        Vec.push queue cr
      end
    done;
    let delete_clause cr =
      cl_delete s cr;
      s.n_clauses <- s.n_clauses - 1
    in
    (* Assign a literal at level 0, occurrence-list style: delete the
       satisfied clauses, strip the falsified literal from the rest
       (possibly yielding new units, processed iteratively). *)
    let units = Vec.create () in
    let assign_unit l0 =
      Vec.push units l0;
      while s.ok && units.Vec.n > 0 do
        units.Vec.n <- units.Vec.n - 1;
        let l = units.Vec.a.(units.Vec.n) in
        match lit_value s l with
        | 1 -> ()
        | 0 -> s.ok <- false
        | _ ->
          enqueue s l (-1);
          let sat = occs.(l) in
          for k = 0 to sat.Vec.n - 1 do
            let cr = sat.Vec.a.(k) in
            if not (cl_is_deleted s cr) then begin
              (* Occurrence entries go stale when strengthening removed
                 this literal; deleting such a clause would drop a live
                 constraint. *)
              let size = cl_size s cr in
              let present = ref false in
              for i = 0 to size - 1 do
                if s.arena.(cr + 2 + i) = l then present := true
              done;
              if !present then delete_clause cr
            end
          done;
          Vec.clear sat;
          let falsified = occs.(negate l) in
          for k = 0 to falsified.Vec.n - 1 do
            let cr = falsified.Vec.a.(k) in
            if not (cl_is_deleted s cr) then begin
              let size = cl_size s cr in
              let j = ref 0 in
              for i = 0 to size - 1 do
                let q = s.arena.(cr + 2 + i) in
                if q <> negate l then begin
                  s.arena.(cr + 2 + !j) <- q;
                  incr j
                end
              done;
              s.arena.(cr) <- !j;
              if !j = 0 then s.ok <- false
              else if !j = 1 then Vec.push units s.arena.(cr + 2)
              else Vec.push queue cr
            end
          done;
          Vec.clear falsified
      done
    in
    (* Does [small] subsume [big] except for literal [except] (-1 for
       plain subsumption)?  [exceptneg]: when matching for
       self-subsumption, [negate except] in [small] counts as a hit. *)
    let subsumes small big ~except =
      let ssz = cl_size s small and bsz = cl_size s big in
      ssz <= bsz
      && begin
           for k = 0 to bsz - 1 do
             mark.(s.arena.(big + 2 + k)) <- true
           done;
           let all = ref true in
           for k = 0 to ssz - 1 do
             let l = s.arena.(small + 2 + k) in
             if not (mark.(l) || l = except) then all := false
           done;
           for k = 0 to bsz - 1 do
             mark.(s.arena.(big + 2 + k)) <- false
           done;
           !all
         end
    in
    (* Backward subsumption + self-subsumption driven from [queue]. *)
    let strengthen cr l =
      (* Remove literal [l] from clause [cr].  Occurrence lists are
         never purged eagerly, so [l] may already be gone — in that
         case do nothing (in particular do not requeue, or two stale
         entries could requeue each other forever). *)
      let size = cl_size s cr in
      let j = ref 0 in
      for i = 0 to size - 1 do
        let q = s.arena.(cr + 2 + i) in
        if q <> l then begin
          s.arena.(cr + 2 + !j) <- q;
          incr j
        end
      done;
      if !j < size then begin
        s.arena.(cr) <- !j;
        s.n_strengthened <- s.n_strengthened + 1;
        if !j = 0 then s.ok <- false
        else if !j = 1 then assign_unit s.arena.(cr + 2)
        else Vec.push queue cr
      end
    in
    let process_queue () =
      while s.ok && queue.Vec.n > 0 do
        queue.Vec.n <- queue.Vec.n - 1;
        let cr = queue.Vec.a.(queue.Vec.n) in
        if not (cl_is_deleted s cr) then begin
          let size = cl_size s cr in
          if size = 1 then assign_unit s.arena.(cr + 2)
          else begin
            let sg = cl_signature s cr in
            (* Candidate list: occurrences of the least-occurring
               literal of [cr]. *)
            let best = ref (-1) in
            for k = 0 to size - 1 do
              let l = s.arena.(cr + 2 + k) in
              if !best < 0 || occs.(l).Vec.n < occs.(!best).Vec.n then
                best := l
            done;
            if !best >= 0 then begin
              let cands = occs.(!best) in
              for k = 0 to cands.Vec.n - 1 do
                let dr = cands.Vec.a.(k) in
                if
                  s.ok && dr <> cr
                  && (not (cl_is_deleted s dr))
                  && cl_size s dr >= size
                  && sg land lnot (cl_signature s dr) = 0
                  && subsumes cr dr ~except:(-1)
                then begin
                  delete_clause dr;
                  s.n_subsumed <- s.n_subsumed + 1
                end
              done
            end;
            (* Self-subsumption: if (cr \ {l}) ∪ {negate l} subsumes d,
               then d can drop [negate l]. *)
            let k = ref 0 in
            while s.ok && !k < cl_size s cr do
              let l = s.arena.(cr + 2 + !k) in
              let cands = occs.(negate l) in
              let i = ref 0 in
              while s.ok && !i < cands.Vec.n do
                let dr = cands.Vec.a.(!i) in
                if
                  dr <> cr
                  && (not (cl_is_deleted s dr))
                  && cl_size s dr >= cl_size s cr
                  && subsumes cr dr ~except:l
                then strengthen dr (negate l);
                incr i
              done;
              incr k
            done
          end
        end
      done
    in
    (* Bounded variable elimination.  A variable with few positive and
       few negative occurrences is eliminated when the resolvent set is
       no larger than the clauses it replaces. *)
    let resolve cp cn v =
      (* Resolvent of clauses [cp] (contains pos v) and [cn] (neg v);
         None if tautological. *)
      let lits = ref [] in
      let taut = ref false in
      let collect cr skip =
        let size = cl_size s cr in
        for k = 0 to size - 1 do
          let l = s.arena.(cr + 2 + k) in
          if l <> skip then
            if not mark.(l) then begin
              if mark.(negate l) then taut := true;
              mark.(l) <- true;
              lits := l :: !lits
            end
        done
      in
      collect cp (pos v);
      collect cn (neg v);
      List.iter (fun l -> mark.(l) <- false) !lits;
      if !taut then None else Some !lits
    in
    let try_eliminate v =
      if
        s.ok
        && (not s.frozen.(v))
        && (not s.eliminated.(v))
        && s.assigns.(v) < 0
        && v <> s.true_var
      then begin
        (* Occurrence entries can be stale two ways: the clause was
           deleted, or strengthening removed this very literal.  Either
           kind must not be stashed — deleting a live clause that no
           longer mentions [v] would silently drop a constraint. *)
        let compact lit vec =
          let j = ref 0 in
          for k = 0 to vec.Vec.n - 1 do
            let cr = vec.Vec.a.(k) in
            if not (cl_is_deleted s cr) then begin
              let size = cl_size s cr in
              let present = ref false in
              for i = 0 to size - 1 do
                if s.arena.(cr + 2 + i) = lit then present := true
              done;
              if !present then begin
                vec.Vec.a.(!j) <- cr;
                incr j
              end
            end
          done;
          vec.Vec.n <- !j
        in
        compact (pos v) occs.(pos v);
        compact (neg v) occs.(neg v);
        let np = occs.(pos v).Vec.n and nn = occs.(neg v).Vec.n in
        if np + nn > 0 && np + nn <= 16 then begin
          let resolvents = ref [] in
          let cnt = ref 0 in
          (try
             for i = 0 to np - 1 do
               for j = 0 to nn - 1 do
                 match resolve occs.(pos v).Vec.a.(i) occs.(neg v).Vec.a.(j) v with
                 | None -> ()
                 | Some lits ->
                   incr cnt;
                   if !cnt > np + nn then raise Exit;
                   resolvents := lits :: !resolvents
               done
             done;
             (* Worth it: commit the elimination. *)
             let stored = ref [] in
             let stash vec =
               for k = 0 to vec.Vec.n - 1 do
                 let cr = vec.Vec.a.(k) in
                 let size = cl_size s cr in
                 stored :=
                   Array.init size (fun i -> s.arena.(cr + 2 + i)) :: !stored;
                 (* Occurrence entries under other literals stay; the
                    deletion mark makes every later scan skip them. *)
                 delete_clause cr
               done;
               Vec.clear vec
             in
             stash occs.(pos v);
             stash occs.(neg v);
             Hashtbl.replace s.elim_clauses v !stored;
             s.elim_order <- v :: s.elim_order;
             s.eliminated.(v) <- true;
             s.n_eliminated <- s.n_eliminated + 1;
             (* [v] may still sit in the branching heap; the decision
                loop skips eliminated variables. *)
             List.iter
               (fun lits ->
                 (* A unit resolvent earlier in this batch may have
                    assigned variables of this one through
                    [assign_unit]; re-evaluate against the level-0
                    assignment before storing. *)
                 if not (List.exists (fun l -> lit_value s l = 1) lits)
                 then
                   match List.filter (fun l -> lit_value s l <> 0) lits with
                   | [] -> s.ok <- false
                   | [ l ] -> assign_unit l
                   | lits ->
                     let arr = Array.of_list lits in
                     let cr = store_clause s ~learned:false ~lbd:0 arr in
                     occ_add cr;
                     Vec.push queue cr)
               !resolvents
           with Exit -> ())
        end
      end
    in
    process_queue ();
    for v = 0 to s.nvars - 1 do
      try_eliminate v
    done;
    process_queue ();
    (* Watches referencing deleted/strengthened clauses are stale;
       rebuild everything. *)
    if s.ok then garbage_collect s;
    s.qhead <- s.trail_size
  end

(* ------------------------------------------------------------------ *)
(* Search                                                             *)
(* ------------------------------------------------------------------ *)

(* Luby restart sequence: 1 1 2 1 1 2 4 ... *)
let luby i =
  let rec go sz seq i =
    if sz - 1 = i then (1 lsl seq)
    else go ((sz - 1) / 2) (seq - 1) (i mod ((sz - 1) / 2))
  in
  let sz = ref 1 and seq = ref 0 in
  while !sz < i + 1 do
    incr seq;
    sz := (2 * !sz) + 1
  done;
  go !sz !seq i

type outcome = Sat | Unsat

let pick_branch_var s =
  let v = ref (-1) in
  while !v < 0 && s.heap_size > 0 do
    let cand = heap_pop s in
    if s.assigns.(cand) < 0 && not s.eliminated.(cand) then v := cand
  done;
  !v

(* Model of the simplified formula, extended to the eliminated
   variables: walk eliminations newest-first; each stored clause must be
   satisfied, so if no other literal is true, the clause's literal on
   the eliminated variable decides its value. *)
let save_model s =
  let m = Array.make s.nvars false in
  for v = 0 to s.nvars - 1 do
    m.(v) <- s.assigns.(v) = 1
  done;
  List.iter
    (fun v ->
      if s.eliminated.(v) then begin
        match Hashtbl.find_opt s.elim_clauses v with
        | None -> ()
        | Some cls ->
          List.iter
            (fun c ->
              let sat = ref false in
              let own = ref (pos v) in
              Array.iter
                (fun l ->
                  if l lsr 1 = v then own := l
                  else if m.(l lsr 1) = is_pos l then sat := true)
                c;
              if not !sat then m.(v) <- is_pos !own)
            cls
      end)
    s.elim_order;
  s.model <- m

let check_interrupt s =
  if s.interrupt () then begin
    cancel_until s 0;
    raise Interrupted
  end

let solve ?(assumptions = []) s =
  List.iter
    (fun l ->
      if l < 0 || l lsr 1 >= s.nvars then
        invalid_arg "Solver.solve: assumption on an unallocated variable";
      if s.eliminated.(l lsr 1) then uneliminate s (l lsr 1))
    assumptions;
  cancel_until s 0;
  if not s.ok then Unsat
  else if propagate s >= 0 then begin
    s.ok <- false;
    Unsat
  end
  else begin
    if not s.preprocessed then begin
      s.preprocessed <- true;
      List.iter (fun l -> freeze s (l lsr 1)) assumptions;
      preprocess s
    end;
    if not s.ok then Unsat
    else begin
      let assumptions = Array.of_list assumptions in
      let result = ref None in
      let restart_count = ref 0 in
      (try
         while !result = None do
           let budget = 1024 * luby !restart_count in
           incr restart_count;
           if !restart_count > 1 then s.n_restarts <- s.n_restarts + 1;
           check_interrupt s;
           if s.learned.Vec.n >= s.max_learned then begin
             reduce_db s;
             if not s.ok then result := Some Unsat
           end;
           let conflicts = ref 0 in
           (* One restart window. *)
           while !result = None && !conflicts < budget do
             let confl = propagate s in
             if confl >= 0 then begin
               s.n_conflicts <- s.n_conflicts + 1;
               incr conflicts;
               if s.n_conflicts land 1023 = 0 then check_interrupt s;
               if decision_level s = 0 then begin
                 s.ok <- false;
                 result := Some Unsat
               end
               else begin
                 let learnt, bt, lbd = analyze s confl in
                 let nlits = Array.length learnt in
                 s.n_learned <- s.n_learned + 1;
                 s.n_learned_lits <- s.n_learned_lits + nlits;
                 decay_activity s;
                 if nlits = 1 then begin
                   cancel_until s 0;
                   enqueue s learnt.(0) (-1)
                 end
                 else begin
                   (* Chronological backtracking: when the computed
                      backjump would unwind a long stretch of trail,
                      step back a single level instead — the learnt
                      clause is still asserting there. *)
                   let target =
                     if
                       bt < decision_level s - 1
                       && decision_level s - bt > chrono
                     then decision_level s - 1
                     else bt
                   in
                   cancel_until s target;
                   let cr = store_clause s ~learned:true ~lbd learnt in
                   enqueue s learnt.(0) cr
                 end
               end
             end
             else begin
               (* No conflict: extend with an assumption or decision. *)
               let lvl = decision_level s in
               if lvl < Array.length assumptions then begin
                 let l = assumptions.(lvl) in
                 match lit_value s l with
                 | 1 ->
                   (* Already true: burn a level so progress is made. *)
                   new_decision_level s;
                   ()
                 | 0 -> result := Some Unsat
                 | _ ->
                   new_decision_level s;
                   enqueue s l (-1)
               end
               else begin
                 let v = pick_branch_var s in
                 if v < 0 then begin
                   save_model s;
                   result := Some Sat
                 end
                 else begin
                   s.n_decisions <- s.n_decisions + 1;
                   new_decision_level s;
                   enqueue s (if s.phase.(v) then pos v else neg v) (-1)
                 end
               end
             end
           done;
           if !result = None then cancel_until s 0
         done
       with Interrupted ->
         cancel_until s 0;
         raise Interrupted);
      cancel_until s 0;
      match !result with Some r -> r | None -> assert false
    end
  end

let value s v =
  if v < 0 || v >= Array.length s.model then false else s.model.(v)

let lit_true s l =
  let b = value s (l lsr 1) in
  if is_pos l then b else not b

type stats = {
  vars : int;
  clauses : int;
  learned_clauses : int;
  learned_literals : int;
  decisions : int;
  propagations : int;
  conflicts : int;
  restarts : int;
  eliminated_vars : int;
  subsumed_clauses : int;
  strengthened_clauses : int;
  minimized_literals : int;
  db_reductions : int;
  removed_learned : int;
}

let stats s =
  {
    vars = s.nvars;
    clauses = s.n_clauses;
    learned_clauses = s.n_learned;
    learned_literals = s.n_learned_lits;
    decisions = s.n_decisions;
    propagations = s.n_propagations;
    conflicts = s.n_conflicts;
    restarts = s.n_restarts;
    eliminated_vars = s.n_eliminated;
    subsumed_clauses = s.n_subsumed;
    strengthened_clauses = s.n_strengthened;
    minimized_literals = s.n_minimized_lits;
    db_reductions = s.n_reductions;
    removed_learned = s.n_removed_learned;
  }

let empty_stats =
  { vars = 0; clauses = 0; learned_clauses = 0; learned_literals = 0;
    decisions = 0; propagations = 0; conflicts = 0; restarts = 0;
    eliminated_vars = 0; subsumed_clauses = 0; strengthened_clauses = 0;
    minimized_literals = 0; db_reductions = 0; removed_learned = 0 }

let sum_stats a b =
  { vars = a.vars + b.vars;
    clauses = a.clauses + b.clauses;
    learned_clauses = a.learned_clauses + b.learned_clauses;
    learned_literals = a.learned_literals + b.learned_literals;
    decisions = a.decisions + b.decisions;
    propagations = a.propagations + b.propagations;
    conflicts = a.conflicts + b.conflicts;
    restarts = a.restarts + b.restarts;
    eliminated_vars = a.eliminated_vars + b.eliminated_vars;
    subsumed_clauses = a.subsumed_clauses + b.subsumed_clauses;
    strengthened_clauses = a.strengthened_clauses + b.strengthened_clauses;
    minimized_literals = a.minimized_literals + b.minimized_literals;
    db_reductions = a.db_reductions + b.db_reductions;
    removed_learned = a.removed_learned + b.removed_learned }
