type dc = {
  node : Network.id;
  local_onset : Truth_table.t;
  dontcare : Truth_table.t;
}

type policy =
  | For_area
  | For_power of float array
  | For_power_fanout of float array

type stats = {
  vectors : int;
  witnessed : int;
  exhaustive : int;
  fallback : int;
  bdd_nodes : int;
}

(* Local function [e] of a node over the BDDs [fanins] of its fanins. *)
let bdd_of_expr man fanins e =
  let rec build = function
    | Expr.Const b -> if b then Bdd.tru man else Bdd.fls man
    | Expr.Var v -> fanins.(v)
    | Expr.Not e -> Bdd.not_ man (build e)
    | Expr.And es -> Bdd.and_list man (List.map build es)
    | Expr.Or es -> Bdd.or_list man (List.map build es)
    | Expr.Xor (a, b) -> Bdd.xor man (build a) (build b)
  in
  build e

(* Word-parallel value planes of every node over one fixed vector set, in
   [Compiled] indices.  A net with at most [exhaustive_inputs] inputs gets
   every input vector in [Bitsim]'s exhaustive layout (lane l of block b
   carries vector 63b + l), so the lanes of the last block past 2^npi
   repeat real vectors.
   A wider net gets [random_blocks] blocks of random vectors from a fixed
   seed.  [installed] keeps the planes current by re-simulating the
   changed node's fanout, as [Actsim] does for its trace. *)
type planes = {
  c : Compiled.t; (* wiring snapshot; local functions live in [eval_fn] *)
  all_vectors : bool;
  words : int array array; (* block -> compact index -> word *)
  eval_fn : (int array -> int) array;
  is_output : bool array;
  mark : bool array; (* scratch of [sim_cone]: all false between uses *)
  saved : int array; (* scratch of [witness]: one block's fanout words *)
}

(* Measured on 40-gate random nets: every vector beats random vectors plus
   the BDD fallback up to 11 inputs and loses from 12 on; past 16 blocks,
   more random vectors leave nearly as many visits to the fallback. *)
let exhaustive_inputs = 11
let random_blocks = 16
let vector_seed = 0x5eed

(* The session's BDDs: one manager holding the current global BDD of every
   node.  A visit builds its scratch BDDs between a mark and a release, so
   the store holds the globals plus the dead globals left by installs;
   once those outgrow [refresh_factor] times the live globals of the full
   build, the next visit that needs BDDs starts a fresh manager.  Every
   BDD is over the primary inputs alone, under [bdd_input_order], so it
   has the same graph in any manager: the globals and their probability
   floats are those a fresh manager per visit would give. *)
type bdds = {
  man : Bdd.man;
  globals : (Network.id, Bdd.t) Hashtbl.t;
  live : int; (* node count of the full build *)
}

type session = {
  net : Network.t;
  npi : int;
  mutable sim : planes option; (* built on the first [dc] *)
  mutable bdds : bdds option; (* built on the first visit that needs BDDs *)
  mutable s_witnessed : int;
  mutable s_exhaustive : int;
  mutable s_fallback : int;
}

let refresh_factor = 4

let session net =
  { net; npi = List.length (Network.inputs net); sim = None; bdds = None;
    s_witnessed = 0; s_exhaustive = 0; s_fallback = 0 }

let stats s =
  { vectors =
      (match s.sim with
      | None -> 0
      | Some p when p.all_vectors -> 1 lsl s.npi
      | Some p -> Array.length p.words * Bitsim.vectors_per_word);
    witnessed = s.s_witnessed; exhaustive = s.s_exhaustive;
    fallback = s.s_fallback;
    bdd_nodes =
      (match s.bdds with None -> 0 | Some b -> Bdd.node_count b.man) }

let planes s =
  match s.sim with
  | Some p -> p
  | None ->
    let c = Compiled.of_network s.net in
    let n = Compiled.size c and w = Bitsim.vectors_per_word in
    let all_vectors = s.npi <= exhaustive_inputs in
    let nblocks =
      if all_vectors then ((1 lsl s.npi) + w - 1) / w else random_blocks
    in
    let rng = Lowpower.Rng.create vector_seed in
    let eval_fn =
      Array.init n (fun x ->
          if Compiled.is_input c x then fun _ -> 0
          else Bitsim.compile_word (Compiled.fanins c x) (Compiled.local_func c x))
    in
    let words =
      Array.init nblocks (fun b ->
          let plane = Array.make n 0 in
          Array.iteri
            (fun k x ->
              plane.(x) <-
                (if all_vectors then Bitsim.exhaustive_word k b
                 else Int64.to_int (Lowpower.Rng.bits64 rng)))
            (Compiled.inputs c);
          Array.iter
            (fun x ->
              if not (Compiled.is_input c x) then plane.(x) <- eval_fn.(x) plane)
            (Compiled.topo c);
          plane)
    in
    let is_output = Array.make n false in
    Array.iter (fun (_, x) -> is_output.(x) <- true) (Compiled.outputs c);
    let p =
      { c; all_vectors; words; eval_fn; is_output;
        mark = Array.make n false; saved = Array.make n 0 }
    in
    s.sim <- Some p;
    p

(* [x]'s transitive fanout, [x] excluded, in topological order. *)
let sim_cone p x =
  let c = p.c in
  let topo = Compiled.topo c in
  let mark y = p.mark.(y) <- true in
  Array.iter mark (Compiled.fanouts c x);
  let cone = ref [] in
  for q = (Compiled.topo_pos c).(x) + 1 to Array.length topo - 1 do
    let y = topo.(q) in
    if p.mark.(y) then begin
      p.mark.(y) <- false;
      cone := y :: !cone;
      Array.iter mark (Compiled.fanouts c y)
    end
  done;
  Array.of_list (List.rev !cone)

(* The fanin codes of [x] that simulation witnesses as care points: a lane
   where complementing [x] changes some output is observable, and the code
   its fanins carry there is a care point.  Returns the witnessed codes
   (as a byte per code) and their number; blocks stop once every code is
   witnessed. *)
let witness p x =
  let fi = Compiled.fanins p.c x in
  let k = Array.length fi in
  let cone = sim_cone p x in
  let ncodes = 1 lsl k in
  let care = Bytes.make ncodes '\000' in
  let seen = ref 0 and b = ref 0 in
  while !seen < ncodes && !b < Array.length p.words do
    let plane = p.words.(!b) in
    let own = plane.(x) in
    plane.(x) <- lnot own;
    let diff = ref (if p.is_output.(x) then -1 else 0) in
    for i = 0 to Array.length cone - 1 do
      let y = cone.(i) in
      let old = plane.(y) in
      p.saved.(i) <- old;
      let v = p.eval_fn.(y) plane in
      plane.(y) <- v;
      if p.is_output.(y) then diff := !diff lor (v lxor old)
    done;
    plane.(x) <- own;
    for i = 0 to Array.length cone - 1 do
      plane.(cone.(i)) <- p.saved.(i)
    done;
    let lanes = ref !diff in
    while !lanes <> 0 && !seen < ncodes do
      let lane = Bitsim.popcount ((!lanes land (- !lanes)) - 1) in
      let code = ref 0 in
      for j = 0 to k - 1 do
        code := !code lor (((plane.(fi.(j)) lsr lane) land 1) lsl j)
      done;
      if Bytes.get care !code = '\000' then begin
        Bytes.set care !code '\001';
        incr seen
      end;
      lanes := !lanes land (!lanes - 1)
    done;
    incr b
  done;
  (care, !seen)

let bdds s =
  match s.bdds with
  | Some b -> b
  | None ->
    let man = Bdd.manager () in
    let globals = Network.global_bdds s.net man in
    let b = { man; globals; live = Bdd.node_count man } in
    s.bdds <- Some b;
    b

(* Run [f] as one visit: everything it builds is released afterwards, so
   no BDD may escape it. *)
let scoped b f =
  let mk = Bdd.mark b.man in
  Fun.protect ~finally:(fun () -> Bdd.release b.man mk) f

(* Node [n] re-implemented as [e], over its fanins' globals. *)
let node_bdd s b n e =
  bdd_of_expr b.man
    (Array.of_list
       (List.map (Hashtbl.find b.globals) (Network.fanins s.net n)))
    e

(* [n] and its transitive fanout, as a set and in topological order. *)
let fanout_cone s n =
  let fanout = Hashtbl.create 16 in
  let rec mark i =
    if not (Hashtbl.mem fanout i) then begin
      Hashtbl.replace fanout i ();
      List.iter mark (Network.fanouts s.net i)
    end
  in
  mark n;
  (fanout, List.filter (Hashtbl.mem fanout) (Network.topo_order s.net))

(* Global BDDs of [cone] (topologically ordered, [n] first) with [n]'s
   function replaced by [top]; nodes outside the cone keep the session's
   globals. *)
let cone_bdds s b cone n top =
  let bdds = Hashtbl.create 16 in
  let global j =
    match Hashtbl.find_opt bdds j with
    | Some f -> f
    | None -> Hashtbl.find b.globals j
  in
  List.iter
    (fun i ->
      Hashtbl.replace bdds i
        (if i = n then top
         else
           bdd_of_expr b.man
             (Array.of_list (List.map global (Network.fanins s.net i)))
             (Network.func s.net i)))
    cone;
  bdds

let installed s n =
  (match s.sim with
  | None -> ()
  | Some p ->
    let x = Compiled.index_of_id p.c n in
    p.eval_fn.(x) <-
      Bitsim.compile_word (Compiled.fanins p.c x) (Network.func s.net n);
    let cone = sim_cone p x in
    Array.iter
      (fun plane ->
        plane.(x) <- p.eval_fn.(x) plane;
        Array.iter (fun y -> plane.(y) <- p.eval_fn.(y) plane) cone)
      p.words);
  match s.bdds with
  | None -> ()
  | Some b ->
    let _, cone = fanout_cone s n in
    let top = node_bdd s b n (Network.func s.net n) in
    Hashtbl.iter (Hashtbl.replace b.globals) (cone_bdds s b cone n top);
    if Bdd.node_count b.man > refresh_factor * b.live then s.bdds <- None

(* Global ODC of [n] over the inputs, from a flipped cone: [n]'s global is
   complemented and its transitive fanout rebuilt over it, and [n] is
   unobservable where every output in that cone keeps its global value
   (an output outside it cannot change). *)
let odc s b n =
  let man = b.man in
  let _, cone = fanout_cone s n in
  let flipped =
    cone_bdds s b cone n (Bdd.not_ man (Hashtbl.find b.globals n))
  in
  List.fold_left
    (fun acc (_, o) ->
      match Hashtbl.find_opt flipped o with
      | None -> acc
      | Some f -> Bdd.and_ man acc (Bdd.xnor man f (Hashtbl.find b.globals o)))
    (Bdd.tru man) (Network.outputs s.net)

(* The BDD decision for the codes simulation left unwitnessed: a code is a
   care point iff some input vector both produces it at the fanins and is
   observable.  The fanins are fixed from the last down, each literal's
   global conjoined into the observable set, so every subtree is one
   contiguous code range; a range is dropped once its set is empty (its
   codes are don't-cares) or every code in it is witnessed. *)
let settle s n care =
  let b = bdds s in
  let man = b.man in
  let g =
    Array.of_list (List.map (Hashtbl.find b.globals) (Network.fanins s.net n))
  in
  let k = Array.length g in
  let below = Array.make ((1 lsl k) + 1) 0 in
  for code = 0 to (1 lsl k) - 1 do
    below.(code + 1) <- below.(code) + Char.code (Bytes.get care code)
  done;
  let rec go f j lo =
    let hi = lo + (1 lsl j) in
    if (not (Bdd.is_false f)) && below.(hi) - below.(lo) < hi - lo then
      if j = 0 then Bytes.set care lo '\001'
      else begin
        go (Bdd.and_ man f (Bdd.not_ man g.(j - 1))) (j - 1) lo;
        go (Bdd.and_ man f g.(j - 1)) (j - 1) (lo + (1 lsl (j - 1)))
      end
  in
  scoped b (fun () -> go (Bdd.not_ man (odc s b n)) k 0)

let dc s n =
  let net = s.net in
  if Network.is_input net n then invalid_arg "Dontcare.dc: input node";
  let k = List.length (Network.fanins net n) in
  if k > 16 then invalid_arg "Dontcare.dc: more than 16 fanins";
  let p = planes s in
  let care, seen = witness p (Compiled.index_of_id p.c n) in
  if seen = 1 lsl k then s.s_witnessed <- s.s_witnessed + 1
  else if p.all_vectors then s.s_exhaustive <- s.s_exhaustive + 1
  else begin
    s.s_fallback <- s.s_fallback + 1;
    settle s n care
  end;
  { node = n;
    local_onset = Truth_table.of_expr k (Network.func net n);
    dontcare = Truth_table.of_fun k (fun code -> Bytes.get care code = '\000') }

let observability s n =
  if Network.is_input s.net n then
    invalid_arg "Dontcare.observability: input node";
  let b = bdds s in
  scoped b (fun () -> Cover.of_bdd s.npi b.man (odc s b n))

let minimized_candidates d =
  if Truth_table.ones d.dontcare = 0 then
    (* Without don't-cares the three assignments below coincide. *)
    let m = Cover.minimize (Cover.of_truth_table d.local_onset) in
    [ m; m; m ]
  else
    let care = Truth_table.not_ d.dontcare in
    let onset_care = Truth_table.and_ d.local_onset care in
    let dc_cover = Cover.of_truth_table d.dontcare in
    (* Three assignments of the don't-cares: free (minimizer decides), all
       to 0 (low probability bias), all to 1 (high probability bias). *)
    let free_min =
      Cover.minimize ~dc:dc_cover (Cover.of_truth_table onset_care)
    in
    let zero_min = Cover.minimize (Cover.of_truth_table onset_care) in
    let one_min =
      Cover.minimize
        (Cover.of_truth_table (Truth_table.or_ d.local_onset d.dontcare))
    in
    [ free_min; zero_min; one_min ]

(* Signal probability of node [n] re-implemented as [cand]. *)
let candidate_probability s b n cand ~input_probs =
  Bdd.probability b.man (fun v -> input_probs.(v))
    (node_bdd s b n (Cover.to_expr cand))

(* Capacitance-weighted activity of [n]'s transitive fanout ([fanout] as
   a set, [cone] in topological order) under exact probabilities, with
   [n] re-implemented as [cand]: the cone is rebuilt over the session's
   globals. *)
let fanout_cost s b n (fanout, cone) cand ~input_probs =
  let bdds = cone_bdds s b cone n (node_bdd s b n (Cover.to_expr cand)) in
  let ps =
    Bdd.probabilities b.man (fun v -> input_probs.(v))
      (List.map (Hashtbl.find bdds) cone)
  in
  let probs = Hashtbl.create 16 in
  List.iter2 (Hashtbl.replace probs) cone ps;
  Hashtbl.fold
    (fun i () acc ->
      let p = Hashtbl.find probs i in
      acc +. (Network.cap s.net i *. 2.0 *. p *. (1.0 -. p)))
    fanout 0.0

(* Lowest cost first; costs within 1e-12 of each other tie and fall to the
   fewer literals, then to the earlier candidate. *)
let cheapest cost cands =
  let beats (a, l, _) (ba, bl, _) =
    a < ba -. 1e-12 || (Float.abs (a -. ba) <= 1e-12 && l < bl)
  in
  List.fold_left
    (fun acc c ->
      let s = (cost c, Cover.literal_count c, c) in
      match acc with
      | Some best when not (beats s best) -> acc
      | _ -> Some s)
    None cands

let optimize_node s policy n =
  let net = s.net in
  if Network.is_input net n || List.length (Network.fanins net n) > 16 then
    false
  else begin
    let current_lits = Expr.literal_count (Network.func net n) in
    let old_cover () =
      Cover.of_truth_table
        (Truth_table.of_expr
           (List.length (Network.fanins net n))
           (Network.func net n))
    in
    let d = dc s n in
    let cands = minimized_candidates d in
    (* The first candidate with the fewest cube literals. *)
    let by_area () =
      Option.map
        (fun c -> (c, Expr.literal_count (Cover.to_expr c) < current_lits))
        (List.fold_left
           (fun acc c ->
             match acc with
             | Some b when Cover.literal_count c >= Cover.literal_count b ->
               acc
             | _ -> Some c)
           None cands)
    in
    (* Without don't-cares every candidate keeps [n]'s global function, so
       every probability score equals the incumbent's: the power policy
       falls to its literal tie-break, which is the area rule, and the
       fanout policy keeps the node. *)
    let no_dc = Truth_table.ones d.dontcare = 0 in
    (* The chosen cover, and whether it beats the current implementation;
       the scores of each node come from one visit. *)
    let chosen =
      match policy with
      | For_area -> by_area ()
      | For_power _ when no_dc -> by_area ()
      | For_power_fanout _ when no_dc -> None
      | For_power_fanout input_probs ->
        let b = bdds s in
        scoped b (fun () ->
            let cone = fanout_cone s n in
            let cost c = fanout_cost s b n cone c ~input_probs in
            Option.map
              (fun (a, _, c) -> (c, a < cost (old_cover ()) -. 1e-12))
              (cheapest cost cands))
      | For_power input_probs ->
        let b = bdds s in
        scoped b (fun () ->
            let act c =
              let p = candidate_probability s b n c ~input_probs in
              2.0 *. p *. (1.0 -. p)
            in
            Option.map
              (fun (a, _, c) ->
                let old_a = act (old_cover ()) in
                ( c,
                  a < old_a -. 1e-12
                  || (Float.abs (a -. old_a) <= 1e-12
                     && Expr.literal_count (Cover.to_expr c) < current_lits)
                ))
              (cheapest act cands))
    in
    match chosen with
    | Some (cover, true) ->
      let expr = Cover.to_expr cover in
      if Expr.equal expr (Network.func net n) then false
      else begin
        Network.replace_func net n expr (Network.fanins net n);
        installed s n;
        true
      end
    | _ -> false
  end

(* The don't-care computation guarantees equivalence by construction; the
   [?verify] argument re-proves it independently (miter + SAT), the safety
   net for bugs in the DC machinery itself. *)
let optimize ?verify net policy =
  let mode = Verify.resolve verify in
  let before = if mode = `Off then None else Some (Network.copy net) in
  let s = session net in
  let changed =
    List.fold_left
      (fun changed i ->
        if Network.is_input net i then changed
        else if optimize_node s policy i then changed + 1
        else changed)
      0 (Network.topo_order net)
  in
  (match before with
  | Some b -> Verify.equivalent ~mode ~pass:"Dontcare.optimize" b net
  | None -> ());
  changed
