type dc = {
  node : Network.id;
  local_onset : Truth_table.t;
  dontcare : Truth_table.t;
}

type policy =
  | For_area
  | For_power of float array
  | For_power_fanout of float array

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

(* A pass's don't-care session: one manager holding the current global
   BDDs of [net].  A visit builds its scratch BDDs between a mark and a
   release, so the store holds the globals plus the dead globals left by
   installs; once those outgrow [refresh_factor] times the live globals
   of the last full build, the session starts a fresh manager.

   The fanin variables y and the free variable z sit below the primary
   inputs (they are appended in index order after [Network.global_bdds]
   installs [bdd_input_order]), so every BDD over the inputs alone has
   the same graph in any manager: the session's globals, the don't-care
   tables, the candidate covers and their probability floats are those a
   fresh manager per visit would give. *)
type session = {
  net : Network.t;
  npi : int;
  mutable man : Bdd.man;
  mutable globals : (Network.id, Bdd.t) Hashtbl.t;
  mutable live : int; (* node count of the last full build *)
}

let refresh_factor = 4

let session net =
  let man = Bdd.manager () in
  let globals = Network.global_bdds net man in
  { net; npi = List.length (Network.inputs net); man; globals;
    live = Bdd.node_count man }

(* Run [f] as one visit: everything it builds is released afterwards, so
   no BDD may escape it. *)
let scoped s f =
  let mk = Bdd.mark s.man in
  Fun.protect ~finally:(fun () -> Bdd.release s.man mk) f

(* Node [n] re-implemented as [e], over its fanins' globals. *)
let node_bdd s n e =
  bdd_of_expr s.man
    (Array.of_list
       (List.map (Hashtbl.find s.globals) (Network.fanins s.net n)))
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
let cone_bdds s cone n top =
  let bdds = Hashtbl.create 16 in
  let global j =
    match Hashtbl.find_opt bdds j with
    | Some b -> b
    | None -> Hashtbl.find s.globals j
  in
  List.iter
    (fun i ->
      Hashtbl.replace bdds i
        (if i = n then top
         else
           bdd_of_expr s.man
             (Array.of_list (List.map global (Network.fanins s.net i)))
             (Network.func s.net i)))
    cone;
  bdds

let installed s n =
  let _, cone = fanout_cone s n in
  let top = node_bdd s n (Network.func s.net n) in
  Hashtbl.iter (Hashtbl.replace s.globals) (cone_bdds s cone n top);
  if Bdd.node_count s.man > refresh_factor * s.live then begin
    let man = Bdd.manager () in
    s.man <- man;
    s.globals <- Network.global_bdds s.net man;
    s.live <- Bdd.node_count man
  end

(* Global ODC of [n] over the inputs, as a function of the session's
   manager: the outputs are rebuilt over the free variable [zvar] in place
   of [n], on [n]'s transitive fanout only; an output outside it has zero
   Boolean difference in z. *)
let odc_global s n zvar =
  let man = s.man in
  let _, cone = fanout_cone s n in
  let free = cone_bdds s cone n (Bdd.var man zvar) in
  List.fold_left
    (fun acc (_, o) ->
      match Hashtbl.find_opt free o with
      | None -> acc
      | Some f ->
        Bdd.and_ man acc (Bdd.not_ man (Bdd.boolean_difference man f zvar)))
    (Bdd.tru man) (Network.outputs s.net)

let dc_in s n =
  let net = s.net and man = s.man in
  if Network.is_input net n then invalid_arg "Dontcare.dc: input node";
  let fanins = Network.fanins net n in
  let k = List.length fanins in
  if k > 16 then invalid_arg "Dontcare.dc: more than 16 fanins";
  let npi = s.npi in
  (* Variables: 0..npi-1 are primary inputs; npi..npi+k-1 stand for the
     fanin values y; npi+k is the free variable z. *)
  let yvar j = npi + j in
  let pis = List.init npi (fun i -> i) in
  (* Consistency relation C(x, y). *)
  let consistency =
    Bdd.and_list man
      (List.mapi
         (fun j fi ->
           Bdd.xnor man (Bdd.var man (yvar j)) (Hashtbl.find s.globals fi))
         fanins)
  in
  let sdc = Bdd.not_ man (Bdd.exists man pis consistency) in
  let odc_global = odc_global s n (npi + k) in
  (* y is a local ODC iff every x consistent with y is globally
     unobservable; the fused relational product skips the intermediate
     consistency∧observable conjunction. *)
  let odc_local =
    Bdd.not_ man
      (Bdd.and_exists man pis consistency (Bdd.not_ man odc_global))
  in
  let dc_bdd = Bdd.or_ man sdc odc_local in
  let tt_of bdd =
    Truth_table.of_fun k (fun code ->
        Bdd.eval bdd (fun v ->
            if v >= npi && v < npi + k then code land (1 lsl (v - npi)) <> 0
            else false))
  in
  let local_onset = Truth_table.of_expr k (Network.func net n) in
  { node = n; local_onset; dontcare = tt_of dc_bdd }

let dc s n = scoped s (fun () -> dc_in s n)

let observability s n =
  if Network.is_input s.net n then
    invalid_arg "Dontcare.observability: input node";
  scoped s (fun () ->
      Cover.of_bdd s.npi s.man
        (odc_global s n (s.npi + List.length (Network.fanins s.net n))))

let minimized_candidates d =
  let care = Truth_table.not_ d.dontcare in
  let onset_care = Truth_table.and_ d.local_onset care in
  let dc_cover = Cover.of_truth_table d.dontcare in
  (* Three assignments of the don't-cares: free (minimizer decides), all to
     0 (low probability bias), all to 1 (high probability bias). *)
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
let candidate_probability s n cand ~input_probs =
  Bdd.probability s.man (fun v -> input_probs.(v))
    (node_bdd s n (Cover.to_expr cand))

(* Capacitance-weighted activity of [n]'s transitive fanout ([fanout] as
   a set, [cone] in topological order) under exact probabilities, with
   [n] re-implemented as [cand]: the cone is rebuilt over the session's
   globals. *)
let fanout_cost s n (fanout, cone) cand ~input_probs =
  let bdds = cone_bdds s cone n (node_bdd s n (Cover.to_expr cand)) in
  let ps =
    Bdd.probabilities s.man (fun v -> input_probs.(v))
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
    (* The chosen cover, and whether it beats the current implementation;
       the don't-cares and every score come from one visit. *)
    let chosen =
      scoped s (fun () ->
          let cands = minimized_candidates (dc_in s n) in
          match policy with
          | For_area ->
            (* The first candidate with the fewest cube literals. *)
            let best =
              List.fold_left
                (fun acc c ->
                  match acc with
                  | Some b
                    when Cover.literal_count c >= Cover.literal_count b ->
                    acc
                  | _ -> Some c)
                None cands
            in
            Option.map
              (fun c ->
                (c, Expr.literal_count (Cover.to_expr c) < current_lits))
              best
          | For_power_fanout input_probs ->
            let cone = fanout_cone s n in
            let cost c = fanout_cost s n cone c ~input_probs in
            Option.map
              (fun (a, _, c) -> (c, a < cost (old_cover ()) -. 1e-12))
              (cheapest cost cands)
          | For_power input_probs ->
            let act c =
              let p = candidate_probability s n c ~input_probs in
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
