type dc = {
  node : Network.id;
  local_onset : Truth_table.t;
  dontcare : Truth_table.t;
}

type policy =
  | For_area
  | For_power of float array
  | For_power_fanout of float array

(* [globals] are [net]'s global BDDs in [man].  The fanin variables y
   and the free variable z are appended below the primary-input levels,
   so every BDD over the inputs alone keeps the same canonical graph
   whichever manager it is built in, and its probability the same
   floats. *)
let compute_in man globals net n =
  if Network.is_input net n then invalid_arg "Dontcare.compute: input node";
  let fanins = Network.fanins net n in
  let k = List.length fanins in
  if k > 16 then invalid_arg "Dontcare.compute: more than 16 fanins";
  let npi = List.length (Network.inputs net) in
  (* Variables: 0..npi-1 are primary inputs; npi..npi+k-1 stand for the
     fanin values y; npi+k is the free variable z. *)
  let yvar j = npi + j in
  let zvar = npi + k in
  let pis = List.init npi (fun i -> i) in
  (* Consistency relation C(x, y). *)
  let consistency =
    Bdd.and_list man
      (List.mapi
         (fun j fi ->
           Bdd.xnor man (Bdd.var man (yvar j)) (Hashtbl.find globals fi))
         fanins)
  in
  let sdc = Bdd.not_ man (Bdd.exists man pis consistency) in
  (* Observability: outputs as functions of x and z. *)
  let free = Network.global_bdds_with_free net man ~node:n ~free_var:zvar in
  let odc_global =
    List.fold_left
      (fun acc (_, o) ->
        let sens = Bdd.boolean_difference man (Hashtbl.find free o) zvar in
        Bdd.and_ man acc (Bdd.not_ man sens))
      (Bdd.tru man) (Network.outputs net)
  in
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

let compute net n =
  let man = Bdd.manager () in
  compute_in man (Network.global_bdds net man) net n

let minimized_candidates d =
  let k = Truth_table.num_vars d.local_onset in
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
  ignore k;
  [ free_min; zero_min; one_min ]

(* Signal probability of node [n] re-implemented as [cand], over the
   global BDDs [globals] of its fanins. *)
let candidate_probability man globals net n cand ~input_probs =
  let fanins =
    Array.of_list
      (List.map (fun j -> Hashtbl.find globals j) (Network.fanins net n))
  in
  let rec build = function
    | Expr.Const b -> if b then Bdd.tru man else Bdd.fls man
    | Expr.Var v -> fanins.(v)
    | Expr.Not e -> Bdd.not_ man (build e)
    | Expr.And es -> Bdd.and_list man (List.map build es)
    | Expr.Or es -> Bdd.or_list man (List.map build es)
    | Expr.Xor (a, b) -> Bdd.xor man (build a) (build b)
  in
  Bdd.probability man (fun v -> input_probs.(v)) (build (Cover.to_expr cand))

(* Capacitance-weighted activity of a node set under exact probabilities,
   with node [n]'s local function temporarily replaced by [cand]. *)
let fanout_cost net n cand ~input_probs =
  let fanout = Hashtbl.create 16 in
  let rec mark i =
    if not (Hashtbl.mem fanout i) then begin
      Hashtbl.replace fanout i ();
      List.iter mark (Network.fanouts net i)
    end
  in
  mark n;
  let old_f = Network.func net n in
  let fanins = Network.fanins net n in
  Network.replace_func net n (Cover.to_expr cand) fanins;
  let probs = Probability.exact net ~input_probs in
  Network.replace_func net n old_f fanins;
  Hashtbl.fold
    (fun i () acc ->
      let p = Hashtbl.find probs i in
      acc +. (Network.cap net i *. 2.0 *. p *. (1.0 -. p)))
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

let optimize_node net policy n =
  if Network.is_input net n || List.length (Network.fanins net n) > 16 then
    false
  else begin
    (* One manager and one global build serve the don't-care computation
       and the scoring of every candidate at this node. *)
    let man = Bdd.manager () in
    let globals = Network.global_bdds net man in
    let d = compute_in man globals net n in
    let cands = minimized_candidates d in
    let current_lits = Expr.literal_count (Network.func net n) in
    let old_cover () =
      Cover.of_truth_table
        (Truth_table.of_expr
           (List.length (Network.fanins net n))
           (Network.func net n))
    in
    (* The chosen cover, and whether it beats the current implementation. *)
    let chosen =
      match policy with
      | For_area ->
        (* The first candidate with the fewest cube literals. *)
        let best =
          List.fold_left
            (fun acc c ->
              match acc with
              | Some b when Cover.literal_count c >= Cover.literal_count b ->
                acc
              | _ -> Some c)
            None cands
        in
        Option.map
          (fun c -> (c, Expr.literal_count (Cover.to_expr c) < current_lits))
          best
      | For_power_fanout input_probs ->
        let cost c = fanout_cost net n c ~input_probs in
        Option.map
          (fun (a, _, c) -> (c, a < cost (old_cover ()) -. 1e-12))
          (cheapest cost cands)
      | For_power input_probs ->
        let act c =
          let p = candidate_probability man globals net n c ~input_probs in
          2.0 *. p *. (1.0 -. p)
        in
        Option.map
          (fun (a, _, c) ->
            let old_a = act (old_cover ()) in
            ( c,
              a < old_a -. 1e-12
              || (Float.abs (a -. old_a) <= 1e-12
                 && Expr.literal_count (Cover.to_expr c) < current_lits) ))
          (cheapest act cands)
    in
    match chosen with
    | Some (cover, true) ->
      let expr = Cover.to_expr cover in
      if Expr.equal expr (Network.func net n) then false
      else begin
        Network.replace_func net n expr (Network.fanins net n);
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
  let changed =
    List.fold_left
      (fun changed i ->
        if Network.is_input net i then changed
        else if optimize_node net policy i then changed + 1
        else changed)
      0 (Network.topo_order net)
  in
  (match before with
  | Some b -> Verify.equivalent ~mode ~pass:"Dontcare.optimize" b net
  | None -> ());
  changed
