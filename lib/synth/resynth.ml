type result = {
  changed : int;
  tried : int;
  initial_score : float;
  final_score : float;
  sim : Actsim.stats;
}

(* Candidate implementations of one node: the don't-care-minimized covers,
   simplified and deduplicated, with the installed function dropped (it is
   the incumbent, measured already). *)
let candidates session net n =
  let installed = Network.func net n in
  List.fold_left
    (fun acc cover ->
      let e = Expr.simplify (Cover.to_expr cover) in
      if Expr.equal e installed || List.exists (Expr.equal e) acc then acc
      else e :: acc)
    []
    (Dontcare.minimized_candidates (Dontcare.dc session n))

let measured ?verify ?(max_fanin = 10) net ~trace =
  let max_fanin = min max_fanin 16 in
  let vmode = Verify.resolve verify in
  let before = if vmode = `Off then None else Some (Network.copy net) in
  let sim = Actsim.create net ~trace in
  (* The session learns only the function each node keeps; the candidates
     tried on the engine in between never reach its globals. *)
  let session = Dontcare.session net in
  let initial_score = Actsim.switched_capacitance sim in
  let changed = ref 0 and tried = ref 0 in
  List.iter
    (fun n ->
      if
        (not (Network.is_input net n))
        && List.length (Network.fanins net n) <= max_fanin
      then begin
        let fanins = Network.fanins net n in
        let original = Network.func net n in
        let install e =
          Network.replace_func net n e fanins;
          Actsim.update sim n
        in
        let best = ref original
        and best_score = ref (Actsim.switched_capacitance sim) in
        List.iter
          (fun e ->
            incr tried;
            install e;
            let s = Actsim.switched_capacitance sim in
            if s < !best_score -. 1e-9 then begin
              best := e;
              best_score := s
            end)
          (candidates session net n);
        if not (Expr.equal (Network.func net n) !best) then install !best;
        if not (Expr.equal !best original) then begin
          incr changed;
          Dontcare.installed session n
        end
      end)
    (Network.topo_order net);
  (match before with
  | Some b -> Verify.equivalent ~mode:vmode ~pass:"Resynth.measured" b net
  | None -> ());
  {
    changed = !changed;
    tried = !tried;
    initial_score;
    final_score = Actsim.switched_capacitance sim;
    sim = Actsim.stats sim;
  }
