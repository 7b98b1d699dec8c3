type env = {
  net : Network.t;
  inputs : Solver.lit array;
  nodes : (Network.id, Solver.lit) Hashtbl.t;
}

(* Every emitted clause optionally carries a negated activation literal,
   so a whole encoding can later be retired with the unit clause [¬act]
   (and physically deleted by {!Solver.simplify}) — the mechanism behind
   the incremental CEC sessions in {!Cec}. *)
let clause ?activation s lits =
  match activation with
  | None -> Solver.add_clause s lits
  | Some act -> Solver.add_clause s (Solver.negate act :: lits)

(* One fresh definition variable per operator node; the returned literal
   is constrained equivalent to the subtree.  Negation is free (literal
   complement), so NOT chains add no variables or clauses. *)
let rec lit_of_expr ?activation s ~leaf e =
  match e with
  | Expr.Const true -> Solver.true_lit s
  | Expr.Const false -> Solver.negate (Solver.true_lit s)
  | Expr.Var v -> leaf v
  | Expr.Not e -> Solver.negate (lit_of_expr ?activation s ~leaf e)
  | Expr.And [] -> Solver.true_lit s
  | Expr.And [ e ] -> lit_of_expr ?activation s ~leaf e
  | Expr.And es ->
    let ls = List.map (lit_of_expr ?activation s ~leaf) es in
    let y = Solver.pos (Solver.new_var s) in
    List.iter (fun l -> clause ?activation s [ Solver.negate y; l ]) ls;
    clause ?activation s (y :: List.map Solver.negate ls);
    y
  | Expr.Or [] -> Solver.negate (Solver.true_lit s)
  | Expr.Or [ e ] -> lit_of_expr ?activation s ~leaf e
  | Expr.Or es ->
    let ls = List.map (lit_of_expr ?activation s ~leaf) es in
    let y = Solver.pos (Solver.new_var s) in
    List.iter (fun l -> clause ?activation s [ y; Solver.negate l ]) ls;
    clause ?activation s (Solver.negate y :: ls);
    y
  | Expr.Xor (a, b) ->
    let la = lit_of_expr ?activation s ~leaf a
    and lb = lit_of_expr ?activation s ~leaf b in
    let y = Solver.pos (Solver.new_var s) in
    let ny = Solver.negate y
    and na = Solver.negate la
    and nb = Solver.negate lb in
    clause ?activation s [ ny; la; lb ];
    clause ?activation s [ ny; na; nb ];
    clause ?activation s [ y; na; lb ];
    clause ?activation s [ y; la; nb ];
    y

let fresh_inputs s n = Array.init n (fun _ -> Solver.pos (Solver.new_var s))

let input_lits ?inputs s n =
  match inputs with
  | None -> fresh_inputs s n
  | Some arr ->
    if Array.length arr <> n then
      invalid_arg "Cnf: input literal count mismatch";
    arr

(* Every boundary variable — primary inputs and output literals — is
   frozen, so preprocessing-by-elimination never removes a variable that
   later clauses, assumptions or model queries mention. *)
let add_network ?inputs s net =
  let ins = Network.inputs net in
  let input_arr = input_lits ?inputs s (List.length ins) in
  let nodes = Hashtbl.create 256 in
  List.iteri (fun k i -> Hashtbl.replace nodes i input_arr.(k)) ins;
  List.iter
    (fun i ->
      if not (Network.is_input net i) then begin
        let fanins =
          Array.of_list
            (List.map (fun j -> Hashtbl.find nodes j) (Network.fanins net i))
        in
        let l =
          lit_of_expr s ~leaf:(fun v -> fanins.(v)) (Network.func net i)
        in
        Hashtbl.replace nodes i l
      end)
    (Network.topo_order net);
  Array.iter (fun l -> Solver.freeze s (Solver.var_of l)) input_arr;
  List.iter
    (fun (_, o) -> Solver.freeze s (Solver.var_of (Hashtbl.find nodes o)))
    (Network.outputs net);
  { net; inputs = input_arr; nodes }

let lit_of_node env i = Hashtbl.find env.nodes i

let lit_of_output env name =
  lit_of_node env (List.assoc name (Network.outputs env.net))
