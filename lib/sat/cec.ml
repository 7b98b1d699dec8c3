type outcome =
  | Equivalent
  | Counterexample of bool array

let output_names net =
  List.sort compare (List.map fst (Network.outputs net))

let validate a b =
  if List.length (Network.inputs a) <> List.length (Network.inputs b) then
    invalid_arg "Cec: input counts differ";
  if output_names a <> output_names b then
    invalid_arg "Cec: output name sets differ"

(* ------------------------------------------------------------------ *)
(* Miter construction                                                 *)
(* ------------------------------------------------------------------ *)

(* Instantiate a copy of [net] inside [target], its input [k] driven by
   [input_of k]; returns the image of each original node. *)
let embed target input_of net =
  let image = Hashtbl.create 256 in
  List.iteri (fun k i -> Hashtbl.replace image i (input_of k)) (Network.inputs net);
  List.iter
    (fun i ->
      if not (Network.is_input net i) then begin
        let fanins =
          List.map (fun j -> Hashtbl.find image j) (Network.fanins net i)
        in
        Hashtbl.replace image i (Network.add_node target (Network.func net i) fanins)
      end)
    (Network.topo_order net);
  fun i -> Hashtbl.find image i

let rec or_tree net = function
  | [] -> Network.add_node ~name:"miter" net Expr.fls []
  | [ x ] -> x
  | xs ->
    let rec pair = function
      | a :: b :: rest ->
        Network.add_node net Expr.(var 0 ||| var 1) [ a; b ] :: pair rest
      | rest -> rest
    in
    or_tree net (pair xs)

let miter a b =
  validate a b;
  let n = List.length (Network.inputs a) in
  let t = Network.create () in
  let ins = Array.init n (fun _ -> Network.add_input t) in
  let ia = embed t (fun k -> ins.(k)) a in
  let ib = embed t (fun k -> ins.(k)) b in
  let outs_b = Network.outputs b in
  let diffs =
    List.map
      (fun nm ->
        let oa = ia (List.assoc nm (Network.outputs a)) in
        let ob = ib (List.assoc nm outs_b) in
        Network.add_node t Expr.(var 0 ^^^ var 1) [ oa; ob ])
      (output_names a)
  in
  Network.set_output t "miter" (or_tree t diffs);
  t

(* ------------------------------------------------------------------ *)
(* Counterexample replay through the event simulator                  *)
(* ------------------------------------------------------------------ *)

let replay a b vec =
  let m = miter a b in
  let n = List.length (Network.inputs m) in
  let base = Array.make n false in
  let base_value = List.assoc "miter" (Network.eval_outputs m base) in
  let r = Event_sim.run m Event_sim.Unit_delay [ base; vec ] in
  let miter_id = List.assoc "miter" (Network.outputs m) in
  let toggles =
    Option.value (Hashtbl.find_opt r.Event_sim.functional miter_id) ~default:0
  in
  (* Settled value on [vec] = value on [base], flipped once per settled
     transition of the single cycle simulated. *)
  if toggles land 1 = 1 then not base_value else base_value

(* ------------------------------------------------------------------ *)
(* The check                                                          *)
(* ------------------------------------------------------------------ *)

let confirmed a b vec =
  if replay a b vec then Counterexample vec
  else failwith "Cec.check: counterexample failed Event_sim replay"

let output_index bs nm =
  let outs = Compiled.outputs (Bitsim.compiled bs) in
  let idx = ref (-1) in
  Array.iter (fun (nm', x) -> if nm' = nm then idx := x) outs;
  assert (!idx >= 0);
  !idx

(* Encode both operands over shared inputs plus one XOR miter literal per
   matched output pair. *)
let encode_miters s a b =
  let env_a = Cnf.add_network s a in
  let env_b = Cnf.add_network ~inputs:env_a.Cnf.inputs s b in
  let miters =
    List.map
      (fun nm ->
        let la = Cnf.lit_of_output env_a nm in
        let lb = Cnf.lit_of_output env_b nm in
        ( nm,
          Cnf.lit_of_expr s
            ~leaf:(fun v -> if v = 0 then la else lb)
            Expr.(var 0 ^^^ var 1) ))
      (output_names a)
  in
  (env_a, miters)

let check ?(rounds = 4) ?(seed = 1) ?on_stats a b =
  validate a b;
  let n = List.length (Network.inputs a) in
  let names = output_names a in
  let rng = Lowpower.Rng.create seed in
  (* Simulation filter: find a disagreeing output pair cheaply — the shared
     word-parallel engine, 63 random vectors per round over flat planes. *)
  let ba = Bitsim.of_network a and bb = Bitsim.of_network b in
  let pa = Array.make (Bitsim.size ba) 0 in
  let pb = Array.make (Bitsim.size bb) 0 in
  let words = Array.make n 0 in
  let sim_cex = ref None in
  let round = ref 0 in
  while !sim_cex = None && !round < rounds do
    incr round;
    for k = 0 to n - 1 do
      words.(k) <- Lowpower.Rng.bernoulli_word rng 0.5
    done;
    Bitsim.eval_into ba words pa;
    Bitsim.eval_into bb words pb;
    List.iter
      (fun nm ->
        if !sim_cex = None then begin
          let wa = pa.(output_index ba nm) in
          let wb = pb.(output_index bb nm) in
          if wa <> wb then begin
            let bit = ref 0 in
            let d = wa lxor wb in
            while (d lsr !bit) land 1 = 0 do
              incr bit
            done;
            sim_cex :=
              Some (Array.init n (fun k -> (words.(k) lsr !bit) land 1 = 1))
          end
        end)
      names
  done;
  match !sim_cex with
  | Some vec -> confirmed a b vec
  | None ->
    (* Candidate-equivalent outputs: discharge each with one incremental
       SAT call over a shared encoding. *)
    let s = Solver.create () in
    let env_a, miters = encode_miters s a b in
    let finish r =
      Option.iter (fun f -> f (Solver.stats s)) on_stats;
      r
    in
    let rec go = function
      | [] -> finish Equivalent
      | (_, m) :: rest -> (
        match Solver.solve ~assumptions:[ m ] s with
        | Solver.Unsat -> go rest
        | Solver.Sat ->
          let vec =
            Array.map (fun l -> Solver.lit_true s l) env_a.Cnf.inputs
          in
          finish (confirmed a b vec))
    in
    go miters

let satisfiable net name =
  (match List.assoc_opt name (Network.outputs net) with
  | Some _ -> ()
  | None -> invalid_arg "Cec.satisfiable: unknown output");
  let s = Solver.create () in
  let env = Cnf.add_network s net in
  match Solver.solve ~assumptions:[ Cnf.lit_of_output env name ] s with
  | Solver.Unsat -> None
  | Solver.Sat -> Some (Array.map (Solver.lit_true s) env.Cnf.inputs)

(* ------------------------------------------------------------------ *)
(* Incremental sessions                                               *)
(* ------------------------------------------------------------------ *)

(* What [session_encode] sweeps operands onto, built on its first call
   so a session whose every check is answered elsewhere (a tournament
   whose candidates all hit the proof cache) pays nothing for it.  Every
   target is a base literal: its clauses are permanent, so a merge never
   outlives the clauses that justify it. *)
type sweep = {
  words : int array array;  (* per simulation round, one word per input *)
  own : (Network.id, Expr.t * Solver.lit array) Hashtbl.t;
      (* each base node's function and fanin literals *)
  by_struct : (Expr.t * Solver.lit array, Solver.lit) Hashtbl.t;
  by_sig : (int array, Solver.lit * bool) Hashtbl.t;
      (* normalized signature -> base literal, complemented? *)
  outs : (string * Solver.lit * int array) list;  (* by [output_names] *)
}

type session = {
  base : Network.t;
  s : Solver.t;
  env : Cnf.env;
  mutable retired : int;  (* activation literals retired since last simplify *)
  mutable sweep : sweep option;
}

let session net =
  let s = Solver.create () in
  let env = Cnf.add_network s net in
  { base = net; s; env; retired = 0; sweep = None }

let session_stats sess = Solver.stats sess.s

let retire sess act =
  Solver.add_clause sess.s [ Solver.negate act ];
  sess.retired <- sess.retired + 1;
  if sess.retired >= 8 then begin
    Solver.simplify sess.s;
    sess.retired <- 0
  end

let fresh_activation sess =
  let act = Solver.pos (Solver.new_var sess.s) in
  Solver.freeze sess.s (Solver.var_of act);
  act

type handle = {
  h_net : Network.t;
  h_act : Solver.lit;
  h_miters : (string * Solver.lit) list;  (* outputs the sweep left apart *)
  h_sim : outcome option;  (* a counterexample simulation already found *)
  mutable h_retired : bool;
}

(* Sweep simulation: [sweep_rounds] fixed-seed words of 63 vectors, the
   same for the base and every operand, so equal signatures are
   comparable across networks. *)
let sweep_rounds = 4
let sweep_seed = 0x5eed

(* Conflicts one local proof may spend before its node stays unmerged.
   The solver polls its interrupt only every 1,024 conflicts and at
   restarts, so a proof can overrun this by up to that much. *)
let sweep_conflicts = 1_000

(* The signature of each node id: its word in every round's value
   plane. *)
let signatures bs words =
  let planes =
    Array.map
      (fun w ->
        let p = Array.make (Bitsim.size bs) 0 in
        Bitsim.eval_into bs w p;
        p)
      words
  in
  let c = Bitsim.compiled bs in
  fun i ->
    let x = Compiled.index_of_id c i in
    Array.map (fun p -> p.(x)) planes

(* A signature and its complement share one key: the representative has
   vector 0 at 0. *)
let normalize sg =
  if sg.(0) land 1 = 1 then (Array.map lnot sg, true) else (sg, false)

let fanin_lits lit_of net i =
  Array.of_list (List.map lit_of (Network.fanins net i))

let build_sweep sess =
  let base = sess.base in
  let rng = Lowpower.Rng.create sweep_seed in
  let n = List.length (Network.inputs base) in
  let words =
    Array.init sweep_rounds (fun _ ->
        Array.init n (fun _ -> Lowpower.Rng.bernoulli_word rng 0.5))
  in
  let sig_of = signatures (Bitsim.of_network base) words in
  let lit_of = Cnf.lit_of_node sess.env in
  let own = Hashtbl.create 256 in
  let by_struct = Hashtbl.create 256 in
  let by_sig = Hashtbl.create 256 in
  List.iter
    (fun i ->
      let l = lit_of i in
      (* Later operands' clauses mention this literal: keep it out of
         variable elimination. *)
      Solver.freeze sess.s (Solver.var_of l);
      if not (Network.is_input base i) then begin
        let key = (Network.func base i, fanin_lits lit_of base i) in
        Hashtbl.replace own i key;
        if not (Hashtbl.mem by_struct key) then Hashtbl.replace by_struct key l
      end;
      let sg, compl = normalize (sig_of i) in
      if not (Hashtbl.mem by_sig sg) then Hashtbl.replace by_sig sg (l, compl))
    (Network.topo_order base);
  let outs =
    List.map
      (fun nm ->
        let o = List.assoc nm (Network.outputs base) in
        (nm, lit_of o, sig_of o))
      (output_names base)
  in
  { words; own; by_struct; by_sig; outs }

(* A literal true exactly when [a] and [b] differ, guarded by [act]. *)
let miter_lit sess act a b =
  Cnf.lit_of_expr ~activation:act sess.s
    ~leaf:(fun v -> if v = 0 then a else b)
    Expr.(var 0 ^^^ var 1)

(* One assumption solve that raises [Solver.Interrupted] once it has
   spent more than [conflicts] conflicts; the hook is removed either way. *)
let solve_within sess ~conflicts assumptions =
  let c0 = (Solver.stats sess.s).Solver.conflicts in
  Solver.set_interrupt sess.s (fun () ->
      (Solver.stats sess.s).Solver.conflicts - c0 > conflicts);
  Fun.protect
    ~finally:(fun () -> Solver.set_interrupt sess.s (fun () -> false))
    (fun () -> Solver.solve ~assumptions sess.s)

(* Local proof that operand literal [l] equals base literal [b] under
   [act], within [sweep_conflicts]; [false] when refuted or over the cap. *)
let prove_equal sess act l b =
  let m = miter_lit sess act l b in
  match solve_within sess ~conflicts:sweep_conflicts [ act; m ] with
  | Solver.Unsat -> true
  | Solver.Sat | (exception Solver.Interrupted) -> false

(* A vector on which some output's signature differs from the base's:
   the first differing lane of the first such output, in name order. *)
let simulation_cex sw sig_of outputs =
  List.find_map
    (fun (nm, _, bsig) ->
      let osig = sig_of (List.assoc nm outputs) in
      let r = ref 0 in
      while !r < sweep_rounds && osig.(!r) = bsig.(!r) do
        incr r
      done;
      if !r = sweep_rounds then None
      else begin
        let d = osig.(!r) lxor bsig.(!r) in
        let bit = ref 0 in
        while (d lsr !bit) land 1 = 0 do
          incr bit
        done;
        Some (Array.map (fun w -> (w lsr !bit) land 1 = 1) sw.words.(!r))
      end)
    sw.outs

(* SAT sweep of [other] onto the base encoding, in topological order.  A
   node whose function and fanin literals match a base node takes that
   node's literal, its own base id first so an unchanged copy lands
   exactly on the base; otherwise it is encoded under [act], and a
   signature match with a base node earns a capped local proof whose
   success substitutes the base literal in every later node. *)
let sweep_lits sess sw act sig_of other =
  let lits = Hashtbl.create 256 in
  List.iteri
    (fun k i -> Hashtbl.replace lits i sess.env.Cnf.inputs.(k))
    (Network.inputs other);
  List.iter
    (fun i ->
      if not (Network.is_input other i) then begin
        let f = Network.func other i in
        let fanins = fanin_lits (Hashtbl.find lits) other i in
        let key = (f, fanins) in
        let l =
          match Hashtbl.find_opt sw.own i with
          | Some k when k = key -> Cnf.lit_of_node sess.env i
          | _ -> (
            match Hashtbl.find_opt sw.by_struct key with
            | Some l -> l
            | None -> (
              let l =
                Cnf.lit_of_expr ~activation:act sess.s
                  ~leaf:(fun v -> fanins.(v))
                  f
              in
              let sg, compl = normalize (sig_of i) in
              match Hashtbl.find_opt sw.by_sig sg with
              | Some (b, bcompl) ->
                let b = if compl = bcompl then b else Solver.negate b in
                if b <> l && prove_equal sess act l b then b else l
              | None -> l))
        in
        Hashtbl.replace lits i l
      end)
    (Network.topo_order other);
  Hashtbl.find lits

let session_encode sess other =
  validate sess.base other;
  let sw =
    match sess.sweep with
    | Some sw -> sw
    | None ->
      let sw = build_sweep sess in
      sess.sweep <- Some sw;
      sw
  in
  let act = fresh_activation sess in
  let outputs = Network.outputs other in
  let handle miters sim =
    { h_net = other; h_act = act; h_miters = miters; h_sim = sim;
      h_retired = false }
  in
  let sig_of = signatures (Bitsim.of_network other) sw.words in
  match simulation_cex sw sig_of outputs with
  | Some vec -> handle [] (Some (confirmed sess.base other vec))
  | None ->
    let lit_of = sweep_lits sess sw act sig_of other in
    let miters =
      List.filter_map
        (fun (nm, bl, _) ->
          let ol = lit_of (List.assoc nm outputs) in
          if ol = bl then None else Some (nm, miter_lit sess act bl ol))
        sw.outs
    in
    handle miters None

let session_recheck ?conflicts sess h =
  if h.h_retired then invalid_arg "Cec.session_recheck: handle retired";
  let solve assumptions =
    match conflicts with
    | None -> Solver.solve ~assumptions sess.s
    | Some conflicts -> solve_within sess ~conflicts assumptions
  in
  let rec go = function
    | [] -> Equivalent
    | (_, m) :: rest -> (
      match solve [ h.h_act; m ] with
      | Solver.Unsat -> go rest
      | Solver.Sat ->
        let vec =
          Array.map (fun l -> Solver.lit_true sess.s l) sess.env.Cnf.inputs
        in
        confirmed sess.base h.h_net vec)
  in
  match h.h_sim with Some r -> r | None -> go h.h_miters

let session_retire sess h =
  if not h.h_retired then begin
    h.h_retired <- true;
    retire sess h.h_act
  end

let session_check ?conflicts sess other =
  let h = session_encode sess other in
  Fun.protect
    ~finally:(fun () -> session_retire sess h)
    (fun () -> session_recheck ?conflicts sess h)
