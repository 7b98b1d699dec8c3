(* The arch -> logic bridge: lower a word-level DFG onto gate primitives
   so rewrite candidates can be activity-costed ([Bitsim]) and proven
   ([Sat.Cec]) at the level power actually lives.

   Conventions the whole rewrite subsystem relies on:
   - input words are elaborated in {e sorted name order}, bit [k] of word
     [nm] as input ["nm.k"]; output bits likewise ["nm.k"].  Two
     elaborations over the same [?inputs] therefore agree on input count
     and positions, which is what [Cec.session_check] matches on.
   - commutative operands are ordered canonically (constants second,
     otherwise by {!Dfg.node_hash}), so graphs equal modulo commutation
     — which also collide on [Dfg.structural_hash] — elaborate to the
     same netlist, keeping the hash-keyed activity cache sound.
   - constant bits fold through every gate builder and a structural gate
     cache dedups identical (op, fanins) gates, so a constant-coefficient
     array multiplier collapses to its live shift-add rows.  A candidate
     and its parent elaborate to the same gates wherever the rewrite left
     the graph alone, which is what lets [Cec.session_check] sweep the
     untouched cones onto the parent's encoding. *)

type bit = Zero | One | N of Network.id

let xor2 = Expr.Xor (Expr.var 0, Expr.var 1)
let and2 = Expr.And [ Expr.var 0; Expr.var 1 ]
let or2 = Expr.Or [ Expr.var 0; Expr.var 1 ]
let not1 = Expr.not_ (Expr.var 0)
let buf1 = Expr.var 0

(* The bit-level builders over one target network and its structural
   gate cache. *)
type builder = {
  w : int;
  band : bit -> bit -> bit;
  bor : bit -> bit -> bit;
  bxor : bit -> bit -> bit;
  anchor : bit -> Network.id;
}

let make_builder net w =
  let cache = Hashtbl.create 256 in
  let gate tag expr fanins =
    let key = (tag, fanins) in
    match Hashtbl.find_opt cache key with
    | Some id -> id
    | None ->
      let id = Network.add_node net expr fanins in
      Hashtbl.replace cache key id;
      id
  in
  let sort2 i j = if i <= j then [ i; j ] else [ j; i ] in
  let bnot = function
    | Zero -> One
    | One -> Zero
    | N i -> N (gate 1 not1 [ i ])
  in
  let band a b =
    match (a, b) with
    | Zero, _ | _, Zero -> Zero
    | One, x | x, One -> x
    | N i, N j -> if i = j then a else N (gate 2 and2 (sort2 i j))
  in
  let bor a b =
    match (a, b) with
    | One, _ | _, One -> One
    | Zero, x | x, Zero -> x
    | N i, N j -> if i = j then a else N (gate 3 or2 (sort2 i j))
  in
  let bxor a b =
    match (a, b) with
    | Zero, x | x, Zero -> x
    | One, x | x, One -> bnot x
    | N i, N j -> if i = j then Zero else N (gate 4 xor2 (sort2 i j))
  in
  let anchor b =
    (* Outputs must name proper logic nodes — constant and pass-through
       bits get a (cached) const or buffer gate. *)
    match b with
    | Zero -> gate 5 (Expr.Const false) []
    | One -> gate 6 (Expr.Const true) []
    | N i -> if Network.is_input net i then gate 7 buf1 [ i ] else i
  in
  { w; band; bor; bxor; anchor }

(* Word-level lowering of [dfg] through [b], reading input words from
   [in_bits].  Returns the {e lazy} per-node evaluator: only the cones
   actually demanded create gates, so dead DFG nodes build nothing. *)
let lower b in_bits dfg =
  let w = b.w in
  let ripple a v ~carry =
    let out = Array.make w Zero in
    let c = ref carry in
    for k = 0 to w - 1 do
      let axb = b.bxor a.(k) v.(k) in
      out.(k) <- b.bxor axb !c;
      if k < w - 1 then c := b.bor (b.band a.(k) v.(k)) (b.band !c axb)
    done;
    out
  in
  let bnot x = b.bxor One x in
  let add_bits a v = ripple a v ~carry:Zero in
  let sub_bits a v = ripple a (Array.map bnot v) ~carry:One in
  let shift_bits k a =
    Array.init w (fun j -> if j < k then Zero else a.(j - k))
  in
  (* Truncated array multiplier: row [i] is [a << i] gated by [b_i],
     rows accumulated by ripple adders; statically-zero rows vanish. *)
  let mul_bits a v =
    let row i =
      Array.init w (fun j -> if j < i then Zero else b.band a.(j - i) v.(i))
    in
    let acc = ref (row 0) in
    for i = 1 to w - 1 do
      if v.(i) <> Zero then acc := add_bits !acc (row i)
    done;
    !acc
  in
  let const_bits c =
    Array.init w (fun k -> if (c lsr k) land 1 = 1 then One else Zero)
  in
  let is_const i = match Dfg.op dfg i with Dfg.Const _ -> true | _ -> false in
  let bits = Hashtbl.create 32 in
  let rec eval i =
    match Hashtbl.find_opt bits i with
    | Some bs -> bs
    | None ->
      let bs =
        match (Dfg.op dfg i, Dfg.args dfg i) with
        | Dfg.Input nm, [] -> Hashtbl.find in_bits nm
        | Dfg.Const c, [] -> const_bits c
        | Dfg.Add, [ x; y ] -> add_bits (eval x) (eval y)
        | Dfg.Sub, [ x; y ] -> sub_bits (eval x) (eval y)
        | Dfg.Mul, [ x; y ] ->
          (* Canonical operand order: a constant multiplicand always
             selects the rows; otherwise the larger node hash does. *)
          let x, y =
            if is_const x then (y, x)
            else if is_const y then (x, y)
            else if Dfg.node_hash dfg x <= Dfg.node_hash dfg y then (y, x)
            else (x, y)
          in
          mul_bits (eval x) (eval y)
        | Dfg.Shift_left k, [ x ] -> shift_bits k (eval x)
        | Dfg.Output _, [ x ] -> eval x
        | (Dfg.Input _ | Dfg.Const _ | Dfg.Add | Dfg.Sub | Dfg.Mul
          | Dfg.Shift_left _ | Dfg.Output _), _ ->
          invalid_arg "Elaborate: corrupt arity"
      in
      Hashtbl.replace bits i bs;
      bs
  in
  eval

let to_network ?inputs dfg =
  let w = Dfg.width dfg in
  let own = List.sort compare (List.map fst (Dfg.inputs dfg)) in
  let names =
    match inputs with
    | None -> own
    | Some ns ->
      let ns = List.sort_uniq compare ns in
      List.iter
        (fun nm ->
          if not (List.mem nm ns) then
            invalid_arg
              ("Elaborate.to_network: forced input set misses " ^ nm))
        own;
      ns
  in
  let net = Network.create () in
  let in_bits = Hashtbl.create 8 in
  List.iter
    (fun nm ->
      let bits =
        Array.init w (fun k ->
            N (Network.add_input ~name:(Printf.sprintf "%s.%d" nm k) net))
      in
      Hashtbl.replace in_bits nm bits)
    names;
  let b = make_builder net w in
  let eval = lower b in_bits dfg in
  List.iter
    (fun (nm, i) ->
      Array.iteri
        (fun k bit ->
          Network.set_output net (Printf.sprintf "%s.%d" nm k) (b.anchor bit))
        (eval i))
    (Dfg.outputs dfg);
  net

let split_bit_name (name : string) =
  match String.rindex_opt name '.' with
  | None -> None
  | Some d -> (
    let nm = String.sub name 0 d in
    match
      int_of_string_opt (String.sub name (d + 1) (String.length name - d - 1))
    with
    | Some k -> Some (nm, k)
    | None -> None)

let input_vector net env =
  let bit_of (name : string) =
    match split_bit_name name with
    | None -> invalid_arg ("Elaborate.input_vector: unexpected input " ^ name)
    | Some (nm, k) -> (
      match List.assoc_opt nm env with
      | None -> invalid_arg ("Elaborate.input_vector: missing word " ^ nm)
      | Some v -> (v lsr k) land 1 = 1)
  in
  Array.of_list
    (List.map (fun i -> bit_of (Network.name net i)) (Network.inputs net))

let output_words ~width outs =
  let words = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun ((name : string), b) ->
      match split_bit_name name with
      | None -> invalid_arg ("Elaborate.output_words: unexpected output " ^ name)
      | Some (nm, k) ->
        if k < 0 || k >= width then
          invalid_arg "Elaborate.output_words: bit index out of range";
        let v =
          match Hashtbl.find_opt words nm with
          | Some v -> v
          | None ->
            order := nm :: !order;
            0
        in
        Hashtbl.replace words nm (if b then v lor (1 lsl k) else v))
    outs;
  List.rev_map (fun nm -> (nm, Hashtbl.find words nm)) !order

let eval net ~width env =
  output_words ~width (Network.eval_outputs net (input_vector net env))
