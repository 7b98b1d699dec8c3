let predictor_bdds net ~output ~keep =
  List.iter
    (fun i ->
      if not (Network.mem net i && Network.is_input net i) then
        invalid_arg "Precompute: keep must list input nodes")
    keep;
  let man = Bdd.manager () in
  let f = Network.output_bdd net man output in
  let keep_pos = List.map (Network.input_index net) keep in
  let all_pos = List.init (List.length (Network.inputs net)) (fun k -> k) in
  let r2 = List.filter (fun p -> not (List.mem p keep_pos)) all_pos in
  let g1 = Bdd.forall man r2 f in
  let g0 = Bdd.forall man r2 (Bdd.not_ man f) in
  (man, g1, g0, keep_pos)

let predictors net ~output ~keep =
  let man, g1, g0, keep_pos = predictor_bdds net ~output ~keep in
  let remap =
    let tbl = Hashtbl.create 8 in
    List.iteri (fun idx p -> Hashtbl.replace tbl p idx) keep_pos;
    fun v ->
      match Hashtbl.find_opt tbl v with
      | Some idx -> idx
      | None -> invalid_arg "Precompute.predictors: predictor escapes R1"
  in
  ( Expr.rename_vars remap (Bdd.to_expr man g1),
    Expr.rename_vars remap (Bdd.to_expr man g0) )

let shutdown_probability net ~output ~keep ~input_probs =
  let man, g1, g0, _ = predictor_bdds net ~output ~keep in
  let p b = Bdd.probability man (fun v -> input_probs.(v)) b in
  p g1 +. p g0

let measured_shutdown net ~output ~keep ~trace =
  (* The predictor BDDs are over primary-input positions, so each trace
     vector evaluates them directly — counting the cycles the workload
     actually lets R2 freeze, instead of integrating a probability model. *)
  let _man, g1, g0, _ = predictor_bdds net ~output ~keep in
  let nins = List.length (Network.inputs net) in
  let hit = ref 0 and total = ref 0 in
  List.iter
    (fun vec ->
      if Array.length vec <> nins then
        invalid_arg "Precompute.measured_shutdown: input arity mismatch";
      let read v = vec.(v) in
      if Bdd.eval g1 read || Bdd.eval g0 read then incr hit;
      incr total)
    trace;
  if !total = 0 then invalid_arg "Precompute.measured_shutdown: empty trace";
  float_of_int !hit /. float_of_int !total

let rank_keep net ~output ~candidates ~trace =
  candidates
  |> List.map (fun i -> (i, measured_shutdown net ~output ~keep:[ i ] ~trace))
  |> List.sort (fun (i1, f1) (i2, f2) ->
         if f1 <> f2 then compare f2 f1 else compare i1 i2)

type architecture = {
  plain : Seq_circuit.t;
  precomputed : Seq_circuit.t;
  keep : int list;
}

(* Copy a combinational network and surround it with input registers fed by
   fresh "raw" primary inputs.  Returns (net, raw nodes by original input
   position, image of original nodes). *)
let with_input_registers net0 =
  let net = Network.copy net0 in
  let orig_inputs = Network.inputs net0 in
  let raw =
    List.map
      (fun i -> Network.add_input ~name:("raw_" ^ Network.name net0 i) net)
      orig_inputs
  in
  (net, orig_inputs, raw)

(* Proof obligation for [build]: the predictors must really determine the
   output — [g1 implies f] and [g0 implies not f] — or the mux correction
   [g1 OR (NOT g0 AND f)] is wrong in frozen cycles.  The violation
   output materializes [(g1 AND NOT f) OR (g0 AND f)] next to the original
   combinational block. *)
let obligation net0 ~output ~keep =
  let g1, g0 = predictors net0 ~output ~keep in
  let t = Network.copy net0 in
  let add_pred name expr =
    Network.add_node ~name t expr keep
  in
  let g1n = add_pred "g1_oblig" g1 and g0n = add_pred "g0_oblig" g0 in
  let f_node = List.assoc output (Network.outputs t) in
  let violation =
    Network.add_node ~name:"__precompute_violation" t
      Expr.((var 0 &&& not_ (var 2)) ||| (var 1 &&& var 2))
      [ g1n; g0n; f_node ]
  in
  Network.set_output t "__precompute_violation" violation;
  t

let ff_clock_cap = 2.0

let build ?verify net0 ~output ~keep () =
  (match List.assoc_opt output (Network.outputs net0) with
  | Some _ -> ()
  | None -> invalid_arg "Precompute.build: unknown output");
  (let mode = Verify.resolve verify in
   if mode <> `Off then
     Verify.never_true ~mode ~pass:"Precompute.build"
       (obligation net0 ~output ~keep)
       "__precompute_violation");
  let keep_pos = List.map (Network.input_index net0) keep in
  (* Plain registered design. *)
  let plain =
    let net, qs, raws = with_input_registers net0 in
    let regs =
      List.map2
        (fun q d ->
          { Seq_circuit.d; q; enable = None; init = false;
            clock_cap = ff_clock_cap })
        qs raws
    in
    Seq_circuit.create net regs
  in
  (* Precomputed design. *)
  let precomputed =
    let net, qs, raws = with_input_registers net0 in
    let man, g1, g0, _ = predictor_bdds net0 ~output ~keep in
    let raw_arr = Array.of_list raws in
    let add_pred name bdd =
      let expr = Bdd.to_expr man bdd in
      let support = Expr.support expr in
      let fanins = List.map (fun p -> raw_arr.(p)) support in
      let remap =
        let tbl = Hashtbl.create 8 in
        List.iteri (fun pos v -> Hashtbl.replace tbl v pos) support;
        fun v -> Hashtbl.find tbl v
      in
      match support with
      | [] ->
        (* Constant predictor; still materialize it as a node. *)
        Network.add_node ~name net
          (if Bdd.is_true bdd then Expr.tru else Expr.fls)
          []
      | _ -> Network.add_node ~name net (Expr.rename_vars remap expr) fanins
    in
    let g1n = add_pred "g1" g1 and g0n = add_pred "g0" g0 in
    let predicted =
      Network.add_node ~name:"predicted" net
        Expr.(var 0 ||| var 1)
        [ g1n; g0n ]
    in
    let load_r2 =
      Network.add_node ~name:"le_r2" net (Expr.not_ (Expr.var 0)) [ predicted ]
    in
    (* Registered predictor bits for output correction. *)
    let g1q = Network.add_input ~name:"g1_q" net in
    let g0q = Network.add_input ~name:"g0_q" net in
    let f_node =
      match List.assoc_opt output (Network.outputs net) with
      | Some i -> i
      | None -> assert false
    in
    let corrected =
      Network.add_node ~name:"out_corrected" net
        Expr.(var 0 ||| (not_ (var 1) &&& var 2))
        [ g1q; g0q; f_node ]
    in
    Network.set_output net output corrected;
    let data_regs =
      List.mapi
        (fun pos (q, d) ->
          let enable = if List.mem pos keep_pos then None else Some load_r2 in
          { Seq_circuit.d; q; enable; init = false; clock_cap = ff_clock_cap })
        (List.combine qs raws)
    in
    let pred_regs =
      [
        { Seq_circuit.d = g1n; q = g1q; enable = None; init = false;
          clock_cap = ff_clock_cap };
        { Seq_circuit.d = g0n; q = g0q; enable = None; init = false;
          clock_cap = ff_clock_cap };
      ]
    in
    Seq_circuit.create net (data_regs @ pred_regs)
  in
  { plain; precomputed; keep = keep_pos }

let output_traces stats =
  List.map
    (fun outs -> List.sort compare outs)
    stats.Seq_circuit.outputs

let equivalent arch ~stimulus =
  let a = Seq_circuit.simulate arch.plain stimulus in
  let b = Seq_circuit.simulate arch.precomputed stimulus in
  let names st =
    match st.Seq_circuit.outputs with
    | [] -> []
    | outs :: _ -> List.map fst outs
  in
  let common =
    List.filter (fun n -> List.mem n (names b)) (names a)
  in
  let project st =
    List.map
      (fun outs -> List.filter (fun (n, _) -> List.mem n common) outs)
      (output_traces st)
  in
  project a = project b

let energy_comparison arch ~stimulus =
  ( Seq_circuit.simulate arch.plain stimulus,
    Seq_circuit.simulate arch.precomputed stimulus )
