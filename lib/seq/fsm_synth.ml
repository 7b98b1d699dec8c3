type t = {
  circuit : Seq_circuit.t;
  encoding : Encode.t;
  state_inputs : Network.id list;
  next_state_nodes : Network.id list;
  output_nodes : (string * Network.id) list;
}

let bit x k = x land (1 lsl k) <> 0

let synthesize stg enc =
  Encode.validate ~num_states:(Stg.num_states stg) enc;
  let ni = Stg.num_inputs stg and bits = enc.Encode.bits in
  if ni + bits > 16 then
    invalid_arg "Fsm_synth.synthesize: input bits + state bits > 16";
  let nvars = ni + bits in
  let state_of_code = Hashtbl.create 16 in
  Array.iteri
    (fun s c -> Hashtbl.replace state_of_code c s)
    enc.Encode.codes;
  let decode_minterm m =
    let input_code = m land ((1 lsl ni) - 1) in
    let state_code = m lsr ni in
    (input_code, Hashtbl.find_opt state_of_code state_code)
  in
  (* Minterms whose state code is unused are don't-cares everywhere. *)
  let dc_tt =
    Truth_table.of_fun nvars (fun m ->
        match decode_minterm m with _, None -> true | _, Some _ -> false)
  in
  let dc_cover = Cover.of_truth_table dc_tt in
  let table_of value_bit =
    Truth_table.of_fun nvars (fun m ->
        match decode_minterm m with
        | _, None -> false
        | input_code, Some s -> value_bit s input_code)
  in
  let minimized value_bit =
    Cover.minimize ~dc:dc_cover (Cover.of_truth_table (table_of value_bit))
  in
  let net = Network.create () in
  let input_ids =
    List.init ni (fun k -> Network.add_input ~name:(Printf.sprintf "in%d" k) net)
  in
  let state_ids =
    List.init bits (fun k -> Network.add_input ~name:(Printf.sprintf "st%d" k) net)
  in
  let var_node v =
    if v < ni then List.nth input_ids v else List.nth state_ids (v - ni)
  in
  let add_sop_node name cover =
    let expr = Cover.to_expr cover in
    let support = Expr.support expr in
    let fanins = List.map var_node support in
    let remap =
      let tbl = Hashtbl.create 8 in
      List.iteri (fun pos v -> Hashtbl.replace tbl v pos) support;
      fun v -> Hashtbl.find tbl v
    in
    Network.add_node ~name net (Expr.rename_vars remap expr) fanins
  in
  let next_state_nodes =
    List.init bits (fun b ->
        let cover =
          minimized (fun s i -> bit enc.Encode.codes.(Stg.next stg s i) b)
        in
        add_sop_node (Printf.sprintf "ns%d" b) cover)
  in
  let output_nodes =
    List.init (Stg.num_outputs stg) (fun b ->
        let cover = minimized (fun s i -> bit (Stg.output stg s i) b) in
        let name = Printf.sprintf "out%d" b in
        let id = add_sop_node name cover in
        Network.set_output net name id;
        (name, id))
  in
  let reset_code = enc.Encode.codes.(0) in
  let regs =
    List.mapi
      (fun b (q, d) ->
        {
          Seq_circuit.d;
          q;
          enable = None;
          init = bit reset_code b;
          clock_cap = 2.0;
        })
      (List.combine state_ids next_state_nodes)
  in
  let circuit = Seq_circuit.create net regs in
  { circuit; encoding = enc; state_inputs = state_ids; next_state_nodes;
    output_nodes }

let literal_count t =
  Network.literal_count (Seq_circuit.network t.circuit)

let sample_code rng dist =
  let u = Lowpower.Rng.float rng 1.0 in
  let rec go k acc =
    if k >= Array.length dist - 1 then k
    else
      let acc = acc +. dist.(k) in
      if u < acc then k else go (k + 1) acc
  in
  go 0 0.0

let stimulus_of_dist stg ~rng ~dist ~cycles =
  let ni = Stg.num_inputs stg in
  List.init cycles (fun _ ->
      let code = sample_code rng dist in
      Array.init ni (fun k -> bit code k))

let simulate_inputs t stg ~rng ~dist ~cycles =
  let stim = stimulus_of_dist stg ~rng ~dist ~cycles in
  Seq_circuit.simulate t.circuit stim

(* Output bit [b] of the machine is the network output named [out<b>]. *)
let output_bit name = Scanf.sscanf name "out%d" Fun.id

let verify t stg ~rng ~cycles =
  let dist = Markov.uniform_inputs stg in
  let stim = stimulus_of_dist stg ~rng ~dist ~cycles in
  let stats = Seq_circuit.simulate t.circuit stim in
  let codes_of_vec vec =
    let c = ref 0 in
    Array.iteri (fun k b -> if b then c := !c lor (1 lsl k)) vec;
    !c
  in
  let rec check state stim_rest out_rest =
    match stim_rest, out_rest with
    | [], [] -> true
    | vec :: stim_rest, outs :: out_rest ->
      let i = codes_of_vec vec in
      let expected = Stg.output stg state i in
      let got = ref 0 in
      List.iter
        (fun (nm, v) -> if v then got := !got lor (1 lsl output_bit nm))
        outs;
      if !got <> expected then false
      else check (Stg.next stg state i) stim_rest out_rest
    | _, _ -> false
  in
  check 0 stim stats.Seq_circuit.outputs

(* Lane [l] of block [blk] is the vector [v = 63 blk + l] of
   [Bitsim.exhaustive_word]'s layout over the free inputs followed by the
   registers' q nodes: input code [v mod 2^ni], state code [v lsr ni].
   Only lanes whose state code is a reachable state's are read. *)
let implements t stg =
  let ni = Stg.num_inputs stg in
  let codes = t.encoding.Encode.codes in
  let net = Seq_circuit.network t.circuit in
  let regs = Array.of_list (Seq_circuit.registers t.circuit) in
  let free = Seq_circuit.free_inputs t.circuit in
  let nbits = Array.length regs in
  nbits = t.encoding.Encode.bits
  && List.length free = ni
  && Array.for_all Fun.id
       (Array.mapi (fun k r -> r.Seq_circuit.init = bit codes.(0) k) regs)
  &&
  let b = Bitsim.of_network net in
  let c = Bitsim.compiled b in
  let idx = Compiled.index_of_id c in
  let pos = Network.input_index net in
  let free_pos = Array.of_list (List.map pos free) in
  let q_pos = Array.map (fun r -> pos r.Seq_circuit.q) regs in
  let d_idx = Array.map (fun r -> idx r.Seq_circuit.d) regs in
  let en_idx = Array.map (fun r -> Option.map idx r.Seq_circuit.enable) regs in
  let out_bits =
    Array.map (fun (nm, x) -> (output_bit nm, x)) (Compiled.outputs c)
  in
  let state_of = Array.make (1 lsl nbits) (-1) in
  List.iter (fun s -> state_of.(codes.(s)) <- s) (Stg.reachable stg ~from:0);
  let nvec = 1 lsl (ni + nbits) in
  let lanes = Bitsim.vectors_per_word in
  let in_words = Array.make (List.length (Network.inputs net)) 0 in
  let plane = Array.make (Bitsim.size b) 0 in
  let lane x l = (plane.(x) lsr l) land 1 = 1 in
  (* The outputs must be the STG's, and the word the registers load (d
     where the enable is 1 or absent, q where it is 0) the next state's
     code. *)
  let pair_ok v l =
    let code = v lsr ni and i = v land ((1 lsl ni) - 1) in
    let s = state_of.(code) in
    let got =
      Array.fold_left
        (fun acc (o, x) -> if lane x l then acc lor (1 lsl o) else acc)
        0 out_bits
    in
    let loaded = ref 0 in
    for k = 0 to nbits - 1 do
      let load = match en_idx.(k) with None -> true | Some e -> lane e l in
      if (if load then lane d_idx.(k) l else bit code k) then
        loaded := !loaded lor (1 lsl k)
    done;
    got = Stg.output stg s i && !loaded = codes.(Stg.next stg s i)
  in
  let block_ok blk =
    Array.iteri
      (fun k p -> in_words.(p) <- Bitsim.exhaustive_word k blk)
      free_pos;
    Array.iteri
      (fun k p -> in_words.(p) <- Bitsim.exhaustive_word (ni + k) blk)
      q_pos;
    Bitsim.eval_into b in_words plane;
    let rec from l =
      l >= lanes
      ||
      let v = (blk * lanes) + l in
      (v >= nvec || state_of.(v lsr ni) < 0 || pair_ok v l) && from (l + 1)
    in
    from 0
  in
  let rec from blk = blk * lanes >= nvec || (block_ok blk && from (blk + 1)) in
  from 0
