type t = {
  circuit : Seq_circuit.t;
  encoding : Encode.t;
  state_inputs : Network.id list;
  next_state_nodes : Network.id list;
  output_nodes : (string * Network.id) list;
}

let bit x k = x land (1 lsl k) <> 0

let synthesize ?(reset_state = 0) ?(ff_clock_cap = 2.0) stg enc =
  Encode.validate ~num_states:(Stg.num_states stg) enc;
  let ni = Stg.num_inputs stg and bits = enc.Encode.bits in
  if ni + bits > 16 then
    invalid_arg "Fsm_synth.synthesize: input bits + state bits > 16";
  if reset_state < 0 || reset_state >= Stg.num_states stg then
    invalid_arg "Fsm_synth.synthesize: reset state out of range";
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
  let reset_code = enc.Encode.codes.(reset_state) in
  let regs =
    List.mapi
      (fun b (q, d) ->
        {
          Seq_circuit.d;
          q;
          enable = None;
          init = bit reset_code b;
          clock_cap = ff_clock_cap;
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

let verify_scalar t stg ~rng ~cycles =
  let ni = Stg.num_inputs stg in
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
        (fun (nm, v) ->
          if v then
            Scanf.sscanf nm "out%d" (fun b -> got := !got lor (1 lsl b)))
        outs;
      if !got <> expected then false
      else check (Stg.next stg state i) stim_rest out_rest
    | _, _ -> false
  in
  ignore ni;
  check 0 stim stats.Seq_circuit.outputs

(* Word-parallel co-simulation: each of the 63 lanes is an independent
   run of [cycles] steps with its own input stream, all stepped at once
   through one bit-plane evaluation per cycle — 63x the coverage of the
   scalar check at the same gate-evaluation cost. *)
let verify_packed t stg ~rng ~cycles =
  let ni = Stg.num_inputs stg in
  let dist = Markov.uniform_inputs stg in
  let net = Seq_circuit.network t.circuit in
  let b = Bitsim.of_network net in
  let c = Bitsim.compiled b in
  let lanes = Bitsim.vectors_per_word in
  let pos_of =
    let tbl = Hashtbl.create 16 in
    List.iteri (fun k i -> Hashtbl.replace tbl i k) (Network.inputs net);
    fun i -> Hashtbl.find tbl i
  in
  let free_pos =
    Array.of_list (List.map pos_of (Seq_circuit.free_inputs t.circuit))
  in
  let state_pos = Array.of_list (List.map pos_of t.state_inputs) in
  let d_idx =
    Array.of_list (List.map (Compiled.index_of_id c) t.next_state_nodes)
  in
  let out_idx =
    Array.of_list
      (List.map (fun (_, i) -> Compiled.index_of_id c i) t.output_nodes)
  in
  (* A register with an enable loads [d] only in lanes where the enable
     is 1 and holds its word elsewhere. *)
  let en_idx =
    Array.of_list
      (List.map
         (fun r -> Option.map (Compiled.index_of_id c) r.Seq_circuit.enable)
         (Seq_circuit.registers t.circuit))
  in
  let nbits = Array.length state_pos in
  let nouts = Array.length out_idx in
  let in_words = Array.make (List.length (Network.inputs net)) 0 in
  let plane = Array.make (Bitsim.size b) 0 in
  (* Register words replicate each bit of the reset code across lanes. *)
  let q_words = Array.make nbits 0 in
  List.iteri
    (fun bidx r -> q_words.(bidx) <- (if r.Seq_circuit.init then -1 else 0))
    (Seq_circuit.registers t.circuit);
  (* The STG trace is tracked per lane from state 0, as the scalar check
     does.  [split] advances the caller's generator once; each lane then
     draws its stream from a pure [Rng.stream]. *)
  let base = Lowpower.Rng.split rng in
  let lane_rng = Array.init lanes (fun l -> Lowpower.Rng.stream base l) in
  let states = Array.make lanes 0 in
  let codes = Array.make lanes 0 in
  let ok = ref true in
  let cycle = ref 0 in
  while !ok && !cycle < cycles do
    incr cycle;
    for l = 0 to lanes - 1 do
      codes.(l) <- sample_code lane_rng.(l) dist
    done;
    for k = 0 to ni - 1 do
      let w = ref 0 in
      for l = 0 to lanes - 1 do
        if bit codes.(l) k then w := !w lor (1 lsl l)
      done;
      in_words.(free_pos.(k)) <- !w
    done;
    for bidx = 0 to nbits - 1 do
      in_words.(state_pos.(bidx)) <- q_words.(bidx)
    done;
    Bitsim.eval_into b in_words plane;
    let l = ref 0 in
    while !ok && !l < lanes do
      let expected = Stg.output stg states.(!l) codes.(!l) in
      let got = ref 0 in
      for o = 0 to nouts - 1 do
        if (plane.(out_idx.(o)) lsr !l) land 1 = 1 then
          got := !got lor (1 lsl o)
      done;
      if !got <> expected then ok := false
      else begin
        states.(!l) <- Stg.next stg states.(!l) codes.(!l);
        incr l
      end
    done;
    for bidx = 0 to nbits - 1 do
      let d = plane.(d_idx.(bidx)) in
      q_words.(bidx) <-
        (match en_idx.(bidx) with
        | None -> d
        | Some e ->
          let en = plane.(e) in
          (d land en) lor (q_words.(bidx) land lnot en))
    done
  done;
  !ok

let verify ?(packed = true) t stg ~rng ~cycles =
  if packed then verify_packed t stg ~rng ~cycles
  else verify_scalar t stg ~rng ~cycles
