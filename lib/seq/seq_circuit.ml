type register = {
  d : Network.id;
  q : Network.id;
  enable : Network.id option;
  init : bool;
  clock_cap : float;
}

type t = {
  net : Network.t;
  regs : register list;
}

let create net regs =
  let seen_q = Hashtbl.create 16 in
  List.iter
    (fun r ->
      if not (Network.mem net r.d) then
        invalid_arg "Seq_circuit.create: unknown d node";
      if not (Network.mem net r.q && Network.is_input net r.q) then
        invalid_arg "Seq_circuit.create: q must be an input node";
      if Hashtbl.mem seen_q r.q then
        invalid_arg "Seq_circuit.create: duplicate q node";
      Hashtbl.add seen_q r.q ();
      match r.enable with
      | Some e ->
        if not (Network.mem net e) then
          invalid_arg "Seq_circuit.create: unknown enable node"
      | None -> ())
    regs;
  { net; regs }

let network t = t.net
let registers t = t.regs
let register_count t = List.length t.regs

let free_inputs t =
  let driven = Hashtbl.create 16 in
  List.iter (fun r -> Hashtbl.add driven r.q ()) t.regs;
  List.filter (fun i -> not (Hashtbl.mem driven i)) (Network.inputs t.net)

type stats = {
  cycles : int;
  comb_energy : float;
  clock_energy : float;
  ff_input_toggles : int;
  ff_output_toggles : int;
  gated_cycles : int;
  outputs : (string * bool) list list;
}

let total_energy s = s.comb_energy +. s.clock_energy

let simulate ?(delay_model = Event_sim.Zero_delay) ?(packed = true) t
    stimulus =
  let free = free_inputs t in
  (match stimulus with
  | [] -> invalid_arg "Seq_circuit.simulate: empty stimulus"
  | v :: _ ->
    if Array.length v <> List.length free then
      invalid_arg "Seq_circuit.simulate: primary-input arity mismatch");
  let all_inputs = Network.inputs t.net in
  let num_all = List.length all_inputs in
  let comp = Compiled.of_network t.net in
  let pos_of =
    let tbl = Hashtbl.create 16 in
    List.iteri (fun k i -> Hashtbl.replace tbl i k) all_inputs;
    fun i -> Hashtbl.find tbl i
  in
  let free_pos = Array.of_list (List.map pos_of free) in
  let out_idx = Array.to_list (Compiled.outputs comp) in
  let regs = Array.of_list t.regs in
  let nregs = Array.length regs in
  let d_idx = Array.map (fun r -> Compiled.index_of_id comp r.d) regs in
  let en_idx =
    Array.map
      (fun r ->
        match r.enable with
        | None -> -1
        | Some e -> Compiled.index_of_id comp e)
      regs
  in
  let q_pos = Array.map (fun r -> pos_of r.q) regs in
  let q_state = Array.map (fun r -> r.init) regs in
  let use_packed = packed && delay_model = Event_sim.Zero_delay in
  (* The serial register loop only reads the d and enable values.  When the
     packed replay below supplies both the outputs trace and the transition
     counts, the per-cycle scalar evaluation can be restricted to the cone
     feeding the registers; the scalar path evaluates every node since the
     outputs are read off the same plane. *)
  let eval_order =
    let topo = Compiled.topo comp in
    let wanted =
      if not use_packed then fun _ -> true
      else begin
        let marked = Array.make (Compiled.size comp) false in
        let rec mark x =
          if not marked.(x) then begin
            marked.(x) <- true;
            Array.iter mark (Compiled.fanins comp x)
          end
        in
        Array.iter mark d_idx;
        Array.iter (fun e -> if e >= 0 then mark e) en_idx;
        fun x -> marked.(x)
      end
    in
    Array.of_list
      (List.filter
         (fun x -> wanted x && not (Compiled.is_input comp x))
         (Array.to_list topo))
  in
  let in_map = Compiled.inputs comp in
  let plane = Array.make (Compiled.size comp) false in
  let clock_energy = ref 0.0 in
  let ff_in = ref 0 and ff_out = ref 0 and gated = ref 0 in
  let prev_d = Array.make nregs false in
  let outputs = ref [] in
  let full_stream = ref [] in
  let cycle k pi_vec =
    let v = Array.make num_all false in
    Array.iteri (fun j p -> v.(p) <- pi_vec.(j)) free_pos;
    for ri = 0 to nregs - 1 do
      v.(q_pos.(ri)) <- q_state.(ri)
    done;
    full_stream := v :: !full_stream;
    Array.iteri (fun j x -> plane.(x) <- v.(j)) in_map;
    Array.iter
      (fun x -> plane.(x) <- Compiled.eval_node comp x plane)
      eval_order;
    if not use_packed then
      outputs :=
        List.map (fun (nm, x) -> (nm, plane.(x))) out_idx :: !outputs;
    for ri = 0 to nregs - 1 do
      let d = plane.(d_idx.(ri)) in
      if k > 0 && prev_d.(ri) <> d then incr ff_in;
      prev_d.(ri) <- d;
      let enabled = en_idx.(ri) < 0 || plane.(en_idx.(ri)) in
      if enabled then begin
        clock_energy := !clock_energy +. regs.(ri).clock_cap;
        if q_state.(ri) <> d then incr ff_out;
        q_state.(ri) <- d
      end
      else incr gated
    done
  in
  List.iteri cycle stimulus;
  let full_stream = List.rev !full_stream in
  let sim =
    if use_packed then begin
      (* Zero delay has no glitches: the transition counts are pure
         settled-plane XORs, which the word-parallel engine produces 63
         cycles per pass, and the outputs trace is peeled off the packed
         planes lane by lane.  The result record is assembled exactly like
         [Event_sim.run_compiled]'s [table_of] (same initial size, same
         ascending-index insertions), so downstream hashtable folds — and
         hence the float sums in [switched_capacitance] — are
         bit-identical to the event-driven path. *)
      let bs = Bitsim.of_compiled comp in
      let counts = Bitsim.count_transitions bs full_stream in
      let blocks = Stimulus.pack full_stream in
      let wplane = Array.make (Bitsim.size bs) 0 in
      let total = List.length full_stream in
      Array.iteri
        (fun blk words ->
          Bitsim.eval_into bs words wplane;
          let len =
            min Bitsim.vectors_per_word
              (total - (blk * Bitsim.vectors_per_word))
          in
          for l = 0 to len - 1 do
            outputs :=
              List.map
                (fun (nm, x) -> (nm, (wplane.(x) lsr l) land 1 = 1))
                out_idx
              :: !outputs
          done)
        blocks;
      let table_of () =
        let tbl = Hashtbl.create 64 in
        Array.iteri
          (fun x ct ->
            if ct > 0 then
              Hashtbl.replace tbl (Compiled.id_of_index comp x) ct)
          counts;
        tbl
      in
      { Event_sim.total = table_of (); functional = table_of ();
        cycles = total - 1 }
    end
    else Event_sim.run_compiled comp delay_model full_stream
  in
  {
    cycles = List.length stimulus;
    comb_energy =
      Event_sim.switched_capacitance t.net sim *. float_of_int sim.Event_sim.cycles;
    clock_energy = !clock_energy;
    ff_input_toggles = !ff_in;
    ff_output_toggles = !ff_out;
    gated_cycles = !gated;
    outputs = List.rev !outputs;
  }
