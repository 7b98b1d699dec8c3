type bank = {
  width : int;
  clock_cap_per_ff : float;
  data_cap_per_ff : float;
  gating_overhead : float;
}

let default_bank width =
  { width; clock_cap_per_ff = 2.0; data_cap_per_ff = 1.0; gating_overhead = 0.5 }

type report = {
  ungated_energy : float;
  gated_energy : float;
  idle_fraction : float;
}

let saving r =
  if r.ungated_energy = 0.0 then 0.0
  else 1.0 -. (r.gated_energy /. r.ungated_energy)

let popcount x =
  let rec go acc x = if x = 0 then acc else go (acc + (x land 1)) (x lsr 1) in
  go 0 x

let evaluate bank trace =
  let w = float_of_int bank.width in
  let clock = w *. bank.clock_cap_per_ff in
  let stored = ref 0 in
  let ungated = ref 0.0 and gated = ref 0.0 and idle = ref 0 in
  List.iter
    (fun (enable, word) ->
      let changes =
        float_of_int (popcount (!stored lxor word)) *. bank.data_cap_per_ff
      in
      if enable then begin
        ungated := !ungated +. clock +. changes;
        gated := !gated +. clock +. changes +. bank.gating_overhead;
        stored := word
      end
      else begin
        (* Ungated bank still clocks (recirculating the old value);
           gated bank pays only the gating logic. *)
        ungated := !ungated +. clock;
        gated := !gated +. bank.gating_overhead;
        incr idle
      end)
    trace;
  {
    ungated_energy = !ungated;
    gated_energy = !gated;
    idle_fraction =
      (match trace with
      | [] -> 0.0
      | _ -> float_of_int !idle /. float_of_int (List.length trace));
  }

let rank banks =
  banks
  |> List.map (fun (name, bank, trace) ->
         let r = evaluate bank trace in
         (name, r, r.ungated_energy -. r.gated_energy))
  |> List.stable_sort (fun (_, _, s1) (_, _, s2) -> compare s2 s1)

let gate_fsm synth =
  let net = Seq_circuit.network synth.Fsm_synth.circuit in
  let xor_bits =
    List.map2
      (fun ns st ->
        Network.add_node ~name:(Printf.sprintf "chg_%d" st) net
          (Expr.Xor (Expr.Var 0, Expr.Var 1))
          [ ns; st ])
      synth.Fsm_synth.next_state_nodes synth.Fsm_synth.state_inputs
  in
  let change =
    match xor_bits with
    | [] -> invalid_arg "Clock_gate.gate_fsm: no state bits"
    | [ x ] -> x
    | xs ->
      Network.add_node ~name:"state_change" net
        (Expr.or_list (List.mapi (fun k _ -> Expr.var k) xs))
        xs
  in
  let regs =
    List.map
      (fun r -> { r with Seq_circuit.enable = Some change })
      (Seq_circuit.registers synth.Fsm_synth.circuit)
  in
  { synth with Fsm_synth.circuit = Seq_circuit.create net regs }
