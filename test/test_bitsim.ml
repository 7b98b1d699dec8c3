(* Differential tests for the word-parallel bit-plane engine: packed
   evaluation against the scalar compiled evaluator on injected planes,
   packed transition counting against the event simulator, the packed
   Monte-Carlo estimators against their scalar oracles, the exact FSM
   check against scalar co-simulation and planted mutants, and the SWAR /
   RNG / packing primitives against naive implementations. *)

open Test_util

let gen_network =
  QCheck2.Gen.(
    map2
      (fun seed gates ->
        ( seed,
          Gen_comb.random
            (Lowpower.Rng.create seed)
            {
              Gen_comb.num_inputs = 6;
              num_gates = 8 + gates;
              max_fanin = 3;
              output_fraction = 0.2;
            } ))
      (int_bound 10_000) (int_bound 20))

(* ---- SWAR primitives ------------------------------------------------- *)

let naive_popcount x =
  let c = ref 0 in
  for l = 0 to 62 do
    if (x lsr l) land 1 = 1 then incr c
  done;
  !c

let test_popcount_edges () =
  Alcotest.(check int) "zero" 0 (Bitsim.popcount 0);
  Alcotest.(check int) "all 63 lanes" 63 (Bitsim.popcount (-1));
  Alcotest.(check int) "sign bit alone" 1 (Bitsim.popcount min_int);
  Alcotest.(check int) "max_int" 62 (Bitsim.popcount max_int);
  Alcotest.(check int) "one" 1 (Bitsim.popcount 1)

let prop_popcount_matches_naive =
  prop ~count:500 "SWAR popcount equals the bit loop"
    QCheck2.Gen.(int)
    (fun x -> Bitsim.popcount x = naive_popcount x)

let test_lane_mask () =
  Alcotest.(check int) "empty" 0 (Bitsim.lane_mask 0);
  Alcotest.(check int) "one lane" 1 (Bitsim.lane_mask 1);
  Alcotest.(check int) "full word" (-1) (Bitsim.lane_mask 63);
  Alcotest.(check int) "clamped" (-1) (Bitsim.lane_mask 99);
  Alcotest.(check int) "62 lanes" max_int (Bitsim.lane_mask 62)

(* ---- exhaustive input words ------------------------------------------ *)

(* Lane l of block b carries vector 63b + l; input k is its bit k. *)
let naive_exhaustive_word k blk =
  let w = ref 0 in
  for l = 0 to 62 do
    if (((63 * blk) + l) lsr k) land 1 = 1 then w := !w lor (1 lsl l)
  done;
  !w

let test_exhaustive_word_blocks () =
  (* Blocks 0 and 1, and the last block of every 1..20-input enumeration. *)
  let blocks =
    [ 0; 1 ] @ List.init 20 (fun n -> (((1 lsl (n + 1)) + 62) / 63) - 1)
  in
  for k = 0 to 19 do
    List.iter
      (fun blk ->
        Alcotest.(check int)
          (Printf.sprintf "input %d, block %d" k blk)
          (naive_exhaustive_word k blk)
          (Bitsim.exhaustive_word k blk))
      blocks
  done

let prop_exhaustive_word_random_blocks =
  prop ~count:1000 "exhaustive words equal the per-lane formula"
    QCheck2.Gen.(pair (0 -- 19) (0 -- ((1 lsl 20) / 63)))
    (fun (k, blk) -> Bitsim.exhaustive_word k blk = naive_exhaustive_word k blk)

(* ---- Rng.bernoulli_word / Rng.stream --------------------------------- *)

let test_bernoulli_word_reproducible () =
  let a = Lowpower.Rng.create 42 and b = Lowpower.Rng.create 42 in
  let wa = List.init 50 (fun _ -> Lowpower.Rng.bernoulli_word a 0.3) in
  let wb = List.init 50 (fun _ -> Lowpower.Rng.bernoulli_word b 0.3) in
  Alcotest.(check (list int)) "equal seeds, equal words" wa wb;
  (* p = 0.5 is one raw draw: the same word [bits64] would produce. *)
  let c = Lowpower.Rng.create 7 in
  let d = Lowpower.Rng.copy c in
  Alcotest.(check int) "p=0.5 is a raw draw"
    (Int64.to_int (Lowpower.Rng.bits64 d))
    (Lowpower.Rng.bernoulli_word c 0.5)

let test_bernoulli_word_degenerate () =
  let r = rng () in
  Alcotest.(check int) "p=0 all clear" 0 (Lowpower.Rng.bernoulli_word r 0.0);
  Alcotest.(check int) "p=1 all set" (-1) (Lowpower.Rng.bernoulli_word r 1.0)

let test_bernoulli_word_bias () =
  let r = rng () in
  List.iter
    (fun p ->
      let words = 4_000 in
      let ones = ref 0 in
      for _ = 1 to words do
        ones := !ones + Bitsim.popcount (Lowpower.Rng.bernoulli_word r p)
      done;
      let n = float_of_int (words * Lowpower.Rng.word_bits) in
      let mean = float_of_int !ones /. n in
      (* ~250k samples: 6 sigma is under 0.006 for every p tested. *)
      if Float.abs (mean -. p) > 0.007 then
        Alcotest.failf "bias at p=%g: measured %g" p mean)
    [ 0.5; 0.3; 0.125; 0.9; 0.01 ]

let test_bernoulli_word_lane_independence () =
  (* Adjacent lanes must be uncorrelated: the fraction of words whose
     lanes l and l+1 are both 1 should be ~p^2, not ~p. *)
  let r = rng () in
  let p = 0.3 in
  let words = 20_000 in
  let both = ref 0 in
  for _ = 1 to words do
    let w = Lowpower.Rng.bernoulli_word r p in
    both := !both + Bitsim.popcount (w land (w lsr 1) land Bitsim.lane_mask 62)
  done;
  let rate = float_of_int !both /. float_of_int (words * 62) in
  if Float.abs (rate -. (p *. p)) > 0.01 then
    Alcotest.failf "adjacent-lane correlation: joint rate %g, want ~%g" rate
      (p *. p)

let test_stream_deterministic_and_pure () =
  let t = Lowpower.Rng.create 99 in
  let before = Lowpower.Rng.copy t in
  let s3 = Lowpower.Rng.stream t 3 in
  let s3' = Lowpower.Rng.stream t 3 in
  let s4 = Lowpower.Rng.stream t 4 in
  Alcotest.(check int64) "same index, same stream"
    (Lowpower.Rng.bits64 s3) (Lowpower.Rng.bits64 s3');
  Alcotest.(check bool) "distinct indices differ" true
    (Lowpower.Rng.bits64 s3 <> Lowpower.Rng.bits64 s4);
  Alcotest.(check int64) "parent state untouched"
    (Lowpower.Rng.bits64 before) (Lowpower.Rng.bits64 t);
  expect_invalid_arg "negative index" (fun () -> Lowpower.Rng.stream t (-1))

(* ---- Stimulus.pack / unpack ------------------------------------------ *)

let prop_pack_roundtrip =
  prop ~count:200 "unpack inverts pack across the word boundary"
    QCheck2.Gen.(triple (int_bound 10_000) (1 -- 8) (1 -- 200))
    (fun (seed, width, length) ->
      let stim =
        Stimulus.random (Lowpower.Rng.create seed) ~width ~length ()
      in
      Stimulus.unpack ~width ~length (Stimulus.pack stim) = stim)

let test_pack_boundaries () =
  List.iter
    (fun length ->
      let stim =
        Stimulus.random (Lowpower.Rng.create length) ~width:3 ~length ()
      in
      let blocks = Stimulus.pack stim in
      Alcotest.(check int)
        (Printf.sprintf "block count at length %d" length)
        ((length + 62) / 63)
        (Array.length blocks);
      Alcotest.(check bool)
        (Printf.sprintf "round trip at length %d" length)
        true
        (Stimulus.unpack ~width:3 ~length blocks = stim))
    [ 1; 62; 63; 64; 126; 127 ];
  Alcotest.(check int) "empty stream packs to nothing" 0
    (Array.length (Stimulus.pack []));
  expect_invalid_arg "too few blocks" (fun () ->
      Stimulus.unpack ~width:3 ~length:64
        (Stimulus.pack (Stimulus.counter ~width:3 ~length:63)))

(* ---- packed vs scalar evaluation on injected planes ------------------ *)

let prop_bitsim_matches_compiled =
  prop ~count:160 "Bitsim lanes equal Compiled.eval on injected planes"
    QCheck2.Gen.(pair gen_network (int_bound 10_000))
    (fun ((_, net), stim_seed) ->
      let comp = Compiled.of_network net in
      let b = Bitsim.of_compiled comp in
      let n = Compiled.size comp in
      let width = List.length (Network.inputs net) in
      (* 70 vectors: the second block exercises a partial final word. *)
      let stim =
        Stimulus.random (Lowpower.Rng.create (stim_seed + 1)) ~width
          ~length:70 ()
      in
      let vecs = Array.of_list stim in
      let blocks = Stimulus.pack stim in
      let ok = ref true in
      Array.iteri
        (fun blk words ->
          let plane = Bitsim.eval b words in
          let lanes = min 63 (Array.length vecs - (blk * 63)) in
          for l = 0 to lanes - 1 do
            let scalar = Compiled.eval comp vecs.((blk * 63) + l) in
            for x = 0 to n - 1 do
              if ((plane.(x) lsr l) land 1 = 1) <> scalar.(x) then ok := false
            done
          done)
        blocks;
      !ok)

let prop_count_transitions_matches_event_sim =
  prop ~count:160 "packed transition counts equal zero-delay Event_sim"
    QCheck2.Gen.(pair gen_network (int_bound 10_000))
    (fun ((_, net), stim_seed) ->
      let comp = Compiled.of_network net in
      let stim =
        Stimulus.random
          (Lowpower.Rng.create (stim_seed + 5))
          ~width:(List.length (Network.inputs net))
          ~length:(65 + (stim_seed mod 70))
          ()
      in
      let counts =
        Bitsim.count_transitions (Bitsim.of_compiled comp) stim
      in
      let sim = Event_sim.run_compiled comp Event_sim.Zero_delay stim in
      List.for_all
        (fun i ->
          counts.(Compiled.index_of_id comp i)
          = Option.value
              (Hashtbl.find_opt sim.Event_sim.total i)
              ~default:0)
        (Network.node_ids net))

let prop_empirical_packed_equals_scalar =
  prop ~count:160 "Probability.empirical: packed and scalar counts equal"
    QCheck2.Gen.(pair gen_network (int_bound 10_000))
    (fun ((_, net), stim_seed) ->
      let stim =
        Stimulus.random
          (Lowpower.Rng.create (stim_seed + 9))
          ~width:(List.length (Network.inputs net))
          ~length:(1 + (stim_seed mod 130))
          ()
      in
      let p = Probability.empirical ~packed:true net stim in
      let s = Probability.empirical ~packed:false net stim in
      List.for_all
        (fun i -> Hashtbl.find p i = Hashtbl.find s i)
        (Network.node_ids net))

(* ---- packed Monte-Carlo estimators ----------------------------------- *)

(* The scalar reference too: skewed input probabilities are what tell one
   input's probability from another's, which the uniform-input
   packed-vs-scalar check below cannot. *)
let test_simulated_packed_matches_exact () =
  let net = (Circuits.comparator 4).Circuits.net in
  let input_probs = [| 0.5; 0.3; 0.7; 0.5; 0.2; 0.5; 0.5; 0.8 |] in
  let e = Probability.exact net ~input_probs in
  List.iter
    (fun packed ->
      let s =
        Probability.simulated ~packed net ~rng:(rng ()) ~input_probs
          ~vectors:40_000
      in
      Hashtbl.iter
        (fun i p ->
          check_close_rel ~eps:0.12
            (Printf.sprintf "monte carlo (packed %b) agrees with exact" packed)
            (max p 0.02)
            (max (Hashtbl.find s i) 0.02))
        e)
    [ true; false ]

let test_simulated_packed_vs_scalar_statistical () =
  (* Independently seeded runs of the two engines agree within Monte-Carlo
     tolerance (they draw different, equally valid planes). *)
  let net = (Circuits.comparator 4).Circuits.net in
  let input_probs = Probability.uniform_inputs net in
  let p =
    Probability.simulated ~packed:true net
      ~rng:(Lowpower.Rng.create 1) ~input_probs ~vectors:30_000
  in
  let s =
    Probability.simulated ~packed:false net
      ~rng:(Lowpower.Rng.create 2) ~input_probs ~vectors:30_000
  in
  Hashtbl.iter
    (fun i a ->
      check_close_rel ~eps:0.12 "packed vs scalar statistics"
        (max a 0.02)
        (max (Hashtbl.find s i) 0.02))
    p

let test_simulated_packed_reproducible () =
  let net = (Circuits.comparator 4).Circuits.net in
  let input_probs = Probability.uniform_inputs net in
  let run seed =
    Probability.simulated ~packed:true net
      ~rng:(Lowpower.Rng.create seed) ~input_probs ~vectors:5_000
  in
  let a = run 3 and b = run 3 in
  Hashtbl.iter
    (fun i p -> check_close "same seed, same estimate" p (Hashtbl.find b i))
    a

(* ---- sequential stats: packed vs event-driven ------------------------ *)

let same_stats (a : Seq_circuit.stats) (b : Seq_circuit.stats) =
  a.Seq_circuit.cycles = b.Seq_circuit.cycles
  && a.Seq_circuit.comb_energy = b.Seq_circuit.comb_energy
  && a.Seq_circuit.clock_energy = b.Seq_circuit.clock_energy
  && a.Seq_circuit.ff_input_toggles = b.Seq_circuit.ff_input_toggles
  && a.Seq_circuit.ff_output_toggles = b.Seq_circuit.ff_output_toggles
  && a.Seq_circuit.gated_cycles = b.Seq_circuit.gated_cycles
  && a.Seq_circuit.outputs = b.Seq_circuit.outputs

let prop_seq_sim_packed_equals_scalar =
  prop ~count:40
    "Seq_circuit.simulate zero-delay stats identical packed vs scalar"
    QCheck2.Gen.(pair (int_bound 10_000) (2 -- 4))
    (fun (seed, bits) ->
      let stg = Gen_fsm.counter ~bits in
      let synth =
        Fsm_synth.synthesize stg (Encode.binary ~num_states:(1 lsl bits))
      in
      let stim =
        Stimulus.random
          (Lowpower.Rng.create (seed + 11))
          ~width:1
          ~length:(64 + (seed mod 80))
          ()
      in
      let a =
        Seq_circuit.simulate ~packed:true synth.Fsm_synth.circuit stim
      in
      let b =
        Seq_circuit.simulate ~packed:false synth.Fsm_synth.circuit stim
      in
      same_stats a b)

let test_seq_sim_packed_with_enables () =
  (* A register with a load-enable: gated cycles and clock energy must be
     untouched by the packed transition counting. *)
  let net = Network.create () in
  let d_in = Network.add_input net in
  let en = Network.add_input net in
  let q = Network.add_input net in
  let d = Network.add_node net Expr.(var 0 ^^^ var 1) [ d_in; q ] in
  Network.set_output net "z" d;
  let c =
    Seq_circuit.create net
      [ { Seq_circuit.d; q; enable = Some en; init = false; clock_cap = 1.5 } ]
  in
  let stim =
    Stimulus.random (Lowpower.Rng.create 23) ~width:2 ~length:100 ()
  in
  let a = Seq_circuit.simulate ~packed:true c stim in
  let b = Seq_circuit.simulate ~packed:false c stim in
  Alcotest.(check bool) "stats identical" true (same_stats a b);
  Alcotest.(check bool) "some cycles gated" true
    (a.Seq_circuit.gated_cycles > 0)

(* ---- exact FSM check ------------------------------------------------ *)

let min_width_encodings stg =
  let num_states = Stg.num_states stg in
  [
    Encode.binary ~num_states;
    Encode.gray ~num_states;
    Encode.low_power ~restarts:1 stg (Markov.uniform_inputs stg);
  ]

let fsm_encodings stg =
  Encode.one_hot ~num_states:(Stg.num_states stg) :: min_width_encodings stg

let scalar_verify synth stg =
  Fsm_synth.verify synth stg ~rng:(rng ()) ~cycles:200

(* One-hot codes of the 12-state counter would take seconds to
   synthesize, so the named machines race the minimum-width codes. *)
let test_exact_accepts_correct () =
  let named =
    [
      Gen_fsm.counter ~bits:3;
      Gen_fsm.modulo_counter ~modulus:12;
      Gen_fsm.sequence_detector ~pattern:[ true; false; true ];
    ]
  in
  let random =
    List.init 7 (fun k ->
        Gen_fsm.random (Lowpower.Rng.create k) ~num_states:(3 + k)
          ~num_inputs:(1 + (k mod 2)) ~num_outputs:2 ())
  in
  List.iter
    (fun (stg, encodings) ->
      List.iter
        (fun enc ->
          let synth = Fsm_synth.synthesize stg enc in
          let gated = Clock_gate.gate_fsm synth in
          List.iter
            (fun (what, c) ->
              let name check =
                Printf.sprintf "%s, %d states, %d bits, %s: %s" (Stg.name stg)
                  (Stg.num_states stg) enc.Encode.bits what check
              in
              Alcotest.(check bool) (name "exact") true
                (Fsm_synth.implements c stg);
              Alcotest.(check bool) (name "scalar") true (scalar_verify c stg))
            [ ("plain", synth); ("gated", gated) ])
        encodings)
    (List.map (fun stg -> (stg, min_width_encodings stg)) named
    @ List.map (fun stg -> (stg, fsm_encodings stg)) random)

(* Faults, made in place on a synthesized circuit. *)
let network synth = Seq_circuit.network synth.Fsm_synth.circuit
let registers synth = Seq_circuit.registers synth.Fsm_synth.circuit
let output_ids synth = List.map snd (Network.outputs (network synth))
let d_ids synth = List.map (fun r -> r.Seq_circuit.d) (registers synth)

let enable_ids synth =
  List.sort_uniq compare
    (List.filter_map (fun r -> r.Seq_circuit.enable) (registers synth))

let complement synth id =
  let net = network synth in
  Network.replace_func net id
    (Expr.not_ (Network.func net id))
    (Network.fanins net id)

(* Complement node [id] on the one vector [v]: input code in the low bits,
   state code above it. *)
let flip_at synth id v =
  let net = network synth in
  let vars =
    Seq_circuit.free_inputs synth.Fsm_synth.circuit
    @ List.map (fun r -> r.Seq_circuit.q) (registers synth)
  in
  let minterm =
    Network.add_node net
      (Expr.and_list
         (List.mapi
            (fun k _ ->
              if (v lsr k) land 1 = 1 then Expr.var k
              else Expr.not_ (Expr.var k))
            vars))
      vars
  in
  let fanins = Network.fanins net id in
  Network.replace_func net id
    (Expr.Xor (Network.func net id, Expr.var (List.length fanins)))
    (fanins @ [ minterm ])

let with_registers synth f =
  {
    synth with
    Fsm_synth.circuit =
      Seq_circuit.create (network synth) (List.mapi f (registers synth));
  }

let flip_init synth k =
  with_registers synth (fun j r ->
      if j = k then { r with Seq_circuit.init = not r.Seq_circuit.init }
      else r)

(* One mutant per output bit: a word-parallel check that compared some bits
   and skipped others would still reject a mutant of the first. *)
let test_verify_packed_rejects_mutant () =
  let stg = Gen_fsm.counter ~bits:3 in
  let synth () = Fsm_synth.synthesize stg (Encode.binary ~num_states:8) in
  List.iteri
    (fun k _ ->
      let synth = synth () in
      complement synth (List.nth (output_ids synth) k);
      let name check = Printf.sprintf "output %d flipped: %s" k check in
      Alcotest.(check bool) (name "exact check rejects") false
        (Fsm_synth.implements synth stg);
      Alcotest.(check bool) (name "scalar verify rejects") false
        (scalar_verify synth stg))
    (output_ids (synth ()))

(* Gated random FSMs: with every register enable replaced by one
   constant-false node the registers never leave reset, so a check that
   ignored enables would still accept the circuit. *)
let test_verify_reads_enables () =
  for seed = 1 to 20 do
    let stg =
      Gen_fsm.random (Lowpower.Rng.create seed) ~num_states:6 ~num_inputs:2
        ~num_outputs:2 ()
    in
    let gated =
      Clock_gate.gate_fsm
        (Fsm_synth.synthesize stg (Encode.binary ~num_states:6))
    in
    let name what = Printf.sprintf "seed %d: %s" seed what in
    Alcotest.(check bool) (name "exact accepts gated") true
      (Fsm_synth.implements gated stg);
    Alcotest.(check bool) (name "scalar accepts gated") true
      (scalar_verify gated stg);
    let off = Network.add_node (network gated) (Expr.Const false) [] in
    let stuck =
      with_registers gated (fun _ r -> { r with Seq_circuit.enable = Some off })
    in
    Alcotest.(check bool) (name "exact rejects stuck enables") false
      (Fsm_synth.implements stuck stg);
    Alcotest.(check bool) (name "scalar rejects stuck enables") false
      (scalar_verify stuck stg)
  done

let pick r xs = List.nth xs (Lowpower.Rng.int r (List.length xs))

(* A random reachable (state, input code) pair as a vector. *)
let reachable_vector r stg synth =
  let s = pick r (Stg.reachable stg ~from:0) in
  let i = Lowpower.Rng.int r (Stg.num_input_codes stg) in
  i lor (synth.Fsm_synth.encoding.Encode.codes.(s) lsl Stg.num_inputs stg)

(* The mutation audit: each mutant of a gated random FSM changes behaviour
   reachable from reset, so the exact check must reject every one.  The
   encodings rotate, so one-hot codes spread the reachable pairs over five
   words. *)
let test_exact_rejects_mutants () =
  for seed = 1 to 20 do
    let r = Lowpower.Rng.create seed in
    let stg =
      Gen_fsm.random r ~num_states:6 ~num_inputs:2 ~num_outputs:2 ()
    in
    let enc = List.nth (fsm_encodings stg) (seed mod 4) in
    let synth = Fsm_synth.synthesize stg enc in
    (* Each mutant edits a gated copy of one synthesis in place. *)
    let fresh () =
      let c = synth.Fsm_synth.circuit in
      Clock_gate.gate_fsm
        {
          synth with
          Fsm_synth.circuit =
            Seq_circuit.create
              (Network.copy (Seq_circuit.network c))
              (Seq_circuit.registers c);
        }
    in
    let mutant what f = (what, f (fresh ())) in
    let mutants =
      [
        mutant "every enable held at 0" (fun synth ->
            let off = Network.add_node (network synth) (Expr.Const false) [] in
            with_registers synth (fun _ reg ->
                { reg with Seq_circuit.enable = Some off }));
        mutant "gating condition inverted" (fun synth ->
            List.iter (complement synth) (enable_ids synth);
            synth);
        mutant "one d bit flipped on one reachable pair" (fun synth ->
            flip_at synth (pick r (d_ids synth)) (reachable_vector r stg synth);
            synth);
        mutant "one wrong power-up bit" (fun synth ->
            flip_init synth (Lowpower.Rng.int r enc.Encode.bits));
        mutant "one output flipped on one reachable pair" (fun synth ->
            flip_at synth (pick r (output_ids synth))
              (reachable_vector r stg synth);
            synth);
      ]
    in
    Alcotest.(check bool) (Printf.sprintf "seed %d: unmutated" seed) true
      (Fsm_synth.implements (fresh ()) stg);
    List.iter
      (fun (what, m) ->
        Alcotest.(check bool) (Printf.sprintf "seed %d: %s" seed what) false
          (Fsm_synth.implements m stg))
      mutants
  done

(* One random fault: an output, d or enable node complemented everywhere
   or on one random (input code, state code) vector, or one power-up bit
   flipped.  A fault on a code no reachable state has may be accepted;
   whatever the exact check accepts, the scalar oracle must accept. *)
let prop_exact_implies_scalar =
  prop ~count:80 "exact acceptance implies scalar acceptance"
    QCheck2.Gen.(quad (int_bound 10_000) (int_bound 4) (int_bound 3) bool)
    (fun (seed, states, enc, gated) ->
      let r = Lowpower.Rng.create seed in
      let stg =
        Gen_fsm.random r ~num_states:(3 + states) ~num_inputs:2
          ~num_outputs:2 ()
      in
      let synth =
        Fsm_synth.synthesize stg (List.nth (fsm_encodings stg) enc)
      in
      let synth = if gated then Clock_gate.gate_fsm synth else synth in
      let bits = synth.Fsm_synth.encoding.Encode.bits in
      let nodes = output_ids synth @ d_ids synth @ enable_ids synth in
      let faulty =
        match Lowpower.Rng.int r 3 with
        | 0 -> flip_init synth (Lowpower.Rng.int r bits)
        | 1 ->
          complement synth (pick r nodes);
          synth
        | _ ->
          flip_at synth (pick r nodes) (Lowpower.Rng.int r (1 lsl (2 + bits)));
          synth
      in
      (not (Fsm_synth.implements faulty stg)) || scalar_verify faulty stg)

(* A circuit that departs from its STG only at an unreachable state's code
   implements it: the property is behaviour reachable from reset. *)
let test_unreachable_departure_passes () =
  (* States 0-2 step among themselves; state 3 is never entered. *)
  let stg =
    Stg.create ~num_states:4 ~num_inputs:1 ~num_outputs:1
      ~next:(fun s i -> if s = 3 then i else (s + i) mod 3)
      ~output:(fun s i -> (s + i) land 1)
      ()
  in
  (* Every output and d node complemented at one state code, both inputs. *)
  let depart code =
    let synth = Fsm_synth.synthesize stg (Encode.binary ~num_states:4) in
    List.iter
      (fun id ->
        flip_at synth id (code lsl 1);
        flip_at synth id ((code lsl 1) lor 1))
      (output_ids synth @ d_ids synth);
    synth
  in
  let unreachable = depart 3 in
  Alcotest.(check bool) "exact check accepts" true
    (Fsm_synth.implements unreachable stg);
  Alcotest.(check bool) "scalar verify accepts" true
    (scalar_verify unreachable stg);
  Alcotest.(check bool) "the same departure at a reachable code is caught"
    false
    (Fsm_synth.implements (depart 2) stg)

let suite =
  [
    quick "popcount edge cases" test_popcount_edges;
    prop_popcount_matches_naive;
    quick "lane masks" test_lane_mask;
    quick "exhaustive words at fixed blocks" test_exhaustive_word_blocks;
    prop_exhaustive_word_random_blocks;
    quick "bernoulli_word reproducible" test_bernoulli_word_reproducible;
    quick "bernoulli_word degenerate probabilities"
      test_bernoulli_word_degenerate;
    quick "bernoulli_word bias" test_bernoulli_word_bias;
    quick "bernoulli_word lane independence"
      test_bernoulli_word_lane_independence;
    quick "Rng.stream deterministic and pure"
      test_stream_deterministic_and_pure;
    prop_pack_roundtrip;
    quick "pack/unpack word boundaries" test_pack_boundaries;
    prop_bitsim_matches_compiled;
    prop_count_transitions_matches_event_sim;
    prop_empirical_packed_equals_scalar;
    quick "packed simulated matches exact probabilities"
      test_simulated_packed_matches_exact;
    quick "packed vs scalar simulated statistics"
      test_simulated_packed_vs_scalar_statistical;
    quick "packed simulated reproducible" test_simulated_packed_reproducible;
    prop_seq_sim_packed_equals_scalar;
    quick "seq sim with enables identical packed vs scalar"
      test_seq_sim_packed_with_enables;
    quick "exact check accepts correct FSMs" test_exact_accepts_correct;
    quick "packed verify rejects a mutant" test_verify_packed_rejects_mutant;
    quick "verify reads register enables" test_verify_reads_enables;
    quick "exact check rejects five mutants" test_exact_rejects_mutants;
    prop_exact_implies_scalar;
    quick "unreachable departures pass" test_unreachable_departure_passes;
  ]
