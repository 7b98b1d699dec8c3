(* Tests for lp_arch: Dfg, Schedule, Allocate, Transform, Voltage,
   Memory_opt, Arch_power. *)

open Test_util

let fir4 () = Gen_dfg.fir ~taps:4 ()

(* --- Dfg --- *)

let test_dfg_eval () =
  let dfg = Gen_dfg.fir ~taps:3 ~coeffs:[ 1; 2; 3 ] () in
  let out = Dfg.eval dfg [ ("x0", 5); ("x1", 6); ("x2", 7) ] in
  Alcotest.(check (list (pair string int))) "fir value"
    [ ("y", 5 + 12 + 21) ] out

let test_dfg_wraparound () =
  let dfg = Dfg.create ~width:4 () in
  let a = Dfg.add dfg (Dfg.Input "a") [] in
  let b = Dfg.add dfg (Dfg.Input "b") [] in
  let s = Dfg.add dfg Dfg.Add [ a; b ] in
  let _ = Dfg.add dfg (Dfg.Output "s") [ s ] in
  Alcotest.(check (list (pair string int))) "mod 16"
    [ ("s", (9 + 12) land 15) ]
    (Dfg.eval dfg [ ("a", 9); ("b", 12) ])

let test_dfg_arity_checks () =
  let dfg = Dfg.create () in
  let a = Dfg.add dfg (Dfg.Input "a") [] in
  expect_invalid_arg "add needs 2 args" (fun () ->
      ignore (Dfg.add dfg Dfg.Add [ a ]));
  expect_invalid_arg "unknown arg" (fun () ->
      ignore (Dfg.add dfg Dfg.Add [ a; 99 ]));
  expect_invalid_arg "missing input" (fun () -> ignore (Dfg.eval dfg []))

let test_dfg_structure () =
  let dfg = fir4 () in
  Alcotest.(check int) "ops = 4 muls + 3 adds" 7 (Dfg.num_ops dfg);
  Alcotest.(check int) "inputs" 4 (List.length (Dfg.inputs dfg));
  Alcotest.(check int) "outputs" 1 (List.length (Dfg.outputs dfg))

let test_operand_traces () =
  let dfg = fir4 () in
  let samples = Gen_dfg.random_samples (rng ()) dfg ~n:10 () in
  let traces = Dfg.operand_trace dfg samples in
  Hashtbl.iter
    (fun _ tr -> Alcotest.(check int) "one entry per sample" 10 (List.length tr))
    traces;
  Alcotest.(check int) "all ops traced" 7 (Hashtbl.length traces)

(* --- structural hash and equality --- *)

(* Two insertion orders of the same dot-product; [swap] commutes the
   multiplier operands. *)
let dot2 ~reversed ~swap () =
  let d = Dfg.create ~width:8 () in
  let inp nm = Dfg.add d (Dfg.Input nm) [] in
  let a, b, c, e =
    if reversed then
      let e = inp "e" and c = inp "c" and b = inp "b" and a = inp "a" in
      (a, b, c, e)
    else
      let a = inp "a" and b = inp "b" and c = inp "c" and e = inp "e" in
      (a, b, c, e)
  in
  let p0 =
    Dfg.add d Dfg.Mul (if swap then [ b; a ] else [ a; b ])
  in
  let p1 = Dfg.add d Dfg.Mul [ c; e ] in
  let s =
    Dfg.add d Dfg.Add (if swap then [ p1; p0 ] else [ p0; p1 ])
  in
  ignore (Dfg.add d (Dfg.Output "y") [ s ]);
  d

let test_dfg_hash_invariance () =
  let base = dot2 ~reversed:false ~swap:false () in
  let h = Dfg.structural_hash base in
  Alcotest.(check int) "insertion order irrelevant" h
    (Dfg.structural_hash (dot2 ~reversed:true ~swap:false ()));
  Alcotest.(check int) "commutative operand order irrelevant" h
    (Dfg.structural_hash (dot2 ~reversed:false ~swap:true ()));
  Alcotest.(check bool) "equal graphs" true
    (Dfg.equal base (dot2 ~reversed:true ~swap:true ()));
  (* dead nodes are invisible *)
  let dead = dot2 ~reversed:false ~swap:false () in
  ignore (Dfg.add dead Dfg.Add [ 0; 1 ]);
  Alcotest.(check int) "dead node ignored" h (Dfg.structural_hash dead);
  Alcotest.(check bool) "still equal" true (Dfg.equal base dead)

let test_dfg_hash_sensitivity () =
  let base = dot2 ~reversed:false ~swap:false () in
  let h = Dfg.structural_hash base in
  (* Sub is not commutative: swapping its operands must change the hash. *)
  let sub ~swap =
    let d = Dfg.create ~width:8 () in
    let a = Dfg.add d (Dfg.Input "a") [] in
    let b = Dfg.add d (Dfg.Input "b") [] in
    let s = Dfg.add d Dfg.Sub (if swap then [ b; a ] else [ a; b ]) in
    ignore (Dfg.add d (Dfg.Output "y") [ s ]);
    d
  in
  Alcotest.(check bool) "sub operand order matters" true
    (Dfg.structural_hash (sub ~swap:false)
    <> Dfg.structural_hash (sub ~swap:true));
  Alcotest.(check bool) "sub graphs not equal" false
    (Dfg.equal (sub ~swap:false) (sub ~swap:true));
  (* output naming matters *)
  let renamed = Dfg.create ~width:8 () in
  let a = Dfg.add renamed (Dfg.Input "a") [] in
  let b = Dfg.add renamed (Dfg.Input "b") [] in
  let c = Dfg.add renamed (Dfg.Input "c") [] in
  let e = Dfg.add renamed (Dfg.Input "e") [] in
  let s =
    Dfg.add renamed Dfg.Add
      [ Dfg.add renamed Dfg.Mul [ a; b ]; Dfg.add renamed Dfg.Mul [ c; e ] ]
  in
  ignore (Dfg.add renamed (Dfg.Output "z") [ s ]);
  Alcotest.(check bool) "output name hashes" true
    (h <> Dfg.structural_hash renamed);
  Alcotest.(check bool) "output name breaks equality" false
    (Dfg.equal base renamed)

(* A duplicated subexpression hashes (and compares) apart from a shared
   one — the property that makes the rewrite engine's share rule visible
   to the search and its cost cache. *)
let test_dfg_hash_sharing () =
  let shared =
    let d = Dfg.create ~width:8 () in
    let a = Dfg.add d (Dfg.Input "a") [] in
    let b = Dfg.add d (Dfg.Input "b") [] in
    let m = Dfg.add d Dfg.Mul [ a; b ] in
    ignore (Dfg.add d (Dfg.Output "y") [ Dfg.add d Dfg.Add [ m; m ] ]);
    d
  in
  let duplicated =
    let d = Dfg.create ~width:8 () in
    let a = Dfg.add d (Dfg.Input "a") [] in
    let b = Dfg.add d (Dfg.Input "b") [] in
    let m0 = Dfg.add d Dfg.Mul [ a; b ] in
    let m1 = Dfg.add d Dfg.Mul [ a; b ] in
    ignore (Dfg.add d (Dfg.Output "y") [ Dfg.add d Dfg.Add [ m0; m1 ] ]);
    d
  in
  Alcotest.(check bool) "sharing changes the hash" true
    (Dfg.structural_hash shared <> Dfg.structural_hash duplicated);
  Alcotest.(check bool) "sharing breaks equality" false
    (Dfg.equal shared duplicated);
  (* ... but both compute the same function *)
  Alcotest.(check bool) "same function" true
    (Transform.equivalent shared duplicated ~rng:(rng ()))

let test_dfg_hash_collisions () =
  let r = rng () in
  let seen = Hashtbl.create 256 in
  for _ = 1 to 200 do
    let g = Gen_dfg.random_dfg r ~ops:(6 + Lowpower.Rng.int r 10) () in
    Hashtbl.replace seen (Dfg.structural_hash g) ()
  done;
  Alcotest.(check bool) "near-distinct hashes over random graphs" true
    (Hashtbl.length seen >= 190)

(* --- Transform.equivalent sampling --- *)

let test_equivalent_dropped_input () =
  let with_extra used =
    let d = Dfg.create ~width:8 () in
    let x = Dfg.add d (Dfg.Input "x") [] in
    let y = Dfg.add d (Dfg.Input "y") [] in
    ignore
      (Dfg.add d (Dfg.Output "o")
         [ (if used then Dfg.add d Dfg.Add [ x; y ] else x) ]);
    d
  in
  let just_x =
    let d = Dfg.create ~width:8 () in
    let x = Dfg.add d (Dfg.Input "x") [] in
    ignore (Dfg.add d (Dfg.Output "o") [ x ]);
    d
  in
  (* default sample count applies when the label is omitted *)
  Alcotest.(check bool) "dropping an unused input is fine" true
    (Transform.equivalent (with_extra false) just_x ~rng:(rng ()));
  Alcotest.(check bool) "dropping a used input is caught" false
    (Transform.equivalent (with_extra true) just_x ~rng:(rng ()));
  (* zero samples checks nothing; a negative count is rejected instead of
     counting down forever *)
  Alcotest.(check bool) "zero samples accept" true
    (Transform.equivalent ~samples:0 (with_extra true) just_x ~rng:(rng ()));
  expect_invalid_arg "negative samples" (fun () ->
      Transform.equivalent ~samples:(-1) just_x just_x ~rng:(rng ()))

(* --- Schedule --- *)

let delays dfg = Schedule.uniform_delays dfg

let test_asap_alap () =
  let dfg = fir4 () in
  let d = delays dfg in
  let early = Schedule.asap dfg d in
  (* mul (2 steps) then 3 chained adds: 2 + 3 = 5. *)
  Alcotest.(check int) "critical path" 5 early.Schedule.makespan;
  Alcotest.(check bool) "asap valid" true (Schedule.valid dfg d early);
  let late = Schedule.alap dfg ~deadline:7 d in
  Alcotest.(check bool) "alap valid" true (Schedule.valid dfg d late);
  expect_invalid_arg "deadline below critical path" (fun () ->
      ignore (Schedule.alap dfg ~deadline:3 d))

let test_mobility_nonnegative () =
  let dfg = fir4 () in
  List.iter
    (fun (_, m) -> Alcotest.(check bool) "mobility >= 0" true (m >= 0))
    (Schedule.mobility dfg (delays dfg))

let test_list_schedule_resources () =
  let dfg = fir4 () in
  let d = delays dfg in
  let res = function
    | Modlib.Multiplier_unit -> 1
    | Modlib.Adder_unit -> 1
    | Modlib.Shifter_unit -> 1
  in
  let s = Schedule.list_schedule dfg d ~resources:res in
  Alcotest.(check bool) "valid" true (Schedule.valid dfg d s);
  List.iter
    (fun (k, used) ->
      Alcotest.(check bool) "respects budget" true (used <= res k))
    (Schedule.resource_usage dfg d s);
  (* One multiplier serializes 4 two-step muls: at least 8 steps. *)
  Alcotest.(check bool) "serialized" true (s.Schedule.makespan >= 8)

let test_list_schedule_more_resources_faster () =
  let dfg = Gen_dfg.ewf_like (rng ()) ~ops:30 in
  let d = delays dfg in
  let tight =
    Schedule.list_schedule dfg d ~resources:(fun _ -> 1)
  in
  let loose =
    Schedule.list_schedule dfg d ~resources:(fun _ -> 4)
  in
  Alcotest.(check bool) "more units never slower" true
    (loose.Schedule.makespan <= tight.Schedule.makespan)

let test_list_schedule_zero_resources () =
  let dfg = fir4 () in
  expect_invalid_arg "zero multipliers" (fun () ->
      ignore
        (Schedule.list_schedule dfg (delays dfg) ~resources:(function
          | Modlib.Multiplier_unit -> 0
          | _ -> 1)))

let test_minimize_resources () =
  let dfg = fir4 () in
  let d = delays dfg in
  let asap = Schedule.asap dfg d in
  let tight = Schedule.minimize_resources dfg d ~deadline:asap.Schedule.makespan in
  Alcotest.(check bool) "valid" true (Schedule.valid dfg d tight);
  let relaxed =
    Schedule.minimize_resources dfg d ~deadline:(asap.Schedule.makespan * 2)
  in
  Alcotest.(check bool) "valid relaxed" true (Schedule.valid dfg d relaxed);
  let peak sched kind =
    Option.value (List.assoc_opt kind (Schedule.resource_usage dfg d sched))
      ~default:0
  in
  Alcotest.(check bool) "slack lowers multiplier peak" true
    (peak relaxed Modlib.Multiplier_unit <= peak tight Modlib.Multiplier_unit)

(* --- Allocate --- *)

let fir_setup () =
  let dfg = fir4 () in
  let d = delays dfg in
  let res = function
    | Modlib.Multiplier_unit -> 2
    | Modlib.Adder_unit -> 1
    | Modlib.Shifter_unit -> 1
  in
  let sched = Schedule.list_schedule dfg d ~resources:res in
  let samples = Gen_dfg.random_samples (rng ()) dfg ~n:50 () in
  let traces = Dfg.operand_trace dfg samples in
  (dfg, d, sched, traces)

let test_left_edge_valid () =
  let dfg, d, sched, _ = fir_setup () in
  let b = Allocate.left_edge dfg d sched in
  Alcotest.(check bool) "no overlap" true (Allocate.valid dfg d sched b)

let test_left_edge_minimal_instances () =
  let dfg, d, sched, _ = fir_setup () in
  let b = Allocate.left_edge dfg d sched in
  List.iter
    (fun (k, n) ->
      let peak =
        Option.value (List.assoc_opt k (Schedule.resource_usage dfg d sched))
          ~default:0
      in
      Alcotest.(check int) "instances = schedule peak" peak n)
    (Allocate.instances_used dfg b)

let test_power_aware_valid_and_better () =
  let dfg, d, sched, traces = fir_setup () in
  let le = Allocate.left_edge dfg d sched in
  let pa =
    Allocate.power_aware dfg d sched ~traces ~max_instances:(fun _ -> 4)
  in
  Alcotest.(check bool) "power binding valid" true
    (Allocate.valid dfg d sched pa);
  Alcotest.(check bool) "power binding no worse" true
    (Allocate.operand_toggles dfg sched pa ~traces
    <= Allocate.operand_toggles dfg sched le ~traces +. 1e-9)

let test_power_aware_budget () =
  let dfg, d, sched, traces = fir_setup () in
  expect_invalid_arg "budget too small" (fun () ->
      ignore
        (Allocate.power_aware dfg d sched ~traces ~max_instances:(fun _ -> 0)))

(* --- Register binding --- *)

let test_lifetimes_sane () =
  let dfg, d, sched, _ = fir_setup () in
  let lts = Reg_bind.lifetimes dfg d sched in
  Alcotest.(check bool) "every op with a consumer has a lifetime" true
    (List.length lts = Dfg.num_ops dfg);
  List.iter
    (fun lt ->
      Alcotest.(check bool) "death >= birth" true
        (lt.Reg_bind.death >= lt.Reg_bind.birth))
    lts

let test_left_edge_register_binding () =
  let dfg, d, sched, _ = fir_setup () in
  let b = Reg_bind.left_edge dfg d sched in
  Alcotest.(check bool) "valid" true (Reg_bind.valid dfg d sched b);
  (* Sharing must happen: fewer registers than variables. *)
  Alcotest.(check bool) "registers shared" true
    (Reg_bind.register_count b < Dfg.num_ops dfg)

let test_power_aware_register_binding () =
  let dfg, d, sched, _ = fir_setup () in
  let samples = Gen_dfg.random_samples (rng ()) dfg ~n:60 ~correlated:true () in
  let le = Reg_bind.left_edge dfg d sched in
  let pa =
    Reg_bind.power_aware dfg d sched ~samples
      ~max_registers:(Reg_bind.register_count le + 2)
  in
  Alcotest.(check bool) "valid" true (Reg_bind.valid dfg d sched pa);
  Alcotest.(check bool) "no more toggles than left-edge" true
    (Reg_bind.register_toggles dfg d sched pa ~samples
    <= Reg_bind.register_toggles dfg d sched le ~samples +. 1e-9)

let test_register_budget_check () =
  let dfg, d, sched, _ = fir_setup () in
  expect_invalid_arg "budget below minimum" (fun () ->
      ignore
        (Reg_bind.power_aware dfg d sched
           ~samples:(Gen_dfg.random_samples (rng ()) dfg ~n:5 ())
           ~max_registers:0))

(* --- Interconnect --- *)

let test_interconnect_structure () =
  let dfg, d, sched, _ = fir_setup () in
  let fu = Allocate.left_edge dfg d sched in
  let rb = Reg_bind.left_edge dfg d sched in
  let st = Interconnect.derive dfg d sched ~fu_binding:fu ~reg_binding:rb in
  (* A shared FU executing several ops must multiplex at least one port. *)
  Alcotest.(check bool) "muxes exist" true (st.Interconnect.fu_ports > 0);
  Alcotest.(check bool) "fan-in counted" true (st.Interconnect.mux_inputs > 0)

let test_interconnect_costs_positive_and_consistent () =
  let dfg, d, sched, _ = fir_setup () in
  let samples = Gen_dfg.random_samples (rng ()) dfg ~n:40 () in
  let fu = Allocate.left_edge dfg d sched in
  let rb = Reg_bind.left_edge dfg d sched in
  let c =
    Interconnect.evaluate dfg d sched ~fu_binding:fu ~reg_binding:rb ~samples
  in
  Alcotest.(check bool) "bus toggles positive" true (c.Interconnect.bus_toggles > 0.0);
  Alcotest.(check bool) "control toggles positive" true
    (c.Interconnect.control_toggles > 0.0);
  check_close "total is the sum"
    (c.Interconnect.bus_toggles +. c.Interconnect.control_toggles)
    (Interconnect.total_toggles c)

let test_interconnect_dedicated_units_no_mux () =
  (* With one op per unit and per register there is nothing to select. *)
  let dfg = Gen_dfg.fir ~taps:2 () in
  let d = Schedule.uniform_delays dfg in
  let sched = Schedule.asap dfg d in
  let fu = Allocate.left_edge dfg d sched in
  (* Give every variable its own register. *)
  let rb = Hashtbl.create 8 in
  List.iteri
    (fun k lt -> Hashtbl.replace rb lt.Reg_bind.var k)
    (Reg_bind.lifetimes dfg d sched);
  let st = Interconnect.derive dfg d sched ~fu_binding:fu ~reg_binding:rb in
  ignore st.Interconnect.mux_inputs;
  (* The two muls run on different instances in ASAP, so no FU port muxes
     between registers... unless the adder reuses; just assert the derive
     call is consistent with the evaluate call. *)
  let samples = Gen_dfg.random_samples (rng ()) dfg ~n:10 () in
  let c = Interconnect.evaluate dfg d sched ~fu_binding:fu ~reg_binding:rb ~samples in
  Alcotest.(check bool) "evaluate succeeds" true
    (Interconnect.total_toggles c >= 0.0)

(* --- Transform --- *)

let test_tree_height_reduction () =
  let chain = Gen_dfg.add_chain ~terms:8 in
  let reduced = Transform.tree_height_reduce chain in
  Alcotest.(check int) "chain depth 7" 7 (Transform.critical_steps chain ());
  Alcotest.(check int) "balanced depth 3" 3 (Transform.critical_steps reduced ());
  Alcotest.(check bool) "equivalent" true
    (Transform.equivalent chain reduced ~rng:(rng ()) ~samples:200)

let test_tree_height_respects_sharing () =
  (* s1 = a + b is used twice: it must not be destroyed by rebalancing. *)
  let dfg = Dfg.create () in
  let a = Dfg.add dfg (Dfg.Input "a") [] in
  let b = Dfg.add dfg (Dfg.Input "b") [] in
  let c = Dfg.add dfg (Dfg.Input "c") [] in
  let s1 = Dfg.add dfg Dfg.Add [ a; b ] in
  let s2 = Dfg.add dfg Dfg.Add [ s1; c ] in
  let _ = Dfg.add dfg (Dfg.Output "u") [ s1 ] in
  let _ = Dfg.add dfg (Dfg.Output "v") [ s2 ] in
  let r = Transform.tree_height_reduce dfg in
  Alcotest.(check bool) "equivalent with sharing" true
    (Transform.equivalent dfg r ~rng:(rng ()) ~samples:200)

let test_strength_reduction () =
  let dfg = Gen_dfg.const_mul_chain ~terms:5 in
  let sr = Transform.strength_reduce dfg in
  Alcotest.(check bool) "equivalent" true
    (Transform.equivalent dfg sr ~rng:(rng ()) ~samples:200);
  let muls g =
    List.length
      (List.filter (fun i -> Dfg.op g i = Dfg.Mul) (Dfg.nodes g))
  in
  Alcotest.(check int) "all constant muls eliminated" 0 (muls sr);
  Alcotest.(check bool) "had muls before" true (muls dfg = 5)

(* --- Module selection --- *)

let test_module_select_extremes () =
  let dfg = Gen_dfg.fir ~taps:6 () in
  let fast = Module_select.all_fastest Modlib.default dfg in
  let cheap = Module_select.all_cheapest Modlib.default dfg in
  Alcotest.(check bool) "fastest is quicker" true
    (Module_select.makespan dfg fast <= Module_select.makespan dfg cheap);
  Alcotest.(check bool) "cheapest burns less" true
    (Module_select.energy cheap <= Module_select.energy fast)

let test_module_select_tracks_deadline () =
  let dfg = Gen_dfg.fir ~taps:6 () in
  let fast = Module_select.all_fastest Modlib.default dfg in
  let d_min = Module_select.makespan dfg fast in
  let prev_energy = ref infinity in
  List.iter
    (fun slack ->
      let deadline = d_min + slack in
      let c = Module_select.select Modlib.default dfg ~deadline in
      Alcotest.(check bool) "meets deadline" true
        (Module_select.makespan dfg c <= deadline);
      Alcotest.(check bool) "energy monotone in slack" true
        (Module_select.energy c <= !prev_energy +. 1e-9);
      prev_energy := Module_select.energy c)
    [ 0; 2; 4; 8; 16 ];
  expect_invalid_arg "impossible deadline" (fun () ->
      ignore (Module_select.select Modlib.default dfg ~deadline:(d_min - 1)))

let test_module_select_reaches_cheapest () =
  let dfg = Gen_dfg.fir ~taps:4 () in
  let cheap = Module_select.all_cheapest Modlib.default dfg in
  let generous = Module_select.makespan dfg cheap + 5 in
  let c = Module_select.select Modlib.default dfg ~deadline:generous in
  check_close "unconstrained select = all cheapest"
    (Module_select.energy cheap) (Module_select.energy c)

(* --- Algorithm selection ([49]) --- *)

let test_poly_algorithms_equivalent () =
  let naive = Gen_dfg.poly_naive ~degree:5 () in
  let horner = Gen_dfg.poly_horner ~degree:5 () in
  Alcotest.(check bool) "same polynomial" true
    (Transform.equivalent naive horner ~rng:(rng ()) ~samples:300)

let test_horner_fewer_ops () =
  let naive = Gen_dfg.poly_naive ~degree:6 () in
  let horner = Gen_dfg.poly_horner ~degree:6 () in
  Alcotest.(check bool) "horner does less work" true
    (Dfg.num_ops horner < Dfg.num_ops naive)

let test_algorithm_choice_saves_energy () =
  (* The [49] claim: the algorithm determines the power, end to end through
     compilation and the instruction-level model. *)
  let naive = Gen_dfg.poly_naive ~degree:6 () in
  let horner = Gen_dfg.poly_horner ~degree:6 () in
  let measure dfg =
    let comp = Compile.compile (Compile.optimized ()) dfg in
    assert (Compile.verify comp dfg ~rng:(rng ()) ~samples:50);
    Compile.measure comp Energy_model.gp_cpu [ ("x", 13) ]
  in
  let e_naive, c_naive = measure naive in
  let e_horner, c_horner = measure horner in
  Alcotest.(check bool) "horner faster" true (c_horner < c_naive);
  Alcotest.(check bool) "horner lower energy" true (e_horner < e_naive)

(* --- Voltage --- *)

let test_delay_ratio_reference () =
  check_close "ratio 1 at reference" 1.0
    (Voltage.delay_ratio ~vdd:3.3 ~ref_vdd:3.3 ~v_threshold:0.7);
  Alcotest.(check bool) "slower below" true
    (Voltage.delay_ratio ~vdd:1.5 ~ref_vdd:3.3 ~v_threshold:0.7 > 1.0)

let test_min_vdd_monotone () =
  let v8 = Voltage.min_vdd ~steps:8 ~deadline_steps:16 ~ref_vdd:3.3 ~v_threshold:0.7 in
  let v12 = Voltage.min_vdd ~steps:12 ~deadline_steps:16 ~ref_vdd:3.3 ~v_threshold:0.7 in
  match v8, v12 with
  | Some v8, Some v12 ->
    Alcotest.(check bool) "fewer steps allow lower vdd" true (v8 < v12);
    Alcotest.(check bool) "infeasible" true
      (Voltage.min_vdd ~steps:20 ~deadline_steps:16 ~ref_vdd:3.3 ~v_threshold:0.7
      = None)
  | _ -> Alcotest.fail "expected feasible supplies"

let test_voltage_quadratic_win () =
  (* Halving the steps with the same capacitance must cut power despite the
     quadratic model being conservative near threshold. *)
  let full =
    Voltage.evaluate ~switched_cap:100.0 ~steps:16 ~deadline_steps:16
      ~ref_vdd:3.3 ~v_threshold:0.7
  in
  let fast =
    Voltage.evaluate ~switched_cap:120.0 ~steps:8 ~deadline_steps:16
      ~ref_vdd:3.3 ~v_threshold:0.7
  in
  match full, fast with
  | Some full, Some fast ->
    Alcotest.(check bool) "voltage dropped" true
      (fast.Voltage.vdd < full.Voltage.vdd);
    Alcotest.(check bool) "power dropped despite 20% more capacitance" true
      (fast.Voltage.power < full.Voltage.power)
  | _ -> Alcotest.fail "expected operating points"

(* --- Memory --- *)

let test_trace_layout () =
  let nest = Memory_opt.matrix_sum_nest ~rows:3 ~cols:2 in
  let t = Memory_opt.trace nest in
  Alcotest.(check int) "2 refs per iteration" 12 (List.length t);
  (* First iteration touches A[0] and B[0]. *)
  (match t with
  | ("A", 0) :: ("B", 0) :: _ -> ()
  | _ -> Alcotest.fail "unexpected head")

let test_reorder_permutation_check () =
  let nest = Memory_opt.matrix_sum_nest ~rows:3 ~cols:3 in
  expect_invalid_arg "bad order" (fun () ->
      ignore (Memory_opt.reorder nest ~order:[ "i"; "k" ]))

let test_lru_miss_behavior () =
  let model =
    { Memory_opt.buffer_words = 8; line_words = 4; onchip_energy = 1.0;
      offchip_energy = 10.0 }
  in
  (* Sequential sweep of 32 words: one miss per 4-word line. *)
  let stream = List.init 32 (fun a -> ("A", a)) in
  let r = Memory_opt.simulate model stream in
  Alcotest.(check int) "one miss per line" 8 r.Memory_opt.misses;
  check_close "miss rate" 0.25 (Memory_opt.miss_rate r);
  (* Re-sweeping a trace that fits entirely hits. *)
  let small = List.init 8 (fun a -> ("A", a)) in
  let twice = Memory_opt.simulate model (small @ small) in
  Alcotest.(check int) "second sweep free" 2 twice.Memory_opt.misses

let test_loop_order_matters () =
  let nest = Memory_opt.matrix_sum_nest ~rows:16 ~cols:16 in
  let model = Memory_opt.default_memory in
  let e_ij = (Memory_opt.simulate model (Memory_opt.trace nest)).Memory_opt.energy in
  let e_ji =
    (Memory_opt.simulate model
       (Memory_opt.trace (Memory_opt.reorder nest ~order:[ "j"; "i" ])))
      .Memory_opt.energy
  in
  let best_order, best_e = Memory_opt.best_order model nest in
  Alcotest.(check bool) "best is min of the orders" true
    (best_e <= min e_ij e_ji +. 1e-9);
  Alcotest.(check int) "order list complete" 2 (List.length best_order)

(* --- Arch power --- *)

let calibration = lazy (Arch_power.calibrate ~width:6 ~samples:60 ~seed:9 ())

let test_calibration_sane () =
  let cal = Lazy.force calibration in
  Alcotest.(check bool) "multiplier costs more than adder" true
    (cal.Arch_power.mul_avg > cal.Arch_power.add_avg);
  let _, k_add = cal.Arch_power.add_coeff in
  Alcotest.(check bool) "energy grows with toggles" true (k_add > 0.0)

let test_models_rank_correctly () =
  let cal = Lazy.force calibration in
  let dfg = Gen_dfg.fir ~taps:3 () in
  let r = rng () in
  let white = Dfg.operand_trace dfg (Gen_dfg.random_samples r dfg ~n:40 ()) in
  let corr =
    Dfg.operand_trace dfg (Gen_dfg.random_samples r dfg ~n:40 ~correlated:true ())
  in
  let reference_white = Arch_power.gate_level cal dfg ~traces:white in
  let reference_corr = Arch_power.gate_level cal dfg ~traces:corr in
  (* Correlated (slowly varying) data switches less at the gate level. *)
  Alcotest.(check bool) "correlated data cheaper" true
    (reference_corr < reference_white);
  (* The flat module-cost model cannot see that; the activity macromodel
     must track it more closely. *)
  let flat = Arch_power.module_cost_sum cal dfg in
  let act_corr = Arch_power.activity_macromodel cal dfg ~traces:corr in
  let err_flat = Float.abs (flat -. reference_corr) /. reference_corr in
  let err_act = Float.abs (act_corr -. reference_corr) /. reference_corr in
  Alcotest.(check bool)
    (Printf.sprintf "macromodel (%.2f) beats flat model (%.2f)" err_act err_flat)
    true (err_act < err_flat)

let test_macromodel_decent_on_white () =
  (* Use a kernel whose operands all vary, matching the calibration
     distribution (FIR coefficients are constants, which is exactly the
     off-distribution case the ranking test above exercises). *)
  let cal = Lazy.force calibration in
  let dfg = Dfg.create () in
  let x0 = Dfg.add dfg (Dfg.Input "x0") [] in
  let y0 = Dfg.add dfg (Dfg.Input "y0") [] in
  let x1 = Dfg.add dfg (Dfg.Input "x1") [] in
  let y1 = Dfg.add dfg (Dfg.Input "y1") [] in
  let p0 = Dfg.add dfg Dfg.Mul [ x0; y0 ] in
  let p1 = Dfg.add dfg Dfg.Mul [ x1; y1 ] in
  let s = Dfg.add dfg Dfg.Add [ p0; p1 ] in
  let _ = Dfg.add dfg (Dfg.Output "dot") [ s ] in
  let white =
    Dfg.operand_trace dfg (Gen_dfg.random_samples (rng ()) dfg ~n:60 ())
  in
  let reference = Arch_power.gate_level cal dfg ~traces:white in
  let predicted = Arch_power.activity_macromodel cal dfg ~traces:white in
  check_close_rel ~eps:0.25 "macromodel within 25% on white noise" reference
    predicted

let suite =
  [
    quick "dfg evaluation" test_dfg_eval;
    quick "dfg wraparound arithmetic" test_dfg_wraparound;
    quick "dfg arity checks" test_dfg_arity_checks;
    quick "dfg structure" test_dfg_structure;
    quick "operand traces" test_operand_traces;
    quick "dfg hash invariance" test_dfg_hash_invariance;
    quick "dfg hash sensitivity" test_dfg_hash_sensitivity;
    quick "dfg hash sees sharing" test_dfg_hash_sharing;
    quick "dfg hash collision-free in practice" test_dfg_hash_collisions;
    quick "equivalent catches dropped inputs" test_equivalent_dropped_input;
    quick "asap and alap" test_asap_alap;
    quick "mobility nonnegative" test_mobility_nonnegative;
    quick "list scheduling respects resources" test_list_schedule_resources;
    quick "more resources never slower" test_list_schedule_more_resources_faster;
    quick "zero resources rejected" test_list_schedule_zero_resources;
    quick "time-constrained scheduling" test_minimize_resources;
    quick "left-edge binding valid" test_left_edge_valid;
    quick "left-edge uses minimal instances" test_left_edge_minimal_instances;
    quick "power-aware binding valid and no worse" test_power_aware_valid_and_better;
    quick "binding budget enforced" test_power_aware_budget;
    quick "register lifetimes sane" test_lifetimes_sane;
    quick "left-edge register binding" test_left_edge_register_binding;
    quick "power-aware register binding" test_power_aware_register_binding;
    quick "register budget enforced" test_register_budget_check;
    quick "interconnect structure derived" test_interconnect_structure;
    quick "interconnect costs consistent" test_interconnect_costs_positive_and_consistent;
    quick "interconnect on dedicated units" test_interconnect_dedicated_units_no_mux;
    quick "tree-height reduction" test_tree_height_reduction;
    quick "tree-height reduction respects sharing" test_tree_height_respects_sharing;
    quick "strength reduction" test_strength_reduction;
    quick "module selection extremes" test_module_select_extremes;
    quick "module selection tracks deadline" test_module_select_tracks_deadline;
    quick "module selection reaches cheapest" test_module_select_reaches_cheapest;
    quick "poly algorithms equivalent" test_poly_algorithms_equivalent;
    quick "horner does less work" test_horner_fewer_ops;
    quick "algorithm choice saves energy (paper [49])" test_algorithm_choice_saves_energy;
    quick "voltage delay ratio" test_delay_ratio_reference;
    quick "min vdd monotone in slack" test_min_vdd_monotone;
    quick "quadratic voltage win (paper IV.B)" test_voltage_quadratic_win;
    quick "memory trace layout" test_trace_layout;
    quick "memory reorder validation" test_reorder_permutation_check;
    quick "lru buffer behavior" test_lru_miss_behavior;
    quick "loop order changes memory energy" test_loop_order_matters;
    quick "calibration sane" test_calibration_sane;
    quick "power models rank correctly (paper IV.A)" test_models_rank_correctly;
    quick "macromodel accuracy on white noise" test_macromodel_decent_on_white;
  ]
