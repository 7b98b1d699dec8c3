(* Differential tests of the complement-edge Bdd engine against the
   Bdd_reference oracle, plus engine-specific properties (complement
   invariants, sifting, packed-cache statistics). *)

open Test_util

let gen_expr nvars =
  let open QCheck2.Gen in
  sized_size (int_bound 8) (fix (fun self n ->
      if n <= 0 then
        oneof
          [ map (fun v -> Expr.var v) (int_bound (nvars - 1));
            map (fun b -> Expr.Const b) bool ]
      else
        oneof
          [
            map (fun v -> Expr.var v) (int_bound (nvars - 1));
            map Expr.not_ (self (n - 1));
            map2 Expr.( &&& ) (self (n / 2)) (self (n / 2));
            map2 Expr.( ||| ) (self (n / 2)) (self (n / 2));
            map2 Expr.( ^^^ ) (self (n / 2)) (self (n / 2));
          ]))

let env_of_code code v = code land (1 lsl v) <> 0

let nvars = 12

(* Exhaustive agreement between a new-engine and a reference-engine BDD. *)
let agree f g =
  let ok = ref true in
  for code = 0 to (1 lsl nvars) - 1 do
    if Bdd.eval f (env_of_code code) <> Bdd_reference.eval g (env_of_code code)
    then ok := false
  done;
  !ok

(* --- binary/ternary operations vs the oracle --- *)

let prop_and_or_xor =
  prop ~count:200 "and/or/xor/xnor match reference"
    QCheck2.Gen.(pair (gen_expr nvars) (gen_expr nvars))
    (fun (ea, eb) ->
      let m = Bdd.manager () in
      let r = Bdd_reference.manager () in
      let a = Bdd.of_expr m ea and b = Bdd.of_expr m eb in
      let ra = Bdd_reference.of_expr r ea and rb = Bdd_reference.of_expr r eb in
      agree (Bdd.and_ m a b) (Bdd_reference.and_ r ra rb)
      && agree (Bdd.or_ m a b) (Bdd_reference.or_ r ra rb)
      && agree (Bdd.xor m a b) (Bdd_reference.xor r ra rb)
      && agree (Bdd.xnor m a b) (Bdd_reference.xnor r ra rb))

let prop_ite =
  prop ~count:200 "ite matches reference"
    QCheck2.Gen.(triple (gen_expr nvars) (gen_expr nvars) (gen_expr nvars))
    (fun (ec, et, ee) ->
      let m = Bdd.manager () in
      let r = Bdd_reference.manager () in
      agree
        (Bdd.ite m (Bdd.of_expr m ec) (Bdd.of_expr m et) (Bdd.of_expr m ee))
        (Bdd_reference.ite r
           (Bdd_reference.of_expr r ec)
           (Bdd_reference.of_expr r et)
           (Bdd_reference.of_expr r ee)))

let gen_var_subset =
  QCheck2.Gen.(list_size (int_range 1 4) (int_bound (nvars - 1)))

let prop_quantifiers =
  prop ~count:200 "exists/forall match reference"
    QCheck2.Gen.(pair (gen_expr nvars) gen_var_subset)
    (fun (e, vs) ->
      let m = Bdd.manager () in
      let r = Bdd_reference.manager () in
      let f = Bdd.of_expr m e and rf = Bdd_reference.of_expr r e in
      agree (Bdd.exists m vs f) (Bdd_reference.exists r vs rf)
      && agree (Bdd.forall m vs f) (Bdd_reference.forall r vs rf))

let prop_compose =
  prop ~count:200 "compose/restrict match reference"
    QCheck2.Gen.(
      triple (gen_expr nvars) (int_bound (nvars - 1)) (gen_expr nvars))
    (fun (ef, v, eg) ->
      let m = Bdd.manager () in
      let r = Bdd_reference.manager () in
      let f = Bdd.of_expr m ef and g = Bdd.of_expr m eg in
      let rf = Bdd_reference.of_expr r ef
      and rg = Bdd_reference.of_expr r eg in
      agree (Bdd.compose m f v g) (Bdd_reference.compose r rf v rg)
      && agree (Bdd.restrict m f v true) (Bdd_reference.restrict r rf v true)
      && agree (Bdd.restrict m f v false)
           (Bdd_reference.restrict r rf v false))

let prop_probability =
  prop ~count:200 "probability matches reference" (gen_expr nvars) (fun e ->
      let m = Bdd.manager () in
      let r = Bdd_reference.manager () in
      let f = Bdd.of_expr m e and rf = Bdd_reference.of_expr r e in
      (* p = 0.5 everywhere: dyadic arithmetic, so the engines must agree
         bit-for-bit regardless of summation order. *)
      let half =
        Bdd.probability m (fun _ -> 0.5) f
        = Bdd_reference.probability r (fun _ -> 0.5) rf
      in
      (* Biased probabilities: same value up to summation-order rounding. *)
      let p v = 0.05 +. (0.9 *. float_of_int (v + 1) /. float_of_int nvars) in
      half
      && Float.abs
           (Bdd.probability m p f -. Bdd_reference.probability r p rf)
         < 1e-12)

let prop_probabilities_shared =
  prop ~count:200 "probabilities (shared memo) = per-root probability"
    QCheck2.Gen.(list_size (int_bound 6) (pair (gen_expr nvars) bool))
    (fun es ->
      let m = Bdd.manager () in
      let fs =
        List.map
          (fun (e, neg) ->
            let f = Bdd.of_expr m e in
            if neg then Bdd.not_ m f else f)
          es
      in
      (* Constants and complemented roots alongside the generated ones;
         complements share every node with their originals. *)
      let roots =
        (Bdd.tru m :: fs) @ (Bdd.fls m :: List.map (Bdd.not_ m) fs)
      in
      let p v = 0.05 +. (0.9 *. float_of_int ((v * 7) mod nvars) /. float_of_int nvars) in
      Bdd.probabilities m p [] = []
      && Bdd.probabilities m p roots = List.map (Bdd.probability m p) roots)

let prop_support_anysat =
  prop ~count:200 "support/any_sat/size invariants" (gen_expr nvars) (fun e ->
      let m = Bdd.manager () in
      let r = Bdd_reference.manager () in
      let f = Bdd.of_expr m e and rf = Bdd_reference.of_expr r e in
      Bdd.support f = Bdd_reference.support rf
      && (match Bdd.any_sat f with
         | None -> Bdd_reference.any_sat rf = None
         | Some a ->
           Bdd.eval f (fun v ->
               Option.value (List.assoc_opt v a) ~default:false))
      (* Complement edges: a function and its negation share every node. *)
      && Bdd.size f = Bdd.size (Bdd.not_ m f))

let prop_cover =
  prop ~count:200 "fold_paths cover matches reference cover" (gen_expr 8)
    (fun e ->
      let m = Bdd.manager () in
      let r = Bdd_reference.manager () in
      let cov = Cover.of_bdd 8 m (Bdd.of_expr m e) in
      let rcov =
        let cubes =
          Bdd_reference.fold_paths r
            (Bdd_reference.of_expr r e)
            ~init:[]
            ~f:(fun acc path -> Cube.of_lits path ~n:8 :: acc)
        in
        Cover.of_cubes 8 cubes
      in
      Truth_table.equal (Cover.to_truth_table cov)
        (Cover.to_truth_table rcov))

(* --- mark / release --- *)

let prop_release_keeps_older =
  prop ~count:200 "release keeps BDDs built before the mark"
    QCheck2.Gen.(
      triple
        (list_size (int_range 1 4) (gen_expr nvars))
        (list_size (int_range 1 4) (gen_expr nvars))
        (gen_expr nvars))
    (fun (older, scratch, later) ->
      let m = Bdd.manager () in
      let fs = List.map (Bdd.of_expr m) older in
      let p v = 0.05 +. (0.9 *. float_of_int ((v * 5) mod nvars) /. float_of_int nvars) in
      let probs = Bdd.probabilities m p fs in
      let count = Bdd.node_count m in
      let mk = Bdd.mark m in
      (* Scratch work mixes new nodes with the older ones. *)
      List.iter
        (fun e ->
          let g = Bdd.of_expr m e in
          List.iter (fun f -> ignore (Bdd.xor m f (Bdd.and_ m f g))) fs)
        scratch;
      Bdd.release m mk;
      let count_back = Bdd.node_count m = count in
      (* The unique table still finds every older node: rebuilding an
         older function yields the very same edge. *)
      let edges =
        List.for_all2 (fun f e -> Bdd.equal f (Bdd.of_expr m e)) fs older
      in
      let functions =
        List.for_all2
          (fun f e ->
            agree f (Bdd_reference.of_expr (Bdd_reference.manager ()) e))
          fs older
      in
      (* The store keeps working above the mark. *)
      let r = Bdd_reference.manager () in
      let later_ok =
        agree
          (Bdd.and_ m (Bdd.of_expr m later) (List.hd fs))
          (Bdd_reference.and_ r
             (Bdd_reference.of_expr r later)
             (Bdd_reference.of_expr r (List.hd older)))
      in
      count_back && edges && functions && later_ok
      && Bdd.probabilities m p fs = probs)

let test_release_rejects_stale () =
  let m = Bdd.manager () in
  let a = Bdd.of_expr m Expr.(var 0 &&& var 1) in
  let mk = Bdd.mark m in
  let g = Bdd.of_expr m Expr.(var 2 ^^^ var 3 ^^^ var 4) in
  Bdd.release m mk;
  expect_invalid_arg "and_ with a released BDD" (fun () -> Bdd.and_ m a g);
  expect_invalid_arg "eval of a released BDD" (fun () ->
      Bdd.eval g (fun _ -> true));
  expect_invalid_arg "probability of a released BDD" (fun () ->
      Bdd.probability m (fun _ -> 0.5) g);
  (* New nodes refill the freed slots; the old handle is still caught. *)
  let h = Bdd.of_expr m Expr.(var 5 ||| var 6 ||| var 7 ||| var 8) in
  expect_invalid_arg "released BDD after its slot is refilled" (fun () ->
      Bdd.size g);
  Alcotest.(check bool) "BDDs from before the mark still work" true
    (Bdd.eval (Bdd.or_ m a h) (fun v -> v = 5));
  Bdd.release m mk;
  Bdd.release m mk;
  Alcotest.(check bool) "releasing to the same mark again" true
    (Bdd.eval a (fun _ -> true));
  ignore (Bdd.of_expr m Expr.(var 14 &&& var 15));
  let inner = Bdd.mark m in
  ignore (Bdd.of_expr m Expr.(var 9 &&& var 10));
  Bdd.release m mk;
  ignore (Bdd.of_expr m Expr.(var 11 ||| var 12 ||| var 13));
  expect_invalid_arg "a mark above an earlier release" (fun () ->
      Bdd.release m inner);
  expect_invalid_arg "a mark of another manager" (fun () ->
      Bdd.release (Bdd.manager ()) mk)

let test_release_rejects_mark_before_reorder () =
  let m = Bdd.manager () in
  let f = Bdd.of_expr m Expr.(var 0 &&& var 3 ||| (var 1 &&& var 4)) in
  let mk = Bdd.mark m in
  let f' = match Bdd.reorder m [ f ] with [ x ] -> x | _ -> assert false in
  expect_invalid_arg "mark from before a reorder" (fun () ->
      Bdd.release m mk);
  let mk' = Bdd.mark m in
  ignore (Bdd.of_expr m Expr.(var 2 ^^^ var 5));
  Bdd.release m mk';
  Alcotest.(check bool) "a mark after the reorder releases" true
    (Bdd.eval f' (fun v -> v = 0 || v = 3))

(* --- sifting --- *)

let prop_sift_single =
  prop ~count:120 "sifting preserves the function, never grows the root"
    (gen_expr nvars) (fun e ->
      let m = Bdd.manager () in
      let f = Bdd.of_expr m e in
      let size0 = Bdd.size f in
      let f' = match Bdd.reorder m [ f ] with [ x ] -> x | _ -> assert false in
      let ok = ref (Bdd.size f' <= size0) in
      for code = 0 to (1 lsl nvars) - 1 do
        if Bdd.eval f' (env_of_code code) <> Expr.eval (env_of_code code) e
        then ok := false
      done;
      !ok)

let prop_sift_multi =
  prop ~count:80 "sifting preserves every root of a shared manager"
    QCheck2.Gen.(triple (gen_expr 10) (gen_expr 10) (gen_expr 10))
    (fun (e1, e2, e3) ->
      let m = Bdd.manager () in
      let roots = List.map (Bdd.of_expr m) [ e1; e2; e3 ] in
      let roots' = Bdd.reorder m roots in
      List.for_all2
        (fun f' e ->
          let ok = ref true in
          for code = 0 to (1 lsl 10) - 1 do
            if Bdd.eval f' (env_of_code code) <> Expr.eval (env_of_code code) e
            then ok := false
          done;
          !ok)
        roots' [ e1; e2; e3 ])

let test_sift_interleaves_adder () =
  (* Worst-case order for a ripple-carry sum bit: all a's above all b's.
     Sifting must find a near-interleaved order and collapse the BDD. *)
  let n = 8 in
  let m = Bdd.manager () in
  let bit v k = Expr.var ((v * n) + k) in
  let rec carry k =
    if k < 0 then Expr.fls
    else
      Expr.(
        bit 0 k &&& bit 1 k
        ||| ((bit 0 k ^^^ bit 1 k) &&& carry (k - 1)))
  in
  let sum7 = Expr.(bit 0 7 ^^^ bit 1 7 ^^^ carry 6) in
  let f = Bdd.of_expr m sum7 in
  let size0 = Bdd.size f in
  let f' = match Bdd.reorder m [ f ] with [ x ] -> x | _ -> assert false in
  Alcotest.(check bool) "sifting shrinks the badly-ordered adder" true
    (Bdd.size f' * 4 < size0);
  (* Spot-check the function on random codes. *)
  let rng = rng () in
  for _ = 1 to 200 do
    let code = Lowpower.Rng.int rng (1 lsl 16) in
    Alcotest.(check bool) "sifted function value"
      (Expr.eval (env_of_code code) sum7)
      (Bdd.eval f' (env_of_code code))
  done

(* --- engine surface --- *)

let test_engine_surface () =
  let m = Bdd.manager () in
  let f = Bdd.of_expr m Expr.(var 0 ^^^ var 1 ^^^ var 2) in
  Alcotest.(check bool) "double negation is identity" true
    (Bdd.equal f (Bdd.not_ m (Bdd.not_ m f)));
  Alcotest.(check int) "xor chain is linear with complement edges" 3
    (Bdd.size f);
  Alcotest.(check bool) "peak >= live" true
    (Bdd.peak_node_count m >= Bdd.node_count m);
  let st = Bdd.stats m in
  Alcotest.(check bool) "cache miss counter advanced" true
    (st.Bdd.cache_misses > 0);
  Alcotest.(check bool) "live nodes tracked" true
    (st.Bdd.live_nodes = Bdd.node_count m);
  Alcotest.(check int) "three variables known" 3 (Bdd.num_vars m);
  expect_invalid_arg "probabilities rejects a root of another manager"
    (fun () -> Bdd.probabilities (Bdd.manager ()) (fun _ -> 0.5) [ f ])

let test_set_order () =
  let m = Bdd.manager () in
  Bdd.set_order m [| 2; 0; 1 |];
  Alcotest.(check bool) "order installed" true (Bdd.order m = [| 2; 0; 1 |]);
  let f = Bdd.of_expr m Expr.(var 0 &&& var 1 &&& var 2) in
  Alcotest.(check bool) "function unaffected by order" true
    (Bdd.eval f (fun _ -> true));
  expect_invalid_arg "set_order on a dirty manager" (fun () ->
      Bdd.set_order m [| 0; 1; 2 |]);
  let m2 = Bdd.manager () in
  expect_invalid_arg "set_order rejects non-permutations" (fun () ->
      Bdd.set_order m2 [| 0; 0; 1 |])

let test_order_independence () =
  (* The same function built under two different orders evaluates alike. *)
  let e = Expr.(var 0 &&& var 1 ||| (var 2 ^^^ var 3) ||| (var 4 &&& var 0)) in
  let m1 = Bdd.manager () in
  let m2 = Bdd.manager ~order:[| 4; 3; 2; 1; 0 |] () in
  let f1 = Bdd.of_expr m1 e and f2 = Bdd.of_expr m2 e in
  for code = 0 to 31 do
    Alcotest.(check bool) "same value under both orders"
      (Bdd.eval f1 (env_of_code code))
      (Bdd.eval f2 (env_of_code code))
  done

let test_network_interleave () =
  let net = (Circuits.ripple_adder 4).Circuits.net in
  let order = Network.bdd_input_order net in
  Alcotest.(check (list int)) "a/b bits interleaved by significance"
    [ 0; 4; 1; 5; 2; 6; 3; 7 ]
    (Array.to_list order);
  (* The interleaved build must agree with the reference engine. *)
  let man = Bdd.manager () in
  let f = Network.output_bdd net man "out3" in
  let r = Bdd_reference.manager () in
  let rf =
    let bdds = Hashtbl.create 16 in
    List.iteri
      (fun k i -> Hashtbl.replace bdds i (Bdd_reference.var r k))
      (Network.inputs net);
    List.iter
      (fun i ->
        if not (Network.is_input net i) then begin
          let fanins =
            Array.of_list
              (List.map (Hashtbl.find bdds) (Network.fanins net i))
          in
          let rec build = function
            | Expr.Const b ->
              if b then Bdd_reference.tru r else Bdd_reference.fls r
            | Expr.Var v -> fanins.(v)
            | Expr.Not e -> Bdd_reference.not_ r (build e)
            | Expr.And es -> Bdd_reference.and_list r (List.map build es)
            | Expr.Or es -> Bdd_reference.or_list r (List.map build es)
            | Expr.Xor (a, b) -> Bdd_reference.xor r (build a) (build b)
          in
          Hashtbl.replace bdds i (build (Network.func net i))
        end)
      (Network.topo_order net);
    Hashtbl.find bdds (List.assoc "out3" (Network.outputs net))
  in
  for code = 0 to 255 do
    Alcotest.(check bool) "interleaved adder output agrees with reference"
      (Bdd_reference.eval rf (env_of_code code))
      (Bdd.eval f (env_of_code code))
  done

let suite =
  [
    quick "engine surface" test_engine_surface;
    quick "set_order" test_set_order;
    quick "order independence" test_order_independence;
    quick "network interleave" test_network_interleave;
    quick "sifting recovers adder order" test_sift_interleaves_adder;
    quick "release rejects stale BDDs and marks" test_release_rejects_stale;
    quick "release rejects a mark from before a reorder"
      test_release_rejects_mark_before_reorder;
    prop_release_keeps_older;
    prop_and_or_xor;
    prop_ite;
    prop_quantifiers;
    prop_compose;
    prop_probability;
    prop_probabilities_shared;
    prop_support_anysat;
    prop_cover;
    prop_sift_single;
    prop_sift_multi;
  ]
