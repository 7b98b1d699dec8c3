let use_counts dfg =
  let uses = Hashtbl.create 32 in
  List.iter
    (fun i ->
      List.iter
        (fun a ->
          let c = Option.value (Hashtbl.find_opt uses a) ~default:0 in
          Hashtbl.replace uses a (c + 1))
        (Dfg.args dfg i))
    (Dfg.nodes dfg);
  fun i -> Option.value (Hashtbl.find_opt uses i) ~default:0

let tree_height_reduce dfg =
  let uses = use_counts dfg in
  let out = Dfg.create ~width:(Dfg.width dfg) () in
  let memo = Hashtbl.create 32 in
  (* Leaves of the maximal same-operator tree rooted at [i]: descend only
     through single-use nodes with the same operator. *)
  let rec flatten root_op i ~is_root =
    match Dfg.op dfg i with
    | o when o = root_op && (is_root || uses i = 1) ->
      List.concat_map (fun a -> flatten root_op a ~is_root:false) (Dfg.args dfg i)
    | _ -> [ i ]
  in
  let rec build i =
    match Hashtbl.find_opt memo i with
    | Some j -> j
    | None ->
      let j =
        match Dfg.op dfg i with
        | (Dfg.Input _ | Dfg.Const _) as o -> Dfg.add out o []
        | (Dfg.Add | Dfg.Mul) as o ->
          let leaves = flatten o i ~is_root:true in
          let built = List.map build leaves in
          let rec balance = function
            | [] -> assert false
            | [ x ] -> x
            | xs ->
              let rec pair = function
                | x :: y :: rest -> Dfg.add out o [ x; y ] :: pair rest
                | [ x ] -> [ x ]
                | [] -> []
              in
              balance (pair xs)
          in
          balance built
        | (Dfg.Sub | Dfg.Shift_left _ | Dfg.Output _) as o ->
          Dfg.add out o (List.map build (Dfg.args dfg i))
      in
      Hashtbl.replace memo i j;
      j
  in
  List.iter (fun (_, i) -> ignore (build i)) (Dfg.outputs dfg);
  out

let strength_reduce dfg =
  let out = Dfg.create ~width:(Dfg.width dfg) () in
  let memo = Hashtbl.create 32 in
  let log2_exact c =
    let rec go k = if 1 lsl k = c then Some k else if 1 lsl k > c then None else go (k + 1) in
    if c <= 0 then None else go 0
  in
  let rec build i =
    match Hashtbl.find_opt memo i with
    | Some j -> j
    | None ->
      let j =
        match Dfg.op dfg i, Dfg.args dfg i with
        | Dfg.Mul, [ a; b ] ->
          let const_of n =
            match Dfg.op dfg n with
            | Dfg.Const c -> log2_exact c
            | Dfg.Input _ | Dfg.Add | Dfg.Sub | Dfg.Mul | Dfg.Shift_left _
            | Dfg.Output _ -> None
          in
          (match const_of b, const_of a with
          | Some k, _ -> Dfg.add out (Dfg.Shift_left k) [ build a ]
          | None, Some k -> Dfg.add out (Dfg.Shift_left k) [ build b ]
          | None, None -> Dfg.add out Dfg.Mul [ build a; build b ])
        | o, args -> Dfg.add out o (List.map build args)
      in
      Hashtbl.replace memo i j;
      j
  in
  List.iter (fun (_, i) -> ignore (build i)) (Dfg.outputs dfg);
  out

let equivalent ?(samples = 64) a b ~rng =
  if samples < 0 then invalid_arg "Transform.equivalent: negative samples";
  (* Transforms may drop inputs the outputs never depended on, so compare
     over the union of input names (each eval reads only what it needs). *)
  let names =
    List.sort_uniq compare
      (List.map fst (Dfg.inputs a) @ List.map fst (Dfg.inputs b))
  in
  let m = (1 lsl Dfg.width a) - 1 in
  let rec go k =
    if k = 0 then true
    else begin
      let env =
        List.map (fun nm -> (nm, Lowpower.Rng.int rng (m + 1))) names
      in
      let norm outs = List.sort compare outs in
      if norm (Dfg.eval a env) = norm (Dfg.eval b env) then go (k - 1)
      else false
    end
  in
  go samples

let critical_steps dfg ?(mul_steps = 2) () =
  (Schedule.asap dfg (Schedule.uniform_delays ~mul_steps dfg)).Schedule.makespan
