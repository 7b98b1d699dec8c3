type id = int

type kind = Input | Logic

type node = {
  nid : id;
  node_name : string;
  kind : kind;
  mutable nfunc : Expr.t;
  mutable nfanins : id list;
  mutable ndelay : float;
  mutable ncap : float;
  mutable nleak : float;
}

type t = {
  nodes : (id, node) Hashtbl.t;
  mutable ins : id list;    (* reverse order *)
  mutable outs : (string * id) list; (* reverse order *)
  mutable next : int;
  (* Reverse adjacency (fanouts), maintained incrementally on every edit so
     [fanouts], [required_times] and [slacks] are linear in the network
     size rather than quadratic.  Each list holds each fanout once (a node
     with a duplicated fanin appears once). *)
  rev : (id, id list) Hashtbl.t;
  (* Derived-structure caches, dropped on any structural edit. *)
  mutable levels_cache : (id, int) Hashtbl.t option;
  mutable topo_cache : id list option;
  (* Topology snapshot lent to the Sta timing engine; additionally
     dropped on [set_output], which changes the sink set without being a
     structural edit.  Delay/cap/leak edits keep it valid: the graph
     carries no annotations. *)
  mutable graph_cache : Sta.graph option;
}

exception Cycle of id list

let create () =
  { nodes = Hashtbl.create 64; ins = []; outs = []; next = 0;
    rev = Hashtbl.create 64; levels_cache = None; topo_cache = None;
    graph_cache = None }

let invalidate t =
  t.levels_cache <- None;
  t.topo_cache <- None;
  t.graph_cache <- None

let get t i =
  match Hashtbl.find_opt t.nodes i with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Network: unknown node %d" i)

let mem t i = Hashtbl.mem t.nodes i

let fresh t = let i = t.next in t.next <- i + 1; i

let rev_add t fanins i =
  List.iter
    (fun j ->
      let l = Option.value (Hashtbl.find_opt t.rev j) ~default:[] in
      Hashtbl.replace t.rev j (i :: l))
    (List.sort_uniq compare fanins)

let rev_remove t fanins i =
  List.iter
    (fun j ->
      match Hashtbl.find_opt t.rev j with
      | None -> ()
      | Some l -> Hashtbl.replace t.rev j (List.filter (fun k -> k <> i) l))
    (List.sort_uniq compare fanins)

let add_input ?name t =
  let i = fresh t in
  let node_name =
    match name with Some s -> s | None -> Printf.sprintf "x%d" (List.length t.ins)
  in
  Hashtbl.add t.nodes i
    { nid = i; node_name; kind = Input; nfunc = Expr.fls; nfanins = [];
      ndelay = 0.0; ncap = 1.0; nleak = 0.0 };
  t.ins <- i :: t.ins;
  invalidate t;
  i

let check_func_arity f fanins =
  if Expr.max_var f >= List.length fanins then
    invalid_arg "Network: expression references variable beyond fanins"

let add_node ?name ?(delay = 1.0) ?(cap = 1.0) ?(leak = 0.0) t f fanins =
  List.iter (fun j -> ignore (get t j)) fanins;
  check_func_arity f fanins;
  let i = fresh t in
  let node_name =
    match name with Some s -> s | None -> Printf.sprintf "n%d" i
  in
  Hashtbl.add t.nodes i
    { nid = i; node_name; kind = Logic; nfunc = f; nfanins = fanins;
      ndelay = delay; ncap = cap; nleak = leak };
  rev_add t fanins i;
  invalidate t;
  i

let set_output t name i =
  ignore (get t i);
  t.outs <- (name, i) :: List.remove_assoc name t.outs;
  t.graph_cache <- None

let inputs t = List.rev t.ins
let outputs t = List.rev t.outs

let node_ids t =
  List.sort compare (Hashtbl.fold (fun i _ acc -> i :: acc) t.nodes [])

let node_count t =
  Hashtbl.fold (fun _ n acc -> if n.kind = Logic then acc + 1 else acc) t.nodes 0

let is_input t i = (get t i).kind = Input
let name t i = (get t i).node_name

let func t i =
  let n = get t i in
  match n.kind with
  | Input -> invalid_arg "Network.func: input node"
  | Logic -> n.nfunc

let fanins t i = (get t i).nfanins

let fanouts t i =
  ignore (get t i);
  List.sort compare (Option.value (Hashtbl.find_opt t.rev i) ~default:[])

let delay t i = (get t i).ndelay
let cap t i = (get t i).ncap
let leak t i = (get t i).nleak
let set_delay t i d = (get t i).ndelay <- d
let set_cap t i c = (get t i).ncap <- c
let set_leak t i l = (get t i).nleak <- l

let input_index t i =
  let rec find k = function
    | [] -> raise Not_found
    | j :: _ when j = i -> k
    | _ :: rest -> find (k + 1) rest
  in
  find 0 (inputs t)

(* Depth-first topological sort with on-stack cycle detection.  The result
   is cached until the next structural edit. *)
let topo_order t =
  match t.topo_cache with
  | Some order -> order
  | None ->
    let visited = Hashtbl.create (Hashtbl.length t.nodes) in
    let on_stack = Hashtbl.create 16 in
    let order = ref [] in
    let rec visit path i =
      if Hashtbl.mem on_stack i then raise (Cycle (i :: path));
      if not (Hashtbl.mem visited i) then begin
        Hashtbl.add on_stack i ();
        let n = get t i in
        List.iter (visit (i :: path)) n.nfanins;
        Hashtbl.remove on_stack i;
        Hashtbl.add visited i ();
        order := i :: !order
      end
    in
    List.iter (visit []) (node_ids t);
    let all = List.rev !order in
    let ins, logic = List.partition (fun i -> (get t i).kind = Input) all in
    (* Keep declared input order. *)
    let declared = inputs t in
    assert (List.length ins = List.length declared);
    let order = declared @ logic in
    t.topo_cache <- Some order;
    order

let eval t input_values =
  let ins = inputs t in
  if Array.length input_values <> List.length ins then
    invalid_arg "Network.eval: input arity mismatch";
  let values = Hashtbl.create (Hashtbl.length t.nodes) in
  List.iteri (fun k i -> Hashtbl.replace values i input_values.(k)) ins;
  List.iter
    (fun i ->
      let n = get t i in
      match n.kind with
      | Input -> ()
      | Logic ->
        let fanin_vals =
          Array.of_list (List.map (Hashtbl.find values) n.nfanins)
        in
        Hashtbl.replace values i (Expr.eval (fun v -> fanin_vals.(v)) n.nfunc))
    (topo_order t);
  values

let eval_outputs t input_values =
  let values = eval t input_values in
  List.map (fun (nm, i) -> (nm, Hashtbl.find values i)) (outputs t)

(* Interleave operand bits in the variable order: inputs named
   [<prefix><digits>] sort by (numeric suffix, prefix), so declared order
   a0..a7,b0..b7 becomes a0,b0,a1,b1,…  Keeping same-significance bits
   adjacent is what makes adder/comparator BDDs linear instead of
   exponential; suffix-less inputs (selects, enables) stay in front in
   declared order, which puts them near the root. *)
let bdd_input_order t =
  let split nm =
    let len = String.length nm in
    let i = ref len in
    while !i > 0 && nm.[!i - 1] >= '0' && nm.[!i - 1] <= '9' do
      decr i
    done;
    if !i = len || !i = 0 then None
    else Some (String.sub nm 0 !i, int_of_string (String.sub nm !i (len - !i)))
  in
  let keyed =
    List.mapi
      (fun k i ->
        match split (name t i) with
        | Some (p, s) -> ((0, s, p, k), k)
        | None -> ((-1, 0, "", k), k))
      (inputs t)
  in
  Array.of_list (List.map snd (List.sort compare keyed))

(* Adopt the interleaved order when the caller hands us a pristine
   manager; a manager that already holds nodes or a caller-chosen order
   is left alone. *)
let adopt_input_order t man =
  if Bdd.node_count man = 0 && Bdd.num_vars man = 0 then
    Bdd.set_order man (bdd_input_order t)

(* Shared builder behind [global_bdds] and [output_bdd]; [keep] limits the
   build to a cone, and the build stops after the first node that leaves
   [man] holding more than [max_nodes] nodes. *)
let build_global_bdds ?(max_nodes = max_int) t man ~keep =
  let bdds = Hashtbl.create (Hashtbl.length t.nodes) in
  List.iteri
    (fun k i -> if keep i then Hashtbl.replace bdds i (Bdd.var man k))
    (inputs t);
  let rec go = function
    | [] -> ()
    | i :: rest ->
      (if keep i then
         let n = get t i in
         match n.kind with
         | Input -> ()
         | Logic ->
           let fanin_bdds =
             Array.of_list (List.map (Hashtbl.find bdds) n.nfanins)
           in
           let rec build = function
             | Expr.Const b -> if b then Bdd.tru man else Bdd.fls man
             | Expr.Var v -> fanin_bdds.(v)
             | Expr.Not e -> Bdd.not_ man (build e)
             | Expr.And es -> Bdd.and_list man (List.map build es)
             | Expr.Or es -> Bdd.or_list man (List.map build es)
             | Expr.Xor (a, b) -> Bdd.xor man (build a) (build b)
           in
           Hashtbl.replace bdds i (build n.nfunc));
      if Bdd.node_count man <= max_nodes then go rest
  in
  go (topo_order t);
  bdds

let global_bdds ?max_nodes t man =
  adopt_input_order t man;
  build_global_bdds ?max_nodes t man ~keep:(fun _ -> true)

let output_bdd t man output_name =
  match List.assoc_opt output_name (outputs t) with
  | None -> invalid_arg ("Network.output_bdd: unknown output " ^ output_name)
  | Some root ->
    adopt_input_order t man;
    (* Build only the transitive fanin cone of the requested output. *)
    let cone = Hashtbl.create 64 in
    let rec mark i =
      if not (Hashtbl.mem cone i) then begin
        Hashtbl.replace cone i ();
        List.iter mark (fanins t i)
      end
    in
    mark root;
    let bdds = build_global_bdds t man ~keep:(Hashtbl.mem cone) in
    Hashtbl.find bdds root

(* --- Canonical structural hashing ---------------------------------- *)

(* A 63-bit mixer in the SplitMix64 style (constants truncated to fit
   OCaml's native int; wrap-around multiplication is deterministic).  The
   hash must depend only on structure — input positions, local functions,
   fanin wiring, output names, delay/cap annotations — and never on node
   ids or hashtable iteration order, so that [copy]ing a network or
   rebuilding it with a different id assignment yields the same hash. *)
let h_mix z =
  let z = (z * 0x1E3779B97F4A7C15) + 0x165667B19E3779F9 in
  let z = (z lxor (z lsr 29)) * 0x2545F4914F6CDD1D in
  let z = (z lxor (z lsr 31)) * 0x27D4EB2F165667C5 in
  (z lxor (z lsr 30)) land max_int

let h_combine h x = h_mix ((h * 0x100000001B3) lxor x)

let h_float f = Int64.to_int (Int64.bits_of_float f) land max_int

let h_string s =
  let h = ref (h_mix (String.length s)) in
  String.iter (fun c -> h := h_combine !h (Char.code c)) s;
  !h

(* Expression hash with fanin-hash substitution: [Var v] contributes the
   hash of the node's [v]-th fanin, so structurally identical functions
   over structurally identical cones collide exactly. *)
let rec h_expr fh = function
  | Expr.Const b -> h_mix (if b then 3 else 5)
  | Expr.Var v -> h_combine 11 fh.(v)
  | Expr.Not e -> h_combine 13 (h_expr fh e)
  | Expr.And es -> List.fold_left (fun a e -> h_combine a (h_expr fh e)) 17 es
  | Expr.Or es -> List.fold_left (fun a e -> h_combine a (h_expr fh e)) 19 es
  | Expr.Xor (a, b) -> h_combine (h_combine 23 (h_expr fh a)) (h_expr fh b)

let structural_hash t =
  let node_hash = Hashtbl.create (Hashtbl.length t.nodes) in
  List.iteri
    (fun k i ->
      let n = get t i in
      let h = h_combine (h_mix (29 + k)) (h_float n.ncap) in
      let h = h_combine h (h_float n.ndelay) in
      Hashtbl.replace node_hash i (h_combine h (h_float n.nleak)))
    (inputs t);
  List.iter
    (fun i ->
      let n = get t i in
      if n.kind = Logic then begin
        let fh =
          Array.of_list (List.map (Hashtbl.find node_hash) n.nfanins)
        in
        let h = h_expr fh n.nfunc in
        let h = Array.fold_left h_combine (h_combine 31 h) fh in
        let h = h_combine h (h_float n.ndelay) in
        let h = h_combine h (h_float n.ncap) in
        Hashtbl.replace node_hash i (h_combine h (h_float n.nleak))
      end)
    (topo_order t);
  (* Nodes and outputs are folded in commutatively (sum mod 2^62), so the
     hash is insensitive to id numbering, declaration order of outputs and
     hashtable layout; multiplicity of identical dead nodes still counts. *)
  let mask = max_int in
  let all_nodes =
    Hashtbl.fold (fun _ h acc -> (acc + h) land mask) node_hash 0
  in
  let outs =
    List.fold_left
      (fun acc (nm, i) ->
        (acc + h_combine (h_string nm) (Hashtbl.find node_hash i)) land mask)
      0 (outputs t)
  in
  let h = h_mix (List.length t.ins) in
  let h = h_combine h all_nodes in
  h_combine h outs

let literal_count t =
  Hashtbl.fold
    (fun _ n acc ->
      match n.kind with Input -> acc | Logic -> acc + Expr.literal_count n.nfunc)
    t.nodes 0

let total_cap t = Hashtbl.fold (fun _ n acc -> acc +. n.ncap) t.nodes 0.0

let levels t =
  match t.levels_cache with
  | Some lv -> lv
  | None ->
    let lv = Hashtbl.create (Hashtbl.length t.nodes) in
    List.iter
      (fun i ->
        let n = get t i in
        match n.kind with
        | Input -> Hashtbl.replace lv i 0
        | Logic ->
          let deep =
            List.fold_left (fun d j -> max d (Hashtbl.find lv j)) 0 n.nfanins
          in
          Hashtbl.replace lv i (deep + 1))
      (topo_order t);
    t.levels_cache <- Some lv;
    lv

let level t i = Hashtbl.find (levels t) i

(* The timing views are thin wrappers over the flat-array [Sta] engine:
   the network lends it a [timing_graph] topology snapshot indexed by
   raw id (ids are dense: always < t.next; ids freed by [sweep] are
   simply absent from [topo] and never visited), and the per-node
   hashtables the public API promises are built in one final pass over
   the engine's arrays. *)

let timing_graph t =
  match t.graph_cache with
  | Some g -> g
  | None ->
    let size = t.next in
    let topo = Array.of_list (topo_order t) in
    let fanins = Array.make size [||] in
    let fanouts = Array.make size [||] in
    let is_source = Array.make size false in
    Array.iter
      (fun i ->
        let n = get t i in
        (match n.kind with
        | Input -> is_source.(i) <- true
        | Logic -> fanins.(i) <- Array.of_list n.nfanins);
        fanouts.(i) <-
          Array.of_list
            (Option.value (Hashtbl.find_opt t.rev i) ~default:[]))
      topo;
    let seen = Array.make size false in
    let sinks =
      List.filter_map
        (fun (_, i) ->
          if seen.(i) then None
          else begin
            seen.(i) <- true;
            Some i
          end)
        (outputs t)
      |> Array.of_list
    in
    let g = { Sta.size; topo; fanins; fanouts; is_source; sinks } in
    t.graph_cache <- Some g;
    g

let timing ?required t =
  let g = timing_graph t in
  let delays = Array.make t.next 0.0 in
  Hashtbl.iter (fun i n -> delays.(i) <- n.ndelay) t.nodes;
  Sta.create ?required g delays

let arrival_times t =
  let at = Sta.arrival_array (timing t) in
  let tbl = Hashtbl.create (Hashtbl.length t.nodes) in
  Hashtbl.iter (fun i _ -> Hashtbl.replace tbl i at.(i)) t.nodes;
  tbl

let critical_delay t = Sta.critical_delay (timing t)

let required_times t required =
  let rt = Sta.required_array (timing ~required t) in
  let tbl = Hashtbl.create (Hashtbl.length t.nodes) in
  Hashtbl.iter (fun i _ -> Hashtbl.replace tbl i rt.(i)) t.nodes;
  tbl

let slacks t ?required () =
  let s = timing ?required t in
  let at = Sta.arrival_array s and rt = Sta.required_array s in
  let sl = Hashtbl.create (Hashtbl.length t.nodes) in
  Hashtbl.iter
    (fun i _ ->
      if rt.(i) < infinity then Hashtbl.replace sl i (rt.(i) -. at.(i)))
    t.nodes;
  sl

let replace_func t i f fanins =
  let n = get t i in
  (match n.kind with
  | Input -> invalid_arg "Network.replace_func: input node"
  | Logic -> ());
  List.iter (fun j -> ignore (get t j)) fanins;
  check_func_arity f fanins;
  let old_f = n.nfunc and old_fanins = n.nfanins in
  (* A cycle needs a new edge: when every new fanin was already a fanin
     (the common optimizer-inner-loop case — reimplement a node over the
     same support), the edge set cannot grow and the O(n) topological
     cycle check is skipped entirely. *)
  let adds_edge =
    List.exists (fun j -> not (List.mem j old_fanins)) fanins
  in
  n.nfunc <- f;
  n.nfanins <- fanins;
  if adds_edge then begin
    rev_remove t old_fanins i;
    rev_add t fanins i;
    invalidate t;
    try ignore (topo_order t)
    with Cycle _ ->
      n.nfunc <- old_f;
      n.nfanins <- old_fanins;
      rev_remove t fanins i;
      rev_add t old_fanins i;
      invalidate t;
      invalid_arg "Network.replace_func: change would create a cycle"
  end
  else if fanins != old_fanins && fanins <> old_fanins then begin
    (* Fanins dropped (strict subset / reorder): rewire the reverse index
       and drop structural caches, but no cycle is possible. *)
    rev_remove t old_fanins i;
    rev_add t fanins i;
    invalidate t
  end

let sweep t =
  let reachable = Hashtbl.create (Hashtbl.length t.nodes) in
  let rec mark i =
    if not (Hashtbl.mem reachable i) then begin
      Hashtbl.add reachable i ();
      List.iter mark (get t i).nfanins
    end
  in
  List.iter (fun (_, i) -> mark i) (outputs t);
  let removed = ref 0 in
  let victims =
    Hashtbl.fold
      (fun i n acc ->
        if n.kind = Logic && not (Hashtbl.mem reachable i) then i :: acc
        else acc)
      t.nodes []
  in
  List.iter
    (fun i ->
      rev_remove t (get t i).nfanins i;
      Hashtbl.remove t.rev i;
      Hashtbl.remove t.nodes i;
      incr removed)
    victims;
  if !removed > 0 then invalidate t;
  !removed

let copy t =
  let nodes = Hashtbl.create (Hashtbl.length t.nodes) in
  Hashtbl.iter (fun i n -> Hashtbl.add nodes i { n with nid = n.nid }) t.nodes;
  { nodes; ins = t.ins; outs = t.outs; next = t.next;
    rev = Hashtbl.copy t.rev; levels_cache = None; topo_cache = None;
    graph_cache = None }

let pp ppf t =
  Format.pp_open_vbox ppf 0;
  List.iter
    (fun i ->
      let n = get t i in
      match n.kind with
      | Input -> Format.fprintf ppf "input  %s (#%d)@," n.node_name i
      | Logic ->
        let pv ppf v =
          let j = List.nth n.nfanins v in
          Format.pp_print_string ppf (get t j).node_name
        in
        Format.fprintf ppf "node   %s (#%d) = %a@," n.node_name i
          (Expr.pp_with pv) n.nfunc)
    (topo_order t);
  List.iter
    (fun (nm, i) -> Format.fprintf ppf "output %s <- %s (#%d)@," nm (get t i).node_name i)
    (outputs t);
  Format.pp_close_box ppf ()
