type t = {
  c : Compiled.t;
  eval_fn : (int array -> int) array;
}

let vectors_per_word = 63

(* SWAR popcount over the 63 bits of a native int.  The 64-bit constants
   whose top bit would not fit a 63-bit literal are assembled by shifting;
   [lsr] is logical, so every step works unchanged on the (sign-carrying)
   bit 62.  The final byte-fold sum is at most 63 < 2^7, so the bits lost
   above bit 62 never carry information. *)
let m1 = (0x55555555 lsl 32) lor 0x55555555
let m2 = 0x3333333333333333
let m4 = 0x0F0F0F0F0F0F0F0F
let h01 = 0x0101010101010101

let popcount x =
  let x = x - ((x lsr 1) land m1) in
  let x = (x land m2) + ((x lsr 2) land m2) in
  let x = (x + (x lsr 4)) land m4 in
  (x * h01) lsr 56

let lane_mask n = if n >= vectors_per_word then -1 else (1 lsl n) - 1

(* Bit [k] of vectors 63b .. 63b + 62.  For k >= 6 it holds its value for
   2^k >= 64 vectors at a time, so it changes at most once in the block:
   [r], the block's start within bit k's period of 2^(k+1) vectors, gives
   the ones as one lane range, a prefix when bit k starts at 1 and a
   suffix when it starts at 0. *)
let exhaustive_word k blk =
  let v0 = blk * vectors_per_word in
  if k < 6 then begin
    let w = ref 0 in
    for l = 0 to vectors_per_word - 1 do
      if (v0 + l) land (1 lsl k) <> 0 then w := !w lor (1 lsl l)
    done;
    !w
  end
  else begin
    let half = 1 lsl k in
    let r = v0 land ((2 * half) - 1) in
    if r >= half then lane_mask ((2 * half) - r)
    else lnot (lane_mask (half - r))
  end

(* Word-parallel analogue of [Compiled.compile_expr]: fanin positions are
   resolved to plane indices at compile time and the closure evaluates all
   63 lanes with one boolean-algebra word op per connective. *)
let rec compile_expr fanin_idx = function
  | Expr.Const true -> fun _ -> -1
  | Expr.Const false -> fun _ -> 0
  | Expr.Var v ->
    let j = fanin_idx.(v) in
    fun plane -> Array.unsafe_get plane j
  | Expr.Not e ->
    let f = compile_expr fanin_idx e in
    fun plane -> lnot (f plane)
  | Expr.And es ->
    let fs = Array.of_list (List.map (compile_expr fanin_idx) es) in
    fun plane ->
      let acc = ref (-1) in
      for i = 0 to Array.length fs - 1 do
        acc := !acc land (Array.unsafe_get fs i) plane
      done;
      !acc
  | Expr.Or es ->
    let fs = Array.of_list (List.map (compile_expr fanin_idx) es) in
    fun plane ->
      let acc = ref 0 in
      for i = 0 to Array.length fs - 1 do
        acc := !acc lor (Array.unsafe_get fs i) plane
      done;
      !acc
  | Expr.Xor (a, b) ->
    let fa = compile_expr fanin_idx a and fb = compile_expr fanin_idx b in
    fun plane -> fa plane lxor fb plane

let compile_word = compile_expr

let of_compiled c =
  let eval_fn =
    Array.init (Compiled.size c) (fun x ->
        if Compiled.is_input c x then fun _ -> 0
        else compile_expr (Compiled.fanins c x) (Compiled.local_func c x))
  in
  { c; eval_fn }

let of_network net = of_compiled (Compiled.of_network net)

let compiled b = b.c
let size b = Compiled.size b.c
let num_inputs b = Compiled.num_inputs b.c

let eval_into b in_words plane =
  let c = b.c in
  let ins = Compiled.inputs c in
  if Array.length in_words <> Array.length ins then
    invalid_arg "Bitsim.eval_into: input arity mismatch";
  if Array.length plane <> Compiled.size c then
    invalid_arg "Bitsim.eval_into: value plane size mismatch";
  Array.iteri (fun k x -> plane.(x) <- in_words.(k)) ins;
  let topo = Compiled.topo c in
  let eval_fn = b.eval_fn in
  for p = 0 to Array.length topo - 1 do
    let x = Array.unsafe_get topo p in
    if not (Compiled.is_input c x) then
      Array.unsafe_set plane x ((Array.unsafe_get eval_fn x) plane)
  done

let eval b in_words =
  let plane = Array.make (size b) 0 in
  eval_into b in_words plane;
  plane

let count_transitions b stream =
  let vecs = Array.of_list stream in
  (match vecs with
  | [||] -> invalid_arg "Bitsim.count_transitions: empty stimulus"
  | _ ->
    if Array.length vecs.(0) <> num_inputs b then
      invalid_arg "Bitsim.count_transitions: input arity mismatch");
  let n = size b in
  let nins = num_inputs b in
  let nvecs = Array.length vecs in
  let counts = Array.make n 0 in
  let words = Array.make nins 0 in
  let plane = Array.make n 0 in
  (* Consecutive blocks overlap by one lane (the new lane 0 repeats the
     previous block's last cycle), so every cycle-to-cycle pair is an
     adjacent-lane pair inside a single word and no cross-word boundary
     term is needed. *)
  let s = ref 0 in
  while !s < nvecs - 1 do
    let len = min vectors_per_word (nvecs - !s) in
    for k = 0 to nins - 1 do
      let w = ref 0 in
      for l = 0 to len - 1 do
        if (Array.unsafe_get vecs (!s + l)).(k) then w := !w lor (1 lsl l)
      done;
      words.(k) <- !w
    done;
    eval_into b words plane;
    let pairs = lane_mask (len - 1) in
    for x = 0 to n - 1 do
      let w = Array.unsafe_get plane x in
      Array.unsafe_set counts x
        (Array.unsafe_get counts x + popcount ((w lxor (w lsr 1)) land pairs))
    done;
    s := !s + len - 1
  done;
  counts
