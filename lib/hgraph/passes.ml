(* HGraph optimization passes, mirroring what dex2oat runs before code
   generation (paper section 5: constant propagation, copy propagation,
   common subexpression elimination, dead code elimination, branch
   simplification).

   All passes are semantics-preserving; the end-to-end differential tests
   in the VM compare program behaviour with passes on and off. Arithmetic
   here must agree with {!Calibro_vm}: both use native OCaml [int]
   semantics (the simulator models a 63-bit machine; see DESIGN.md). *)

open Calibro_dex.Dex_ir
open Hgraph

exception Pass_error of string
(* The typed failure for a method whose graph fails verification before
   the first pass or after any pass — per-method damage, so a long-lived
   caller (the calibrod worker) can fail the one request instead of dying
   on an untyped [Failure] or an array index out of bounds. *)

(* Evaluate a binary operation the same way the simulated machine does.
   Division by zero is never evaluated here (guarded by the caller). *)
let eval_binop op a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div -> a / b
  | Rem -> a mod b
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b

let eval_cmp c a b =
  match c with
  | Eq -> a = b | Ne -> a <> b | Lt -> a < b
  | Le -> a <= b | Gt -> a > b | Ge -> a >= b

(* ---- Dense per-register state ------------------------------------------

   Every pass below keeps its per-register facts in arrays indexed by vreg,
   sized [g_num_vregs]: [verify] bounds every vreg by it, and [optimize]
   verifies its input before the first pass. *)

(* A block's instructions rewritten in order by [f]: [f insn] returns
   [insn] itself to keep it, [dropped] to delete it, or a replacement. The
   unchanged tail of the list is shared, so a pass that changes nothing
   builds no list. *)
let dropped = HNull_check (-1)

let rec rewrite_insns f = function
  | [] -> []
  | insn :: rest as l ->
    let insn' = f insn in
    let rest' = rewrite_insns f rest in
    if insn' == dropped then rest'
    else if insn' == insn && rest' == rest then l
    else insn' :: rest'

(* ---- Constant folding (local) ---------------------------------------- *)

let const_fold (g : t) =
  let changed = ref false in
  (* [value.(r)] is the constant in [r] iff [stamp.(r)] is the index of
     the current block, so moving to the next block forgets every fact. *)
  let value = Array.make g.g_num_vregs 0 in
  let stamp = Array.make g.g_num_vregs (-1) in
  let bi = ref 0 in
  let known r = stamp.(r) = !bi in
  let set d v = value.(d) <- v; stamp.(d) <- !bi in
  let kill d = stamp.(d) <- -1 in
  let fold d v =
    changed := true;
    set d v;
    HConst (d, v)
  in
  let rewrite insn =
    match insn with
    | HConst (d, v) -> set d v; insn
    | HMove (d, a) -> if known a then fold d value.(a) else (kill d; insn)
    | HBinop (op, d, a, bb) ->
      let div = op = Div || op = Rem in
      if known a && known bb && not (div && value.(bb) = 0) then
        fold d (eval_binop op value.(a) value.(bb))
      else if known bb && not div then begin
        let vb = value.(bb) in
        kill d;
        changed := true;
        HBinop_lit (op, d, a, vb)
      end
      else (kill d; insn)
    | HBinop_lit (op, d, a, v) ->
      if known a && not ((op = Div || op = Rem) && v = 0) then
        fold d (eval_binop op value.(a) v)
      else (kill d; insn)
    | HDiv_zero_check r ->
      if known r && value.(r) <> 0 then begin
        changed := true;
        dropped (* provably non-zero: drop the check *)
      end
      else insn
    | other -> iter_def kill other; other
  in
  let goto t = changed := true; TGoto t in
  Array.iteri
    (fun i b ->
      bi := i;
      b.insns <- rewrite_insns rewrite b.insns;
      (* Fold the terminator when its operands are known. *)
      b.term <-
        (match b.term with
         | TIf (c, x, y, t, f) when known x && known y ->
           goto (if eval_cmp c value.(x) value.(y) then t else f)
         | TIfz (c, x, t, f) when known x ->
           goto (if eval_cmp c value.(x) 0 then t else f)
         | TSwitch (v, cases, default) when known v ->
           let vv = value.(v) in
           goto
             (if vv >= 0 && vv < List.length cases then List.nth cases vv
              else default)
         | term -> term))
    g.blocks;
  !changed

(* ---- Copy propagation (local) ----------------------------------------- *)

let copy_prop (g : t) =
  let changed = ref false in
  (* [src.(d)] is the register [d] is a copy of in the current block, or
     -1; [dests] holds the [ndests] registers that have one, so a kill and
     the reset at the end of a block touch only those. *)
  let src = Array.make g.g_num_vregs (-1) in
  let dests = Array.make g.g_num_vregs 0 in
  let ndests = ref 0 in
  let resolve r =
    let s = src.(r) in
    if s < 0 then r
    else begin
      changed := true;
      s
    end
  in
  let kill d =
    (* d's own copy, and any copy whose source was d, is no longer valid *)
    let n = ref 0 in
    for i = 0 to !ndests - 1 do
      let k = dests.(i) in
      if k = d || src.(k) = d then src.(k) <- -1
      else begin
        dests.(!n) <- k;
        incr n
      end
    done;
    ndests := !n
  in
  let any_copy = ref false in
  let note_copy r = if src.(r) >= 0 then any_copy := true in
  let subst insn =
    let s = resolve in
    match insn with
    | HConst _ | HConst_string _ | HNew_instance _ -> insn
    | HMove (d, a) -> HMove (d, s a)
    | HBinop (op, d, a, bb) -> HBinop (op, d, s a, s bb)
    | HBinop_lit (op, d, a, v) -> HBinop_lit (op, d, s a, v)
    | HInvoke (m, args, res) -> HInvoke (m, List.map s args, res)
    | HInvoke_runtime (f, args, res) ->
      HInvoke_runtime (f, List.map s args, res)
    | HNull_check a -> HNull_check (s a)
    | HBounds_check (i, a) -> HBounds_check (s i, s a)
    | HDiv_zero_check a -> HDiv_zero_check (s a)
    | HIget (d, o, off) -> HIget (d, s o, off)
    | HIput (v, o, off) -> HIput (s v, s o, off)
    | HAget (d, a, i) -> HAget (d, s a, s i)
    | HAput (v, a, i) -> HAput (s v, s a, s i)
    | HArray_len (d, a) -> HArray_len (d, s a)
  in
  let step insn =
    any_copy := false;
    iter_uses note_copy insn;
    let insn = if !any_copy then subst insn else insn in
    (match insn with
     | HMove (d, a) when d <> a ->
       kill d;
       src.(d) <- a;
       dests.(!ndests) <- d;
       incr ndests
     | _ -> iter_def kill insn);
    insn
  in
  Array.iter
    (fun b ->
      b.insns <- rewrite_insns step b.insns;
      any_copy := false;
      iter_term_uses note_copy b.term;
      if !any_copy then
        b.term <-
          (match b.term with
           | TIf (c, x, y, t, f) -> TIf (c, resolve x, resolve y, t, f)
           | TIfz (c, x, t, f) -> TIfz (c, resolve x, t, f)
           | TSwitch (v, cases, d) -> TSwitch (resolve v, cases, d)
           | TReturn (Some r) -> TReturn (Some (resolve r))
           | term -> term);
      for i = 0 to !ndests - 1 do
        src.(dests.(i)) <- -1
      done;
      ndests := 0)
    g.blocks;
  !changed

(* ---- Local common subexpression elimination ---------------------------- *)

(* An available expression is four ints in [exprs]: the operator code
   (twice the binop's index, plus one for the literal form), the register
   operand, the second register or the literal, and the register holding
   the value. *)
let expr_code op ~lit =
  let i =
    match op with
    | Add -> 0 | Sub -> 1 | Mul -> 2 | Div -> 3
    | Rem -> 4 | And -> 5 | Or -> 6 | Xor -> 7
  in
  (2 * i) + if lit then 1 else 0

let cse (g : t) =
  let changed = ref false in
  (* The current block's available expressions, [n] of them, compacted in
     place by [kill]; the vector grows by doubling and is reused across
     blocks. *)
  let exprs = ref (Array.make 32 0) in
  let n = ref 0 in
  (* The register holding [code a b], or -1. *)
  let find code a b =
    let e = !exprs in
    let holder = ref (-1) and i = ref 0 in
    while !holder < 0 && !i < !n do
      let o = 4 * !i in
      if e.(o) = code && e.(o + 1) = a && e.(o + 2) = b then
        holder := e.(o + 3);
      incr i
    done;
    !holder
  in
  let add code a b d =
    if 4 * (!n + 1) > Array.length !exprs then begin
      let bigger = Array.make (2 * Array.length !exprs) 0 in
      Array.blit !exprs 0 bigger 0 (4 * !n);
      exprs := bigger
    end;
    let e = !exprs and o = 4 * !n in
    e.(o) <- code;
    e.(o + 1) <- a;
    e.(o + 2) <- b;
    e.(o + 3) <- d;
    incr n
  in
  let kill d =
    (* drop expressions that read or produced d *)
    let e = !exprs in
    let kept = ref 0 in
    for i = 0 to !n - 1 do
      let o = 4 * i in
      let reads = e.(o + 1) = d || (e.(o) land 1 = 0 && e.(o + 2) = d) in
      if not (reads || e.(o + 3) = d) then begin
        let k = 4 * !kept in
        if k <> o then begin
          e.(k) <- e.(o);
          e.(k + 1) <- e.(o + 1);
          e.(k + 2) <- e.(o + 2);
          e.(k + 3) <- e.(o + 3)
        end;
        incr kept
      end
    done;
    n := !kept
  in
  let reuse insn code d a b =
    let prev = find code a b in
    if prev >= 0 && prev <> d then begin
      changed := true;
      kill d;
      HMove (d, prev)
    end
    else begin
      kill d;
      add code a b d;
      insn
    end
  in
  let step insn =
    match insn with
    | HBinop (op, d, a, bb) when insn_is_pure insn ->
      reuse insn (expr_code op ~lit:false) d a bb
    | HBinop_lit (op, d, a, v) when insn_is_pure insn ->
      reuse insn (expr_code op ~lit:true) d a v
    | insn -> iter_def kill insn; insn
  in
  Array.iter
    (fun b ->
      n := 0;
      b.insns <- rewrite_insns step b.insns)
    g.blocks;
  !changed

(* ---- Dead code elimination (global liveness) --------------------------- *)

(* Registers per liveness word: bit 62, the sign bit, stays clear. *)
let bits = 62

let dce (g : t) =
  let nb = Array.length g.blocks in
  if nb = 0 then false
  else begin
    (* Block [b]'s sets are the [nw] words from [b * nw] of [live_in],
       [gen] (registers the block, terminator included, reads before it
       writes them) and [kill] (registers it writes); live-in is gen plus
       live-out minus kill. The fixpoint and the sweep work in the one
       scratch row [cur]. *)
    let nw = (g.g_num_vregs + bits - 1) / bits in
    let live_in = Array.make (nb * nw) 0 in
    let gen = Array.make (nb * nw) 0 in
    let kill = Array.make (nb * nw) 0 in
    let cur = Array.make nw 0 in
    let add r =
      let w = r / bits in
      cur.(w) <- cur.(w) lor (1 lsl (r - (w * bits)))
    in
    let remove r =
      let w = r / bits in
      cur.(w) <- cur.(w) land lnot (1 lsl (r - (w * bits)))
    in
    let mem r =
      let w = r / bits in
      cur.(w) land (1 lsl (r - (w * bits))) <> 0
    in
    let union_live_in s =
      let o = s * nw in
      for w = 0 to nw - 1 do
        cur.(w) <- cur.(w) lor live_in.(o + w)
      done
    in
    (* [cur] := live-out of [blk] plus the registers its terminator reads *)
    let start blk =
      Array.fill cur 0 nw 0;
      iter_successors union_live_in blk.term;
      iter_term_uses add blk.term
    in
    let step insn =
      iter_def remove insn;
      iter_uses add insn
    in
    let kill_at = ref 0 in
    let note_kill r =
      let w = r / bits in
      let i = !kill_at + w in
      kill.(i) <- kill.(i) lor (1 lsl (r - (w * bits)))
    in
    let rec backwards = function
      | [] -> ()
      | insn :: rest ->
        backwards rest;
        iter_def note_kill insn;
        step insn
    in
    Array.iteri
      (fun b blk ->
        Array.fill cur 0 nw 0;
        iter_term_uses add blk.term;
        kill_at := b * nw;
        backwards blk.insns;
        Array.blit cur 0 gen (b * nw) nw)
      g.blocks;
    (* Fixpoint over live_in. *)
    let changed_flow = ref true in
    while !changed_flow do
      changed_flow := false;
      for b = nb - 1 downto 0 do
        Array.fill cur 0 nw 0;
        iter_successors union_live_in g.blocks.(b).term;
        let o = b * nw in
        for w = 0 to nw - 1 do
          let live = gen.(o + w) lor (cur.(w) land lnot kill.(o + w)) in
          if live_in.(o + w) <> live then begin
            live_in.(o + w) <- live;
            changed_flow := true
          end
        done
      done
    done;
    (* Sweep: drop pure instructions whose definition is dead. *)
    let changed = ref false in
    let def_live = ref false in
    let note_def d = if mem d then def_live := true in
    let rec sweep = function
      | [] -> []
      | insn :: rest as l ->
        let rest' = sweep rest in
        def_live := false;
        if insn_is_pure insn && (iter_def note_def insn; not !def_live) then begin
          changed := true;
          rest'
        end
        else begin
          step insn;
          if rest' == rest then l else insn :: rest'
        end
    in
    Array.iter
      (fun blk ->
        start blk;
        blk.insns <- sweep blk.insns)
      g.blocks;
    !changed
  end

(* ---- Branch simplification and unreachable-code removal ---------------- *)

let simplify_branches (g : t) =
  let changed = ref false in
  (* 1. if with identical arms -> goto *)
  Array.iter
    (fun b ->
      match b.term with
      | TIf (_, _, _, t, f) when t = f -> changed := true; b.term <- TGoto t
      | TIfz (_, _, t, f) when t = f -> changed := true; b.term <- TGoto t
      | _ -> ())
    g.blocks;
  (* 2. thread jumps through empty goto-only blocks *)
  let nb = Array.length g.blocks in
  let final = Array.make nb (-1) in
  let rec resolve b visiting =
    if final.(b) >= 0 then final.(b)
    else if List.mem b visiting then b (* goto cycle: leave as is *)
    else begin
      let r =
        match g.blocks.(b) with
        | { insns = []; term = TGoto t; _ } when t <> b ->
          resolve t (b :: visiting)
        | _ -> b
      in
      final.(b) <- r;
      r
    end
  in
  for b = 0 to nb - 1 do ignore (resolve b []) done;
  let threads = ref false in
  let note_thread s = if final.(s) <> s then threads := true in
  let thread s = final.(s) in
  Array.iter
    (fun b ->
      threads := false;
      iter_successors note_thread b.term;
      if !threads then begin
        changed := true;
        b.term <- map_successors thread b.term
      end)
    g.blocks;
  (* 3. drop unreachable blocks and renumber *)
  let seen = reachable g in
  let any_unreachable = Array.exists not seen && nb > 0 in
  if any_unreachable then begin
    changed := true;
    let remap = Array.make nb (-1) in
    let next = ref 0 in
    for b = 0 to nb - 1 do
      if seen.(b) then begin
        remap.(b) <- !next;
        incr next
      end
    done;
    let kept =
      Array.to_list g.blocks
      |> List.filter (fun b -> seen.(b.bid))
      |> List.map (fun b ->
             { b with bid = remap.(b.bid);
               term = map_successors (fun s -> remap.(s)) b.term })
    in
    g.blocks <- Array.of_list kept
  end;
  !changed

(* ---- Pass manager ------------------------------------------------------ *)

type pass = { pass_name : string; run : t -> bool }

let all_passes =
  [ { pass_name = "const_fold"; run = const_fold };
    { pass_name = "copy_prop"; run = copy_prop };
    { pass_name = "cse"; run = cse };
    { pass_name = "dce"; run = dce };
    { pass_name = "simplify_branches"; run = simplify_branches } ]

(* [verify g], failing as [Pass_error]; [after] names the pass that ran
   last, if any. *)
let verified ?after g =
  try verify g
  with Invalid msg ->
    let what =
      match after with
      | None -> "invalid input graph"
      | Some pass -> "pass " ^ pass.pass_name ^ " broke"
    in
    raise
      (Pass_error
         (Printf.sprintf "%s %s: %s" what (method_ref_to_string g.g_name) msg))

(* Run the pass pipeline to a fixpoint (bounded), verifying the input and
   the graph after each pass. Returns the number of iterations taken. *)
let optimize ?(max_rounds = 8) (g : t) =
  if g.g_is_native then 0
  else begin
    verified g;
    let rounds = ref 0 in
    let continue_ = ref true in
    while !continue_ && !rounds < max_rounds do
      incr rounds;
      let changed =
        List.fold_left
          (fun acc pass ->
            let c = pass.run g in
            verified ~after:pass g;
            acc || c)
          false all_passes
      in
      continue_ := changed
    done;
    !rounds
  end
