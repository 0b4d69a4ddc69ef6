(* Interned-signal compiled evaluation: the reference evaluator.

   Each expression / lvalue / statement is compiled once, at simulator
   construction, into a resolved form in which every signal reference
   is a dense integer id (assigned at elaboration,
   [Elaborate.f_signal_ids]) and every width, memory depth, and
   assignment context width is pre-resolved. Evaluation then reads and
   writes an id-indexed [value array]: no string hashing, no width
   lookups, no re-resolution on the hot path. Name-resolution errors
   surface at compile (simulator construction) time instead of
   mid-simulation. The width rules and the out-of-range access
   semantics (bug study section 3.2.1) every kernel follows are
   documented in compiled.mli.

   The change-detecting writes never mutate the environment or notify
   on a write that leaves the stored value unchanged, relying on the
   Bits phys-eq no-op returns for O(1) detection. *)

module Ast = Fpga_hdl.Ast
module Bits = Fpga_bits.Bits

exception Eval_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Eval_error s)) fmt

type value = Vec of Bits.t | Mem of Bits.t array

(* Resolve an index into a structure of [size] entries; [None] =
   dropped. A power-of-two size wraps (truncates the high index bits). *)
let resolve_index ~size idx =
  if idx >= 0 && idx < size then Some idx
  else if size > 0 && size land (size - 1) = 0 then Some (idx land (size - 1))
  else None

type env = value array

(* Compile-time design table: per-id static signal facts. *)
type tab = {
  t_names : string array;  (* id -> flat name *)
  t_ids : (string, int) Hashtbl.t;
  t_widths : int array;  (* vec width, or word width for memories *)
  t_depths : int option array;  (* [Some n] for an n-word memory *)
}

let of_flat (flat : Elaborate.flat) : tab =
  let n = Array.length flat.Elaborate.f_signal_order in
  let widths = Array.make n 0 in
  let depths = Array.make n None in
  Array.iteri
    (fun i name ->
      let s = Hashtbl.find flat.Elaborate.f_signals name in
      widths.(i) <- s.Elaborate.fs_width;
      depths.(i) <- s.Elaborate.fs_depth)
    flat.Elaborate.f_signal_order;
  {
    t_names = flat.Elaborate.f_signal_order;
    t_ids = flat.Elaborate.f_signal_ids;
    t_widths = widths;
    t_depths = depths;
  }

let name tab i = tab.t_names.(i)
let width tab i = tab.t_widths.(i)
let depth tab i = tab.t_depths.(i)
let n_signals tab = Array.length tab.t_names

let id tab n =
  match Hashtbl.find_opt tab.t_ids n with
  | Some i -> i
  | None -> err "unbound signal %s" n

let fresh_env (flat : Elaborate.flat) : env =
  Array.map
    (fun n ->
      let s = Hashtbl.find flat.Elaborate.f_signals n in
      match s.Elaborate.fs_depth with
      | Some d ->
          let init =
            Option.value s.Elaborate.fs_init
              ~default:(Bits.zero s.Elaborate.fs_width)
          in
          Mem (Array.make d init)
      | None ->
          Vec
            (match s.Elaborate.fs_init with
            | Some b -> Bits.resize b s.Elaborate.fs_width
            | None -> Bits.zero s.Elaborate.fs_width))
    flat.Elaborate.f_signal_order

(* ------------------------------------------------------------------ *)
(* Compiled forms                                                      *)
(* ------------------------------------------------------------------ *)

type cexpr =
  | Cconst of Bits.t
  | Cvar of int  (* a vector signal *)
  | Cbit of int * int * cexpr  (* vec id, vec width, index *)
  | Cword of int * int * int * cexpr  (* mem id, depth, word width, index *)
  | Crange of int * int * int  (* vec id, hi, lo *)
  | Cunop of Ast.unop * cexpr
  | Cbinop of Ast.binop * cexpr * cexpr
  | Ccond of cexpr * cexpr * cexpr
  | Cconcat of cexpr list
  | Crepeat of int * cexpr

type clvalue =
  | CLvar of int * int  (* id, width *)
  | CLbit of int * int * cexpr  (* vec id, vec width, index *)
  | CLword of int * int * int * cexpr  (* mem id, depth, word width, index *)
  | CLrange of int * int * int  (* id, hi, lo *)
  | CLconcat of (clvalue * int) list * int
      (* (part, width) MSB-first, total width *)

(* A write with indices already resolved against the current cycle's
   values, so it can be deferred (non-blocking) and applied later. *)
type cwrite =
  | CWfull of int * Bits.t
  | CWbit of int * int * bool
  | CWrange of int * int * int * Bits.t
  | CWmem of int * int * Bits.t
  | CWdropped  (* out-of-range access on a non-power-of-two size *)

type cstmt =
  | CSblocking of clvalue * cexpr * int  (* pre-resolved context width *)
  | CSnonblocking of clvalue * cexpr * int
  | CSif of cexpr * cstmt list * cstmt list
  | CScase of cexpr * (cexpr list * cstmt list) list * cstmt list option
  | CSdisplay of string * cexpr list
  | CSfinish

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

let rec compile_expr tab (e : Ast.expr) : cexpr =
  match e with
  | Ast.Const b -> Cconst b
  | Ast.Ident n -> (
      let i = id tab n in
      match tab.t_depths.(i) with
      | Some _ -> err "memory %s used without an index" n
      | None -> Cvar i)
  | Ast.Index (n, ix) -> (
      let i = id tab n in
      let cix = compile_expr tab ix in
      match tab.t_depths.(i) with
      | Some depth -> Cword (i, depth, tab.t_widths.(i), cix)
      | None -> Cbit (i, tab.t_widths.(i), cix))
  | Ast.Range (n, hi, lo) -> (
      let i = id tab n in
      match tab.t_depths.(i) with
      | Some _ -> err "memory %s used without an index" n
      | None ->
          if hi >= tab.t_widths.(i) then
            err "part select %s[%d:%d] exceeds width %d" n hi lo
              tab.t_widths.(i)
          else Crange (i, hi, lo))
  | Ast.Unop (op, a) -> Cunop (op, compile_expr tab a)
  | Ast.Binop (op, a, b) ->
      Cbinop (op, compile_expr tab a, compile_expr tab b)
  | Ast.Cond (c, t, f) ->
      Ccond (compile_expr tab c, compile_expr tab t, compile_expr tab f)
  | Ast.Concat es -> Cconcat (List.map (compile_expr tab) es)
  | Ast.Repeat (n, a) -> Crepeat (n, compile_expr tab a)

let clvalue_width = function
  | CLvar (_, w) -> w
  | CLbit _ -> 1
  | CLword (_, _, ww, _) -> ww
  | CLrange (_, hi, lo) -> hi - lo + 1
  | CLconcat (_, total) -> total

let rec compile_lvalue tab (l : Ast.lvalue) : clvalue =
  match l with
  | Ast.Lident n -> (
      let i = id tab n in
      match tab.t_depths.(i) with
      | Some _ -> err "cannot assign whole memory %s" n
      | None -> CLvar (i, tab.t_widths.(i)))
  | Ast.Lindex (n, ix) -> (
      let i = id tab n in
      let cix = compile_expr tab ix in
      match tab.t_depths.(i) with
      | Some depth -> CLword (i, depth, tab.t_widths.(i), cix)
      | None -> CLbit (i, tab.t_widths.(i), cix))
  | Ast.Lrange (n, hi, lo) ->
      let i = id tab n in
      if hi >= tab.t_widths.(i) then
        err "part select write %s[%d:%d] exceeds width %d" n hi lo
          tab.t_widths.(i)
      else CLrange (i, hi, lo)
  | Ast.Lconcat ls ->
      let parts =
        List.map
          (fun l ->
            let c = compile_lvalue tab l in
            (c, clvalue_width c))
          ls
      in
      let total = List.fold_left (fun acc (_, w) -> acc + w) 0 parts in
      CLconcat (parts, total)

let rec compile_stmt tab (s : Ast.stmt) : cstmt =
  match s with
  | Ast.Blocking (l, e) ->
      let cl = compile_lvalue tab l in
      (* the target width is static, so the Verilog context width of the
         right-hand side is resolved here, once *)
      CSblocking (cl, compile_expr tab e, clvalue_width cl)
  | Ast.Nonblocking (l, e) ->
      let cl = compile_lvalue tab l in
      CSnonblocking (cl, compile_expr tab e, clvalue_width cl)
  | Ast.If (c, t, f) ->
      CSif
        ( compile_expr tab c,
          List.map (compile_stmt tab) t,
          List.map (compile_stmt tab) f )
  | Ast.Case (e, items, default) ->
      CScase
        ( compile_expr tab e,
          List.map
            (fun it ->
              ( List.map (compile_expr tab) it.Ast.match_exprs,
                List.map (compile_stmt tab) it.Ast.body ))
            items,
          Option.map (List.map (compile_stmt tab)) default )
  | Ast.Display (fmt, args) ->
      CSdisplay (fmt, List.map (compile_expr tab) args)
  | Ast.Finish -> CSfinish

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)
(* ------------------------------------------------------------------ *)

(* Compilation guarantees ids point at the right kind of value, so the
   kind checks compile away to an impossible-case assert. *)
let vec (env : env) i =
  match env.(i) with Vec b -> b | Mem _ -> assert false

let mem (env : env) i =
  match env.(i) with Mem a -> a | Vec _ -> assert false

let bool_bits = Bits.of_bool

(* [ctx] is the Verilog context width: in an assignment the target's
   width flows into arithmetic and bitwise operands, so a carry computed
   into a wider target is not lost ({co, s} <= a + b). Self-determined
   contexts pass [ctx = 0]. *)
let rec eval_ctx (env : env) ~ctx (e : cexpr) : Bits.t =
  let widen v = if Bits.width v < ctx then Bits.resize v ctx else v in
  match e with
  | Cconst b -> widen b
  | Cvar i -> widen (vec env i)
  | Cbit (i, w, ix) ->
      let idx = Bits.to_int_trunc (eval_ctx env ~ctx:0 ix) in
      widen
        (match resolve_index ~size:w idx with
        | Some k -> bool_bits (Bits.bit (vec env i) k)
        | None -> Bits.zero 1)
  | Cword (i, depth, ww, ix) ->
      let idx = Bits.to_int_trunc (eval_ctx env ~ctx:0 ix) in
      widen
        (match resolve_index ~size:depth idx with
        | Some k -> (mem env i).(k)
        | None -> Bits.zero ww)
  | Crange (i, hi, lo) -> widen (Bits.slice (vec env i) ~hi ~lo)
  | Cunop (op, a) -> eval_unop env ~ctx op a
  | Cbinop (op, a, b) -> eval_binop env ~ctx op a b
  | Ccond (c, t, f) ->
      let c = Bits.reduce_or (eval_ctx env ~ctx:0 c) in
      let tv = eval_ctx env ~ctx t and fv = eval_ctx env ~ctx f in
      let w = max (Bits.width tv) (Bits.width fv) in
      if c then Bits.resize tv w else Bits.resize fv w
  | Cconcat es -> widen (Bits.concat (List.map (eval_ctx env ~ctx:0) es))
  | Crepeat (n, a) -> widen (Bits.repeat n (eval_ctx env ~ctx:0 a))

and eval_unop env ~ctx op a =
  match op with
  | Ast.Bnot -> Bits.lognot (eval_ctx env ~ctx a)
  | Ast.Neg -> Bits.neg (eval_ctx env ~ctx a)
  | Ast.Lnot -> bool_bits (Bits.is_zero (eval_ctx env ~ctx:0 a))
  | Ast.Rand -> bool_bits (Bits.reduce_and (eval_ctx env ~ctx:0 a))
  | Ast.Ror -> bool_bits (Bits.reduce_or (eval_ctx env ~ctx:0 a))
  | Ast.Rxor -> bool_bits (Bits.reduce_xor (eval_ctx env ~ctx:0 a))

and eval_binop env ~ctx op a b =
  match op with
  | Ast.Land ->
      bool_bits
        (Bits.reduce_or (eval_ctx env ~ctx:0 a)
        && Bits.reduce_or (eval_ctx env ~ctx:0 b))
  | Ast.Lor ->
      bool_bits
        (Bits.reduce_or (eval_ctx env ~ctx:0 a)
        || Bits.reduce_or (eval_ctx env ~ctx:0 b))
  | Ast.Shl | Ast.Shr | Ast.Ashr -> (
      let va = eval_ctx env ~ctx a in
      let amount =
        min (Bits.to_int_trunc (eval_ctx env ~ctx:0 b)) (Bits.width va)
      in
      match op with
      | Ast.Shl -> Bits.shift_left va amount
      | Ast.Shr -> Bits.shift_right va amount
      | _ -> Bits.arith_shift_right va amount)
  | Ast.Eq | Ast.Neq | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
      let va = eval_ctx env ~ctx:0 a and vb = eval_ctx env ~ctx:0 b in
      let w = max (Bits.width va) (Bits.width vb) in
      let va = Bits.resize va w and vb = Bits.resize vb w in
      bool_bits
        (match op with
        | Ast.Eq -> Bits.equal va vb
        | Ast.Neq -> not (Bits.equal va vb)
        | Ast.Lt -> Bits.lt va vb
        | Ast.Le -> Bits.le va vb
        | Ast.Gt -> Bits.gt va vb
        | _ -> Bits.ge va vb)
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod | Ast.Band | Ast.Bor
  | Ast.Bxor -> (
      let va = eval_ctx env ~ctx a and vb = eval_ctx env ~ctx b in
      let w = max (Bits.width va) (Bits.width vb) in
      let va = Bits.resize va w and vb = Bits.resize vb w in
      match op with
      | Ast.Add -> Bits.add va vb
      | Ast.Sub -> Bits.sub va vb
      | Ast.Mul -> Bits.mul va vb
      | Ast.Div -> Bits.div va vb
      | Ast.Mod -> Bits.rem va vb
      | Ast.Band -> Bits.logand va vb
      | Ast.Bor -> Bits.logor va vb
      | _ -> Bits.logxor va vb)

let eval env e = eval_ctx env ~ctx:0 e

(* ------------------------------------------------------------------ *)
(* Writes                                                              *)
(* ------------------------------------------------------------------ *)

(* The write list is built by prepending onto an accumulator and
   reversed once — linear even for deeply nested concatenated lvalues
   (the seed's string-keyed resolver appended per element, quadratic). *)
let rec resolve_into env acc (l : clvalue) (value : Bits.t) =
  match l with
  | CLvar (i, w) -> CWfull (i, Bits.resize value w) :: acc
  | CLbit (i, w, ix) -> (
      let idx = Bits.to_int_trunc (eval env ix) in
      match resolve_index ~size:w idx with
      | Some k -> CWbit (i, k, Bits.bit (Bits.resize value 1) 0) :: acc
      | None -> CWdropped :: acc)
  | CLword (i, depth, ww, ix) -> (
      let idx = Bits.to_int_trunc (eval env ix) in
      match resolve_index ~size:depth idx with
      | Some k -> CWmem (i, k, Bits.resize value ww) :: acc
      | None -> CWdropped :: acc)
  | CLrange (i, hi, lo) ->
      CWrange (i, hi, lo, Bits.resize value (hi - lo + 1)) :: acc
  | CLconcat (parts, total) ->
      (* MSB-first: split [value] into per-target chunks *)
      let value = Bits.resize value total in
      let _, acc =
        List.fold_left
          (fun (hi, acc) (lv, w) ->
            let chunk = Bits.slice value ~hi ~lo:(hi - w + 1) in
            (hi - w, resolve_into env acc lv chunk))
          (total - 1, acc) parts
      in
      acc

let resolve_write env (l : clvalue) (value : Bits.t) : cwrite list =
  List.rev (resolve_into env [] l value)

(* Change-detecting write: apply only when the stored value changes and
   report the signal id through [notify] when it does. The Bits
   functional updates return their argument physically unchanged on a
   no-op, so the unchanged case is detected in O(1) without allocation. *)
let apply_write_notify (env : env) ~notify = function
  | CWfull (i, v) ->
      let old = vec env i in
      if not (Bits.equal old v) then (
        env.(i) <- Vec v;
        notify i)
  | CWbit (i, k, b) ->
      let old = vec env i in
      let v = Bits.set_bit old k b in
      if v != old then (
        env.(i) <- Vec v;
        notify i)
  | CWrange (i, hi, lo, v) ->
      let old = vec env i in
      let v = Bits.set_slice old ~hi ~lo v in
      if v != old then (
        env.(i) <- Vec v;
        notify i)
  | CWmem (i, k, v) ->
      let a = mem env i in
      if not (Bits.equal a.(k) v) then (
        a.(k) <- v;
        notify i)
  | CWdropped -> ()

let write_notify env ~notify l value =
  List.iter (apply_write_notify env ~notify) (resolve_write env l value)
