(** Interned-signal compiled evaluation: the reference evaluator.

    Compiles AST expressions/lvalues/statements once, at simulator
    construction, into a resolved form in which every signal reference
    is a dense integer id ({!Elaborate.flat}[.f_signal_ids]) and every
    width, memory depth, and assignment context width is pre-resolved.
    Evaluation then runs over an id-indexed [value array] — no string
    hashing or width lookups on the hot path. The brute-force kernel
    interprets this form directly; the production kernel ({!Lowered})
    is held bit-identical to it.

    Width rules follow the Verilog synthesizable subset: binary operands
    are zero-extended to the wider of the two widths, comparisons and
    logical operators yield one bit, shifts keep the left operand's
    width, and an assignment's target width flows into arithmetic
    operands (the context width), so the carry of [{c, s} <= a + b] is
    not lost.

    Out-of-range accesses implement the semantics documented in the bug
    study (section 3.2.1): power-of-two structures wrap (the high index
    bits are truncated), other sizes drop the access (writes ignored,
    reads return zero).

    Name-resolution errors (unbound names, memory misuse, out-of-width
    part selects) are raised as {!Eval_error} at compile time, never
    mid-simulation. *)

exception Eval_error of string

type value =
  | Vec of Fpga_bits.Bits.t  (** a register or net *)
  | Mem of Fpga_bits.Bits.t array  (** a memory *)

val resolve_index : size:int -> int -> int option
(** [resolve_index ~size idx] applies the overflow semantics above:
    in-range indices are themselves, out-of-range indices wrap when
    [size] is a power of two and are dropped ([None]) otherwise. *)

type env = value array
(** Signal values indexed by dense signal id. *)

(** Per-id static signal facts, derived from the flat design. *)
type tab

val of_flat : Elaborate.flat -> tab
val name : tab -> int -> string
val id : tab -> string -> int
(** Raises {!Eval_error} ("unbound signal ...") when absent. *)

val width : tab -> int -> int
(** Vector width, or word width for a memory. *)

val depth : tab -> int -> int option
(** [Some n] for an [n]-word memory, [None] for a vector. *)

val n_signals : tab -> int

val fresh_env : Elaborate.flat -> env
(** Initial environment: declared initial values, zero otherwise. *)

(** {1 Compiled forms} *)

type cexpr =
  | Cconst of Fpga_bits.Bits.t
  | Cvar of int
  | Cbit of int * int * cexpr  (** vec id, vec width, index *)
  | Cword of int * int * int * cexpr  (** mem id, depth, word width, index *)
  | Crange of int * int * int  (** vec id, hi, lo *)
  | Cunop of Fpga_hdl.Ast.unop * cexpr
  | Cbinop of Fpga_hdl.Ast.binop * cexpr * cexpr
  | Ccond of cexpr * cexpr * cexpr
  | Cconcat of cexpr list
  | Crepeat of int * cexpr

type clvalue =
  | CLvar of int * int  (** id, width *)
  | CLbit of int * int * cexpr
  | CLword of int * int * int * cexpr
  | CLrange of int * int * int
  | CLconcat of (clvalue * int) list * int
      (** (part, width) MSB-first, total width *)

type cwrite =
  | CWfull of int * Fpga_bits.Bits.t
  | CWbit of int * int * bool
  | CWrange of int * int * int * Fpga_bits.Bits.t
  | CWmem of int * int * Fpga_bits.Bits.t
  | CWdropped

type cstmt =
  | CSblocking of clvalue * cexpr * int  (** pre-resolved context width *)
  | CSnonblocking of clvalue * cexpr * int
  | CSif of cexpr * cstmt list * cstmt list
  | CScase of cexpr * (cexpr list * cstmt list) list * cstmt list option
  | CSdisplay of string * cexpr list
  | CSfinish

(** {1 Compilation} — raises {!Eval_error} on unbound names,
    memory misuse, or out-of-width part selects. *)

val compile_expr : tab -> Fpga_hdl.Ast.expr -> cexpr
val compile_lvalue : tab -> Fpga_hdl.Ast.lvalue -> clvalue
val compile_stmt : tab -> Fpga_hdl.Ast.stmt -> cstmt
val clvalue_width : clvalue -> int

(** {1 Evaluation} *)

val vec : env -> int -> Fpga_bits.Bits.t
(** The vector at id [i]; ids are guaranteed well-kinded by compilation. *)

val mem : env -> int -> Fpga_bits.Bits.t array
(** The memory word array at id [i]. *)

val eval_ctx : env -> ctx:int -> cexpr -> Fpga_bits.Bits.t
(** [eval_ctx env ~ctx e] evaluates [e] with a Verilog context width of
    [ctx] bits flowing into arithmetic and bitwise operands. *)

val eval : env -> cexpr -> Fpga_bits.Bits.t
(** Self-determined context ([ctx = 0]). *)

val resolve_write : env -> clvalue -> Fpga_bits.Bits.t -> cwrite list
(** Resolve indices against current values; linear in the number of
    concatenated targets. *)

val apply_write_notify : env -> notify:(int -> unit) -> cwrite -> unit
(** Apply a resolved write only if it changes the stored value, calling
    [notify id] when it does. *)

val write_notify : env -> notify:(int -> unit) -> clvalue -> Fpga_bits.Bits.t -> unit
