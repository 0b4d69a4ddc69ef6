(* Recursive-descent parser for the Verilog subset described in Ast.
   Ranges, array bounds and repeat counts must be constant expressions
   over literals, parameters, and localparams; they are folded at parse
   time, so widths in the AST are plain integers. *)

module Bits = Fpga_bits.Bits
open Lexer

exception Parse_error of string * int

type state = {
  toks : lexed array;
  mutable pos : int;
  (* constant environments for range folding *)
  mutable params : (string * int) list;
  mutable localparams : (string * Bits.t) list;
}

let error st msg =
  let line = st.toks.(min st.pos (Array.length st.toks - 1)).line in
  raise (Parse_error (msg, line))

let peek st = st.toks.(st.pos).tok
let advance st = st.pos <- st.pos + 1

let expect_punct st p =
  match peek st with
  | Tpunct q when q = p -> advance st
  | t -> error st (Printf.sprintf "expected %S, got %s" p (token_to_string t))

let expect_keyword st k =
  match peek st with
  | Tkeyword q when q = k -> advance st
  | t -> error st (Printf.sprintf "expected %S, got %s" k (token_to_string t))

let accept_punct st p =
  match peek st with
  | Tpunct q when q = p ->
      advance st;
      true
  | _ -> false

let accept_keyword st k =
  match peek st with
  | Tkeyword q when q = k ->
      advance st;
      true
  | _ -> false

let expect_ident st =
  match peek st with
  | Tident name ->
      advance st;
      name
  | t -> error st (Printf.sprintf "expected identifier, got %s" (token_to_string t))

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

(* Binary operator precedence, higher binds tighter. *)
let binop_of_punct = function
  | "||" -> Some (Ast.Lor, 1)
  | "&&" -> Some (Ast.Land, 2)
  | "|" -> Some (Ast.Bor, 3)
  | "^" -> Some (Ast.Bxor, 4)
  | "&" -> Some (Ast.Band, 5)
  | "==" | "===" -> Some (Ast.Eq, 6)
  | "!=" | "!==" -> Some (Ast.Neq, 6)
  | "<" -> Some (Ast.Lt, 7)
  | "<=" -> Some (Ast.Le, 7)
  | ">" -> Some (Ast.Gt, 7)
  | ">=" -> Some (Ast.Ge, 7)
  | "<<" -> Some (Ast.Shl, 8)
  | ">>" -> Some (Ast.Shr, 8)
  | ">>>" -> Some (Ast.Ashr, 8)
  | "+" -> Some (Ast.Add, 9)
  | "-" -> Some (Ast.Sub, 9)
  | "*" -> Some (Ast.Mul, 10)
  | "/" -> Some (Ast.Div, 10)
  | "%" -> Some (Ast.Mod, 10)
  | _ -> None

(* [no_le] suppresses treating "<=" as less-equal at the top level, which is
   how we disambiguate nonblocking assignment from comparison. *)
let rec parse_expr ?(no_le = false) st = parse_cond ~no_le st

and parse_cond ~no_le st =
  let c = parse_binary ~no_le st 1 in
  if accept_punct st "?" then (
    let t = parse_expr st in
    expect_punct st ":";
    let f = parse_cond ~no_le:false st in
    Ast.Cond (c, t, f))
  else c

and parse_binary ~no_le st min_prec =
  let lhs = ref (parse_unary st) in
  let continue_ = ref true in
  while !continue_ do
    match peek st with
    | Tpunct p when not (no_le && p = "<=" && min_prec = 1) -> (
        match binop_of_punct p with
        | Some (op, prec) when prec >= min_prec ->
            advance st;
            let rhs = parse_binary ~no_le:false st (prec + 1) in
            lhs := Ast.Binop (op, !lhs, rhs)
        | _ -> continue_ := false)
    | _ -> continue_ := false
  done;
  !lhs

and parse_unary st =
  match peek st with
  | Tpunct "~" ->
      advance st;
      Ast.Unop (Ast.Bnot, parse_unary st)
  | Tpunct "!" ->
      advance st;
      Ast.Unop (Ast.Lnot, parse_unary st)
  | Tpunct "-" ->
      advance st;
      Ast.Unop (Ast.Neg, parse_unary st)
  | Tpunct "&" ->
      advance st;
      Ast.Unop (Ast.Rand, parse_unary st)
  | Tpunct "|" ->
      advance st;
      Ast.Unop (Ast.Ror, parse_unary st)
  | Tpunct "^" ->
      advance st;
      Ast.Unop (Ast.Rxor, parse_unary st)
  | _ -> parse_primary st

and parse_primary st =
  match peek st with
  | Tnumber { width; value } ->
      advance st;
      let v =
        match width with None -> Bits.resize value 32 | Some w -> Bits.resize value w
      in
      Ast.Const v
  | Tident name -> (
      advance st;
      match peek st with
      | Tpunct "[" ->
          advance st;
          let first = parse_expr st in
          if accept_punct st ":" then (
            let second = parse_expr st in
            expect_punct st "]";
            let hi = const_int st first and lo = const_int st second in
            Ast.Range (name, hi, lo))
          else (
            expect_punct st "]";
            Ast.Index (name, first))
      | _ -> Ast.Ident name)
  | Tpunct "(" ->
      advance st;
      let e = parse_expr st in
      expect_punct st ")";
      e
  | Tpunct "{" -> (
      advance st;
      (* Either a concatenation {a, b, ...} or a repeat {n{expr}}. *)
      let first = parse_expr st in
      match peek st with
      | Tpunct "{" ->
          advance st;
          let inner = parse_expr st in
          expect_punct st "}";
          expect_punct st "}";
          let count = const_int st first in
          if count < 1 || count > 4096 then error st "bad repeat count";
          Ast.Repeat (count, inner)
      | _ ->
          let items = ref [ first ] in
          while accept_punct st "," do
            items := parse_expr st :: !items
          done;
          expect_punct st "}";
          Ast.Concat (List.rev !items))
  | t -> error st (Printf.sprintf "expected expression, got %s" (token_to_string t))

(* Constant folding over params and localparams. *)
and const_int st e =
  let rec go e =
    match e with
    | Ast.Const b -> Bits.to_int b
    | Ast.Ident n -> (
        match List.assoc_opt n st.params with
        | Some v -> v
        | None -> (
            match List.assoc_opt n st.localparams with
            | Some b -> Bits.to_int b
            | None -> error st (Printf.sprintf "not a constant: %s" n)))
    | Ast.Unop (Ast.Neg, a) -> -go a
    | Ast.Binop (op, a, b) -> (
        let a = go a and b = go b in
        match op with
        | Ast.Add -> a + b
        | Ast.Sub -> a - b
        | Ast.Mul -> a * b
        | Ast.Div -> if b = 0 then error st "division by zero in constant" else a / b
        | Ast.Mod -> if b = 0 then error st "modulo by zero in constant" else a mod b
        | Ast.Shl -> if b < 0 || b > 62 then error st "bad constant shift" else a lsl b
        | Ast.Shr -> if b < 0 || b > 62 then error st "bad constant shift" else a lsr b
        | _ -> error st "unsupported constant operator")
    | _ -> error st "expected a constant expression"
  in
  go e

(* ------------------------------------------------------------------ *)
(* Lvalues                                                             *)
(* ------------------------------------------------------------------ *)

let rec parse_lvalue st =
  match peek st with
  | Tident name -> (
      advance st;
      match peek st with
      | Tpunct "[" ->
          advance st;
          let first = parse_expr st in
          if accept_punct st ":" then (
            let second = parse_expr st in
            expect_punct st "]";
            Ast.Lrange (name, const_int st first, const_int st second))
          else (
            expect_punct st "]";
            Ast.Lindex (name, first))
      | _ -> Ast.Lident name)
  | Tpunct "{" ->
      advance st;
      let items = ref [ parse_lvalue st ] in
      while accept_punct st "," do
        items := parse_lvalue st :: !items
      done;
      expect_punct st "}";
      Ast.Lconcat (List.rev !items)
  | t -> error st (Printf.sprintf "expected lvalue, got %s" (token_to_string t))

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let rec parse_stmt st : Ast.stmt list =
  match peek st with
  | Tkeyword "begin" ->
      advance st;
      let stmts = ref [] in
      while not (accept_keyword st "end") do
        stmts := parse_stmt st :: !stmts
      done;
      List.concat (List.rev !stmts)
  | Tkeyword "if" ->
      advance st;
      expect_punct st "(";
      let c = parse_expr st in
      expect_punct st ")";
      let t = parse_stmt st in
      let f = if accept_keyword st "else" then parse_stmt st else [] in
      [ Ast.If (c, t, f) ]
  | Tkeyword "case" ->
      advance st;
      expect_punct st "(";
      let scrutinee = parse_expr st in
      expect_punct st ")";
      let items = ref [] in
      let default = ref None in
      let done_ = ref false in
      while not !done_ do
        match peek st with
        | Tkeyword "endcase" ->
            advance st;
            done_ := true
        | Tkeyword "default" ->
            advance st;
            ignore (accept_punct st ":");
            default := Some (parse_stmt st)
        | _ ->
            let exprs = ref [ parse_expr st ] in
            while accept_punct st "," do
              exprs := parse_expr st :: !exprs
            done;
            expect_punct st ":";
            let body = parse_stmt st in
            items :=
              { Ast.match_exprs = List.rev !exprs; body } :: !items
      done;
      [ Ast.Case (scrutinee, List.rev !items, !default) ]
  | Tsystem "display" ->
      advance st;
      expect_punct st "(";
      let fmt =
        match peek st with
        | Tstring s ->
            advance st;
            s
        | t ->
            error st
              (Printf.sprintf "expected format string, got %s"
                 (token_to_string t))
      in
      let args = ref [] in
      while accept_punct st "," do
        args := parse_expr st :: !args
      done;
      expect_punct st ")";
      expect_punct st ";";
      [ Ast.Display (fmt, List.rev !args) ]
  | Tsystem "finish" ->
      advance st;
      if accept_punct st "(" then expect_punct st ")";
      expect_punct st ";";
      [ Ast.Finish ]
  | Tpunct ";" ->
      advance st;
      []
  | _ ->
      let lv = parse_lvalue st in
      let nonblocking =
        if accept_punct st "<=" then true
        else if accept_punct st "=" then false
        else error st "expected '=' or '<='"
      in
      let e = parse_expr st in
      expect_punct st ";";
      if nonblocking then [ Ast.Nonblocking (lv, e) ]
      else [ Ast.Blocking (lv, e) ]

(* ------------------------------------------------------------------ *)
(* Module items                                                        *)
(* ------------------------------------------------------------------ *)

let parse_range_opt st =
  if accept_punct st "[" then (
    let hi = const_int st (parse_expr st) in
    expect_punct st ":";
    let lo = const_int st (parse_expr st) in
    expect_punct st "]";
    if lo <> 0 then error st "only [N:0] ranges are supported";
    if hi < 0 || hi > 4095 then error st "unsupported range width";
    hi + 1)
  else 1

let parse_port st : Ast.port * Ast.decl option =
  let dir =
    if accept_keyword st "input" then Ast.Input
    else if accept_keyword st "output" then Ast.Output
    else if accept_keyword st "inout" then Ast.Inout
    else error st "expected port direction"
  in
  let is_reg = accept_keyword st "reg" in
  ignore (accept_keyword st "wire");
  ignore (accept_keyword st "signed");
  let width = parse_range_opt st in
  let name = expect_ident st in
  let port = { Ast.port_name = name; dir; port_width = width } in
  let decl =
    if is_reg then
      Some { Ast.name; kind = Ast.Reg; width; depth = None; init = None }
    else None
  in
  (port, decl)

let parse_number_value st =
  match peek st with
  | Tnumber { width; value } ->
      advance st;
      let v =
        match width with None -> Bits.resize value 32 | Some w -> Bits.resize value w
      in
      v
  | _ ->
      (* allow constant expressions *)
      let e = parse_expr st in
      Bits.of_int ~width:32 (const_int st e)

type item =
  | Idecl of Ast.decl list
  | Iassign of (Ast.lvalue * Ast.expr) list
  | Ialways of Ast.always
  | Iinstance of Ast.instance
  | Inothing

let parse_decls st kind =
  let is_signed = accept_keyword st "signed" in
  ignore is_signed;
  let width = parse_range_opt st in
  let decls = ref [] in
  let parse_one () =
    let name = expect_ident st in
    let depth =
      if accept_punct st "[" then (
        let lo = const_int st (parse_expr st) in
        expect_punct st ":";
        let hi = const_int st (parse_expr st) in
        expect_punct st "]";
        let d = abs (hi - lo) + 1 in
        if d < 1 || d > 1 lsl 20 then error st "unsupported memory depth";
        (* accept both [0:N-1] and [N-1:0] memory declarations *)
        Some d)
      else None
    in
    let init =
      if accept_punct st "=" then Some (Bits.resize (parse_number_value st) width)
      else None
    in
    decls := { Ast.name; kind; width; depth; init } :: !decls
  in
  parse_one ();
  while accept_punct st "," do
    parse_one ()
  done;
  expect_punct st ";";
  Idecl (List.rev !decls)

let parse_instance st target =
  let params = ref [] in
  if accept_punct st "#" then (
    expect_punct st "(";
    let parse_binding () =
      expect_punct st ".";
      let formal = expect_ident st in
      expect_punct st "(";
      let v = const_int st (parse_expr st) in
      expect_punct st ")";
      params := (formal, v) :: !params
    in
    parse_binding ();
    while accept_punct st "," do
      parse_binding ()
    done;
    expect_punct st ")");
  let inst_name = expect_ident st in
  expect_punct st "(";
  let conns = ref [] in
  let parse_conn () =
    expect_punct st ".";
    let formal = expect_ident st in
    expect_punct st "(";
    let actual =
      match peek st with
      | Tpunct ")" -> Ast.Ident "_nc_"  (* unconnected port *)
      | _ -> parse_expr st
    in
    expect_punct st ")";
    conns := { Ast.formal; actual } :: !conns
  in
  if not (accept_punct st ")") then (
    parse_conn ();
    while accept_punct st "," do
      parse_conn ()
    done;
    expect_punct st ")");
  expect_punct st ";";
  Iinstance
    {
      Ast.inst_name;
      target;
      params = List.rev !params;
      conns = List.rev !conns;
    }

let parse_item st : item =
  match peek st with
  | Tkeyword "reg" ->
      advance st;
      parse_decls st Ast.Reg
  | Tkeyword "wire" ->
      advance st;
      parse_decls st Ast.Wire
  | Tkeyword "integer" ->
      advance st;
      (* model integer as a 32-bit reg *)
      let name = expect_ident st in
      expect_punct st ";";
      Idecl [ { Ast.name; kind = Ast.Reg; width = 32; depth = None; init = None } ]
  | Tkeyword "parameter" ->
      advance st;
      let name = expect_ident st in
      expect_punct st "=";
      let v = const_int st (parse_expr st) in
      expect_punct st ";";
      st.params <- (name, v) :: st.params;
      Inothing
  | Tkeyword "localparam" ->
      advance st;
      let parse_one () =
        let name = expect_ident st in
        expect_punct st "=";
        let v = parse_number_value st in
        st.localparams <- (name, v) :: st.localparams
      in
      parse_one ();
      while accept_punct st "," do
        parse_one ()
      done;
      expect_punct st ";";
      Inothing
  | Tkeyword "assign" ->
      advance st;
      let assigns = ref [] in
      let parse_one () =
        let lv = parse_lvalue st in
        expect_punct st "=";
        let e = parse_expr st in
        assigns := (lv, e) :: !assigns
      in
      parse_one ();
      while accept_punct st "," do
        parse_one ()
      done;
      expect_punct st ";";
      Iassign (List.rev !assigns)
  | Tkeyword "always" ->
      advance st;
      expect_punct st "@";
      expect_punct st "(";
      let sens =
        if accept_keyword st "posedge" then Ast.Posedge (expect_ident st)
        else if accept_keyword st "negedge" then Ast.Negedge (expect_ident st)
        else if accept_punct st "*" then Ast.Star
        else error st "expected posedge/negedge/*"
      in
      expect_punct st ")";
      let stmts = parse_stmt st in
      Ialways { Ast.sens; stmts }
  | Tident target ->
      advance st;
      parse_instance st target
  | t -> error st (Printf.sprintf "unexpected token %s" (token_to_string t))

let parse_module_def st : Ast.module_def =
  expect_keyword st "module";
  let mod_name = expect_ident st in
  st.params <- [];
  st.localparams <- [];
  (* optional parameter list: #(parameter N = 4, ...) *)
  if accept_punct st "#" then (
    expect_punct st "(";
    let parse_one () =
      ignore (accept_keyword st "parameter");
      let name = expect_ident st in
      expect_punct st "=";
      let v = const_int st (parse_expr st) in
      st.params <- (name, v) :: st.params
    in
    parse_one ();
    while accept_punct st "," do
      parse_one ()
    done;
    expect_punct st ")");
  let ports = ref [] and port_decls = ref [] in
  expect_punct st "(";
  if not (accept_punct st ")") then (
    let parse_one () =
      let p, d = parse_port st in
      ports := p :: !ports;
      match d with Some d -> port_decls := d :: !port_decls | None -> ()
    in
    parse_one ();
    while accept_punct st "," do
      parse_one ()
    done;
    expect_punct st ")");
  expect_punct st ";";
  (* items accumulate newest first and are reversed once at the end,
     keeping parsing linear in the number of module items *)
  let decls = ref !port_decls in
  let assigns = ref [] in
  let always_blocks = ref [] in
  let instances = ref [] in
  while not (accept_keyword st "endmodule") do
    match parse_item st with
    | Idecl ds -> decls := List.rev_append ds !decls
    | Iassign asgns -> assigns := List.rev_append asgns !assigns
    | Ialways a -> always_blocks := a :: !always_blocks
    | Iinstance i -> instances := i :: !instances
    | Inothing -> ()
  done;
  {
    Ast.mod_name;
    ports = List.rev !ports;
    params = List.rev st.params;
    localparams = List.rev st.localparams;
    decls = List.rev !decls;
    assigns = List.rev !assigns;
    always_blocks = List.rev !always_blocks;
    instances = List.rev !instances;
  }

let parse_design src : Ast.design =
  let toks = Array.of_list (Lexer.tokenize src) in
  let st = { toks; pos = 0; params = []; localparams = [] } in
  let modules = ref [] in
  while peek st <> Teof do
    modules := parse_module_def st :: !modules
  done;
  { Ast.modules = List.rev !modules }

let parse_module src : Ast.module_def =
  match (parse_design src).modules with
  | [] -> raise (Parse_error ("no module found", 1))
  | m :: _ -> m
