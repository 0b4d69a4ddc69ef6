(* The command-line boundary: a design the tools reject exits 2 with a
   one-line "fpga-debug: error: FILE[:LINE]: message" on stderr, never
   cmdliner's 125 internal-error path. Runs the built CLI on small
   hand-written bad designs. *)

let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* dune runs the suite from _build/default/test; the test stanza
   depends on the CLI so it is built first. *)
let cli = Filename.concat Filename.parent_dir_name "bin/main.exe"

(* Run [fpga-debug sim FILE --top TOP] on [src]; return the exit code
   and stderr with the temporary file name replaced by "FILE". *)
let run_sim ?(top = "top") src =
  let file = Filename.temp_file "fpga_debug_cli" ".v" in
  let err = Filename.temp_file "fpga_debug_cli" ".err" in
  Out_channel.with_open_text file (fun oc -> output_string oc src);
  let code =
    Sys.command
      (Filename.quote_command cli
         [ "sim"; file; "--top"; top; "--cycles"; "2" ]
         ~stdout:Filename.null ~stderr:err)
  in
  let msg = String.trim (In_channel.with_open_text err In_channel.input_all) in
  Sys.remove file;
  Sys.remove err;
  let prefix = "fpga-debug: error: " ^ file in
  let n = String.length prefix in
  let msg =
    if String.length msg >= n && String.sub msg 0 n = prefix then
      "FILE" ^ String.sub msg n (String.length msg - n)
    else msg
  in
  (code, msg)

let expect ?top src expected () =
  let code, msg = run_sim ?top src in
  check_int "exit code" 2 code;
  check_string "message" expected msg

let ok_src =
  "module top (input clk, output [7:0] q);\n  assign q = 8'd1;\nendmodule\n"

let cases =
  [
    ( "bad literal is a lex error",
      expect
        "module top (input clk, output [7:0] q);\n  assign q = 8'hzz;\nendmodule\n"
        "FILE:2: bad literal digits" );
    ( "truncated file is a parse error",
      expect "module top (input clk, output [7:0] q);\n  assign q = \n"
        "FILE:3: expected expression, got <eof>" );
    ( "self-instantiation is an elaboration error",
      expect "module top (input clk);\n  top u ();\nendmodule\n"
        "FILE: recursive instantiation: u" );
    ( "unknown --top is an elaboration error",
      expect ~top:"nosuch" ok_src "FILE: top module nosuch not found" );
    ( "unbound signal is an evaluation error",
      expect
        "module top (input clk, output [7:0] q);\n  assign q = nope;\nendmodule\n"
        "FILE: unbound signal nope" );
    ( "combinational cycle names its signals",
      expect
        "module top (input clk, output a, output b);\n\
        \  assign a = b;\n\
        \  assign b = a;\n\
         endmodule\n"
        "FILE: combinational cycle through a, b" );
    ( "a good design exits 0",
      fun () -> check_int "exit code" 0 (fst (run_sim ok_src)) );
  ]

let suite =
  List.map (fun (name, f) -> Alcotest.test_case name `Quick f) cases
