(* Serializable simulator checkpoints: versioned, content-hashed
   snapshots of the full architectural state. See checkpoint.mli for
   the format contract.

   Wire format (line-oriented text, one record per line):

     fpga-debug-checkpoint/<version>
     design <md5 of the design signature>
     tag <escaped>
     cycle <int>
     finished 0|1
     meta <n>
     <key> <escaped value>          (n lines)
     values <n>
     v <name> <width> <hex>         (vector)
     m <name> <width> <depth> <hex>,<hex>,...   (memory)
     prims <n>
     fifo <name> <width> <depth> <head> <count> <hex>,...
     ram <name> <width> <qhex> <hex>,...
     log <n>
     <cycle> <escaped text>         (n lines, oldest first)
     sha <md5 of every preceding byte>

   Escaping covers exactly the characters the line discipline needs:
   backslash, newline, carriage return. Signal and primitive names are
   flat Verilog identifier paths ('/'-separated) and need none. *)

module Bits = Fpga_bits.Bits
module Telemetry = Fpga_telemetry.Telemetry

exception Checkpoint_error of string

let ck_encoded_bytes = Telemetry.Counter.make "checkpoint.encoded_bytes"
let ck_decoded_bytes = Telemetry.Counter.make "checkpoint.decoded_bytes"

let fail fmt = Printf.ksprintf (fun s -> raise (Checkpoint_error s)) fmt
let magic = "fpga-debug-checkpoint"
let version = 1

type prim =
  | Cfifo of {
      cf_name : string;
      cf_width : int;
      cf_data : Bits.t array;
      cf_head : int;
      cf_count : int;
    }
  | Cram of {
      cr_name : string;
      cr_width : int;
      cr_q : Bits.t;
      cr_words : Bits.t array;
    }

type t = {
  ck_design : string;
  ck_tag : string;
  ck_cycle : int;
  ck_finished : bool;
  ck_values : (string * Compiled.value) list;
  ck_prims : prim list;
  ck_log : (int * string) list;
  ck_meta : (string * string) list;
}

(* ------------------------------------------------------------------ *)
(* Design signature                                                    *)
(* ------------------------------------------------------------------ *)

let design_hash (flat : Elaborate.flat) : string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf flat.Elaborate.f_top;
  Array.iter
    (fun name ->
      let s = Hashtbl.find flat.Elaborate.f_signals name in
      Buffer.add_string buf
        (Printf.sprintf "|%s:%d:%s" name s.Elaborate.fs_width
           (match s.Elaborate.fs_depth with
           | None -> "-"
           | Some d -> string_of_int d)))
    flat.Elaborate.f_signal_order;
  List.iter
    (fun (p : Elaborate.fprim) ->
      Buffer.add_string buf
        (Printf.sprintf "|%s:%s" p.Elaborate.fp_name
           (match p.Elaborate.fp_kind with
           | Elaborate.Scfifo -> "scfifo"
           | Elaborate.Dcfifo -> "dcfifo"
           | Elaborate.Altsyncram -> "altsyncram"));
      List.iter
        (fun (k, v) -> Buffer.add_string buf (Printf.sprintf ":%s=%d" k v))
        p.Elaborate.fp_params)
    flat.Elaborate.f_prims;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* ------------------------------------------------------------------ *)
(* Escaping                                                            *)
(* ------------------------------------------------------------------ *)

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let unescape s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (if s.[!i] = '\\' && !i + 1 < n then (
       (match s.[!i + 1] with
       | 'n' -> Buffer.add_char buf '\n'
       | 'r' -> Buffer.add_char buf '\r'
       | c -> Buffer.add_char buf c);
       i := !i + 1)
     else Buffer.add_char buf s.[!i]);
    incr i
  done;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

let hex_csv (a : Bits.t array) =
  String.concat "," (Array.to_list (Array.map Bits.to_hex_string a))

let body_string (t : t) : string =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "%s/%d\n" magic version;
  add "design %s\n" t.ck_design;
  add "tag %s\n" (escape t.ck_tag);
  add "cycle %d\n" t.ck_cycle;
  add "finished %d\n" (if t.ck_finished then 1 else 0);
  add "meta %d\n" (List.length t.ck_meta);
  List.iter (fun (k, v) -> add "%s %s\n" k (escape v)) t.ck_meta;
  add "values %d\n" (List.length t.ck_values);
  List.iter
    (fun (name, v) ->
      match v with
      | Compiled.Vec b -> add "v %s %d %s\n" name (Bits.width b) (Bits.to_hex_string b)
      | Compiled.Mem a ->
          let w = if Array.length a = 0 then 1 else Bits.width a.(0) in
          add "m %s %d %d %s\n" name w (Array.length a) (hex_csv a))
    t.ck_values;
  add "prims %d\n" (List.length t.ck_prims);
  List.iter
    (fun p ->
      match p with
      | Cfifo f ->
          add "fifo %s %d %d %d %d %s\n" f.cf_name f.cf_width
            (Array.length f.cf_data) f.cf_head f.cf_count (hex_csv f.cf_data)
      | Cram r ->
          add "ram %s %d %s %s\n" r.cr_name r.cr_width
            (Bits.to_hex_string r.cr_q) (hex_csv r.cr_words))
    t.ck_prims;
  add "log %d\n" (List.length t.ck_log);
  List.iter (fun (c, text) -> add "%d %s\n" c (escape text)) t.ck_log;
  Buffer.contents buf

let content_hash (t : t) : string =
  Digest.to_hex (Digest.string (body_string t))

let to_string (t : t) : string =
  Telemetry.span "checkpoint.encode" @@ fun () ->
  let body = body_string t in
  let s = body ^ Printf.sprintf "sha %s\n" (Digest.to_hex (Digest.string body)) in
  Telemetry.Counter.bump ck_encoded_bytes (String.length s);
  s

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

(* a small cursor over the lines, with contextful errors *)
type cursor = { lines : string array; mutable pos : int }

let next cur what =
  if cur.pos >= Array.length cur.lines then
    fail "checkpoint truncated: expected %s at line %d" what (cur.pos + 1)
  else (
    let l = cur.lines.(cur.pos) in
    cur.pos <- cur.pos + 1;
    l)

let split2 line what =
  match String.index_opt line ' ' with
  | Some i ->
      ( String.sub line 0 i,
        String.sub line (i + 1) (String.length line - i - 1) )
  | None -> fail "malformed %s line: %S" what line

let expect_field cur key =
  let k, v = split2 (next cur key) key in
  if k <> key then fail "expected %S, found %S" key k else v

let parse_int what s =
  match int_of_string_opt s with
  | Some n -> n
  | None -> fail "malformed %s: %S is not an integer" what s

let parse_count cur key =
  let n = parse_int key (expect_field cur key) in
  if n < 0 then fail "negative %s count" key else n

let parse_bits ~what ~width s =
  if width < 1 then fail "bad width %d for %s" width what
  else if
    s = ""
    || not
         (String.for_all
            (function
              | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' | '_' -> true
              | _ -> false)
            s)
  then fail "malformed hex value for %s: %S" what s
  else Bits.of_hex_string ~width s

let parse_hex_csv ~what ~width ~n s =
  let parts = if s = "" then [] else String.split_on_char ',' s in
  if List.length parts <> n then
    fail "%s: expected %d words, found %d" what n (List.length parts)
  else Array.of_list (List.map (parse_bits ~what ~width) parts)

let of_string (s : string) : t =
  Telemetry.span "checkpoint.decode" @@ fun () ->
  Telemetry.Counter.bump ck_decoded_bytes (String.length s);
  (* 1. magic + version, before anything else, for a crisp error *)
  let header_ok prefix = String.length s >= String.length prefix
                         && String.sub s 0 (String.length prefix) = prefix in
  if not (header_ok (magic ^ "/")) then
    fail "not a checkpoint file (missing %s header)" magic;
  (* 2. content hash: the trailer line covers every byte above it *)
  let sha_at =
    match String.rindex_opt (String.trim s) '\n' with
    | Some i -> i + 1
    | None -> fail "checkpoint truncated: no content-hash trailer"
  in
  let body = String.sub s 0 sha_at in
  let trailer = String.trim (String.sub s sha_at (String.length s - sha_at)) in
  (match String.split_on_char ' ' trailer with
  | [ "sha"; h ] ->
      if h <> Digest.to_hex (Digest.string body) then
        fail "checkpoint corrupt: content hash mismatch"
  | _ -> fail "checkpoint truncated: no content-hash trailer");
  let lines =
    body |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
    |> Array.of_list
  in
  let cur = { lines; pos = 0 } in
  (* 3. header *)
  (let header = next cur "header" in
   match String.split_on_char '/' header with
   | [ m; v ] when m = magic ->
       let v = parse_int "version" v in
       if v <> version then
         fail "unsupported checkpoint version %d (this build reads version %d)"
           v version
   | _ -> fail "not a checkpoint file (malformed header %S)" header);
  let ck_design = expect_field cur "design" in
  let ck_tag = unescape (expect_field cur "tag") in
  let ck_cycle = parse_int "cycle" (expect_field cur "cycle") in
  let ck_finished =
    match expect_field cur "finished" with
    | "0" -> false
    | "1" -> true
    | other -> fail "malformed finished flag %S" other
  in
  let nmeta = parse_count cur "meta" in
  let ck_meta =
    List.init nmeta (fun _ ->
        let k, v = split2 (next cur "meta entry") "meta entry" in
        (k, unescape v))
  in
  let nvalues = parse_count cur "values" in
  let ck_values =
    List.init nvalues (fun _ ->
        let line = next cur "value" in
        match String.split_on_char ' ' line with
        | [ "v"; name; w; hex ] ->
            let w = parse_int "width" w in
            (name, Compiled.Vec (parse_bits ~what:name ~width:w hex))
        | [ "m"; name; w; d; csv ] ->
            let w = parse_int "width" w in
            let d = parse_int "depth" d in
            (name, Compiled.Mem (parse_hex_csv ~what:name ~width:w ~n:d csv))
        | _ -> fail "malformed value line: %S" line)
  in
  let nprims = parse_count cur "prims" in
  let ck_prims =
    List.init nprims (fun _ ->
        let line = next cur "prim" in
        match String.split_on_char ' ' line with
        | [ "fifo"; name; w; d; head; count; csv ] ->
            let w = parse_int "width" w in
            let d = parse_int "depth" d in
            let head = parse_int "head" head in
            let count = parse_int "count" count in
            if head < 0 || head >= max 1 d || count < 0 || count > d then
              fail "fifo %s: inconsistent head/count (%d/%d of %d)" name head
                count d;
            Cfifo
              {
                cf_name = name;
                cf_width = w;
                cf_data = parse_hex_csv ~what:name ~width:w ~n:d csv;
                cf_head = head;
                cf_count = count;
              }
        | [ "ram"; name; w; qhex; csv ] ->
            let w = parse_int "width" w in
            let words = if csv = "" then [||]
              else parse_hex_csv ~what:name ~width:w
                     ~n:(List.length (String.split_on_char ',' csv)) csv
            in
            Cram
              {
                cr_name = name;
                cr_width = w;
                cr_q = parse_bits ~what:name ~width:w qhex;
                cr_words = words;
              }
        | _ -> fail "malformed prim line: %S" line)
  in
  let nlog = parse_count cur "log" in
  let ck_log =
    List.init nlog (fun _ ->
        let c, text = split2 (next cur "log entry") "log entry" in
        (parse_int "log cycle" c, unescape text))
  in
  if cur.pos <> Array.length cur.lines then
    fail "trailing garbage after log section (line %d)" (cur.pos + 1);
  { ck_design; ck_tag; ck_cycle; ck_finished; ck_values; ck_prims; ck_log;
    ck_meta }

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let save path (t : t) =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir "ckpt" ".tmp" in
  let oc = open_out tmp in
  output_string oc (to_string t);
  close_out oc;
  Sys.rename tmp path

let load path : t =
  let text =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error e -> fail "cannot read checkpoint %s: %s" path e
  in
  try of_string text
  with Checkpoint_error m -> fail "%s: %s" path m
