(* Value Change Dump (VCD) writer, the waveform format consumed by
   GTKWave and most hardware debug tooling. Memories are omitted, as in
   common simulator defaults. *)

module Bits = Fpga_bits.Bits

type t = {
  buf : Buffer.t;
  signals : (string * string * int) array;  (* name, id code, width *)
  last : Bits.t option array;  (* last dumped value, by signal position *)
  mutable header_done : bool;
}

(* VCD identifier codes: printable ASCII starting at '!'. *)
let id_code i =
  let base = 94 and first = 33 in
  let rec go i acc =
    let c = Char.chr (first + (i mod base)) in
    let acc = String.make 1 c ^ acc in
    if i < base then acc else go ((i / base) - 1) acc
  in
  go i ""

let create (flat : Elaborate.flat) : t =
  let signals =
    Hashtbl.fold
      (fun name (s : Elaborate.fsignal) acc ->
        match s.fs_depth with Some _ -> acc | None -> (name, s.fs_width) :: acc)
      flat.f_signals []
    |> List.sort compare
    |> List.mapi (fun i (name, w) -> (name, id_code i, w))
    |> Array.of_list
  in
  {
    buf = Buffer.create 4096;
    signals;
    last = Array.make (Array.length signals) None;
    header_done = false;
  }

let write_header t =
  Buffer.add_string t.buf "$date reproduction run $end\n";
  Buffer.add_string t.buf "$version fpga-debug simulator $end\n";
  Buffer.add_string t.buf "$timescale 1ns $end\n";
  Buffer.add_string t.buf "$scope module top $end\n";
  Array.iter
    (fun (name, id, w) ->
      (* '/'-separated hierarchy is flattened into escaped names *)
      let safe = String.map (fun c -> if c = '/' then '.' else c) name in
      Buffer.add_string t.buf
        (Printf.sprintf "$var wire %d %s %s $end\n" w id safe))
    t.signals;
  Buffer.add_string t.buf "$upscope $end\n$enddefinitions $end\n";
  t.header_done <- true

let value_str v w id =
  if w = 1 then Printf.sprintf "%s%s" (if Bits.is_zero v then "0" else "1") id
  else Printf.sprintf "b%s %s" (Bits.to_binary_string v) id

let sample t (sim : Simulator.t) =
  if not t.header_done then write_header t;
  Buffer.add_string t.buf (Printf.sprintf "#%d\n" (Simulator.cycle sim));
  Array.iteri
    (fun k (name, id, w) ->
      let v = Simulator.read sim name in
      let changed =
        match t.last.(k) with
        | Some prev -> not (Bits.equal prev v)
        | None -> true
      in
      if changed then (
        Buffer.add_string t.buf (value_str v w id);
        Buffer.add_char t.buf '\n';
        t.last.(k) <- Some v))
    t.signals

let contents t =
  if not t.header_done then write_header t;
  Buffer.contents t.buf

let save t path =
  let oc = open_out path in
  output_string oc (contents t);
  close_out oc
