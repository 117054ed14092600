(* Drive a protocol's iterator core over plain lists: component tests hand
   it an inbox as a [(src, msg)] list and read its emissions back as a
   [(dst, msg)] list in wire order, broadcasts expanded pointwise. *)

let iter inbox f = List.iter (fun (src, m) -> f src m) inbox

(* [collect (fun ~emit ~emit_all -> ...)] runs one step and returns what
   it emitted, in emission order. *)
let collect step =
  let out = ref [] in
  let emit dst m = out := (dst, m) :: !out in
  step ~emit ~emit_all:(fun ~lo ~hi ~skip ~desc m ->
      Sim.Mailbox.seg_iter_dsts ~lo ~hi ~skip ~desc (fun dst -> emit dst m));
  List.rev !out
