(* Bit-identity equivalence suite for the engine's delivery paths.

   For every protocol in the registry, across a grid of (adversary
   strategy, seed, input pattern), the fast path must produce exactly the
   same outcome record and exactly the same JSONL trace, byte for byte, as
   the classic reference. The reference is the engine's slowest route:
   every broadcast expanded into pointwise [emit] calls
   ({!Sim.Protocol_intf.pointwise}), compiled omission masks stripped
   ({!Adversary.pointwise}, so delivery calls the per-message predicate),
   and a tracer attached (forcing the envelope arena fill and the general
   delivery loop). The fast path is {!Harness.Registry.build} as shipped:
   broadcast segments and compiled masks, run traced, untraced (the
   mask-blit / broadcast-table delivery) and twice through one reusable
   {!Sim.Engine.instance} (proving cross-run buffer reuse leaks no
   state). Runs that abort with [Illegal_plan] (the grid deliberately
   includes over-budget strategies) must abort with the same message
   after the same trace prefix.

   A mutant that reverses one [emit_all]'s declared direction must make
   the comparison fail — proof that the reference still sees emission
   order. *)

let grid_n entry = max entry.Harness.Registry.min_n 12
let grid_t entry ~n = max 1 (min 3 (entry.Harness.Registry.max_t n))

let input_patterns =
  [ ("alternating", fun i -> i mod 2); ("all-ones", fun _ -> 1) ]

let seeds = [ 1; 42 ]

let cfg_for entry ~seed =
  let n = grid_n entry in
  let t = grid_t entry ~n in
  let cfg0 = Sim.Config.make ~n ~t_max:t ~seed () in
  Sim.Config.make ~n ~t_max:t ~seed
    ~max_rounds:(Harness.Registry.rounds_bound entry cfg0)
    ()

(* One traced run: outcome (or the Illegal_plan message) plus the trace as
   JSON lines. The adversary strategy is rebuilt per run — some strategies
   close over mutable state, and sharing one across compared runs would
   let the first run's state bleed into the second. [strip] replaces the
   strategy with its {!Adversary.pointwise} form (compiled masks removed),
   putting the engine on the per-message predicate path. *)
let capture ?(strip = false) ~n ~adv_idx run =
  let adversary = List.nth (Adversary.standard_suite ~n) adv_idx in
  let adversary = if strip then Adversary.pointwise adversary else adversary in
  let sink, events = Trace.Sink.memory () in
  let res =
    try Ok (run ~adversary ~trace:sink)
    with Sim.Engine.Illegal_plan m -> Error m
  in
  (res, List.map Trace.Event.to_json (events ()))

(* Untraced run: outcome only. Without a tracer the engine takes the
   mask-blit fast path whenever the plan carries compiled verdicts. *)
let capture_untraced ~n ~adv_idx run =
  let adversary = List.nth (Adversary.standard_suite ~n) adv_idx in
  try Ok (run ~adversary) with Sim.Engine.Illegal_plan m -> Error m

let adversary_count = List.length (Adversary.standard_suite ~n:12)

let show_result = function
  | Ok _ -> "Ok"
  | Error m -> "Illegal_plan " ^ m

(* [None] when equal, otherwise the first difference. *)
let diff_outcome a b =
  if a = b then None
  else
    Some
      (Printf.sprintf "outcomes differ (%s vs %s)" (show_result a)
         (show_result b))

let diff_traced (res_a, trace_a) (res_b, trace_b) =
  match diff_outcome res_a res_b with
  | Some _ as d -> d
  | None ->
      let rec first_diff i = function
        | [], [] -> None
        | a :: tl_a, b :: tl_b ->
            if a <> b then
              Some
                (Printf.sprintf "traces diverge at event %d:\n  %s\n  %s" i a
                   b)
            else first_diff (i + 1) (tl_a, tl_b)
        | _ ->
            Some
              (Printf.sprintf "trace lengths differ (%d vs %d)"
                 (List.length trace_a) (List.length trace_b))
      in
      first_diff 0 (trace_a, trace_b)

(* The first divergence between the classic reference and the fast path
   built by [build] at one grid point, labelled by the comparison that
   found it. *)
let divergence ~build entry ~seed ~inputs ~adv_idx =
  let cfg = cfg_for entry ~seed in
  let n = cfg.Sim.Config.n in
  let reference =
    capture ~strip:true ~n ~adv_idx (fun ~adversary ~trace ->
        Sim.Engine.run ~trace
          (Sim.Protocol_intf.pointwise (Harness.Registry.build entry cfg))
          cfg ~adversary ~inputs)
  in
  let label name = Option.map (fun d -> name ^ ": " ^ d) in
  let traced =
    capture ~n ~adv_idx (fun ~adversary ~trace ->
        Sim.Engine.run ~trace (build cfg) cfg ~adversary ~inputs)
  in
  let untraced =
    capture_untraced ~n ~adv_idx (fun ~adversary ->
        Sim.Engine.run (build cfg) cfg ~adversary ~inputs)
  in
  let inst = Sim.Engine.instance (build cfg) cfg in
  let via_instance () =
    capture ~n ~adv_idx (fun ~adversary ~trace ->
        Sim.Engine.run_instance ~trace inst ~adversary ~inputs)
  in
  let run1 = via_instance () in
  let run2 = via_instance () in
  List.find_map Fun.id
    [
      label "traced" (diff_traced reference traced);
      label "untraced" (diff_outcome (fst reference) untraced);
      label "instance run 1" (diff_traced reference run1);
      label "instance run 2" (diff_traced reference run2);
    ]

(* Every grid point of [entry], in order; the first divergence found. *)
let grid_divergence ~build entry =
  let n = grid_n entry in
  List.find_map
    (fun seed ->
      List.find_map
        (fun (pat_name, pat) ->
          let inputs = Array.init n pat in
          List.find_map
            (fun adv_idx ->
              Option.map
                (Printf.sprintf "%s seed=%d inputs=%s adv=%d [%s]"
                   entry.Harness.Registry.id seed pat_name adv_idx)
                (divergence ~build entry ~seed ~inputs ~adv_idx))
            (List.init adversary_count Fun.id))
        input_patterns)
    seeds

let test_entry entry () =
  match grid_divergence ~build:(Harness.Registry.build entry) entry with
  | None -> ()
  | Some d -> Alcotest.fail d

(* The mutant: every [emit_all] expanded in the opposite direction. The
   message multiset per destination is unchanged, only the wire order
   moves — exactly the kind of bug the reference must still catch. *)
let flip_desc (module P : Sim.Protocol_intf.BUFFERED) :
    Sim.Protocol_intf.buffered =
  (module struct
    include P

    let step_into cfg st ~round ~inbox ~rand ~emit ~emit_all =
      P.step_into cfg st ~round ~inbox ~rand ~emit
        ~emit_all:(fun ~lo ~hi ~skip ~desc m ->
          emit_all ~lo ~hi ~skip ~desc:(not desc) m)
  end)

let test_mutant_caught () =
  let entry =
    match Harness.Registry.find "flood" with
    | Ok e -> e
    | Error m -> Alcotest.fail m
  in
  let build cfg = flip_desc (Harness.Registry.build entry cfg) in
  match grid_divergence ~build entry with
  | Some _ -> ()
  | None -> Alcotest.fail "reversed emit_all direction went unnoticed"

let suite =
  List.map
    (fun entry ->
      Alcotest.test_case
        (Printf.sprintf "%s: buffered path bit-identical to classic path"
           entry.Harness.Registry.id)
        `Quick (test_entry entry))
    Harness.Registry.all
  @ [
      Alcotest.test_case "desc-flip mutant is caught" `Quick
        test_mutant_caught;
    ]
