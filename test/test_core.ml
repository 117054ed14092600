(* Component-level tests of the Algorithm 1 voting core (Consensus.Core):
   driving the epochs directly over a controllable network to check the
   paper's building-block lemmas on real executions:
   - Lemma 1: every operative process contributes to every other operative
     process's group counts;
   - Lemmas 6/8: every operative process learns every group's counts during
     spreading;
   - the quorum rules that turn under-connected processes inoperative. *)

module Core = Consensus.Core

(* Run the full core schedule (epochs + Bcast) over a network where
   [omit ~slot ~src ~dst] drops messages. Returns the states after
   finalize. *)
let drive ?(omit = fun ~slot:_ ~src:_ ~dst:_ -> false) ~m ~inputs () =
  let members = Array.init m (fun i -> i) in
  let sh =
    Core.make_shared ~members ~seed:42 ~params:Consensus.Params.default
      ~t_max:(max 1 (m / 31)) ()
  in
  let sts = Array.init m (fun pid -> Core.create sh ~pid ~input:(inputs pid)) in
  let inboxes = Array.make m [] in
  let rand = Sim.Rand.create ~seed:5L () in
  for slot = 1 to Core.rounds sh do
    let next = Array.make m [] in
    Array.iteri
      (fun pid st ->
        let out =
          List_driver.collect
            (Core.step_into st ~slot ~iter:(List_driver.iter inboxes.(pid))
               ~rand)
        in
        List.iter
          (fun (dst, msg) ->
            if not (omit ~slot ~src:pid ~dst) then
              next.(dst) <- (pid, msg) :: next.(dst))
          out)
      sts;
    Array.iteri
      (fun i l -> inboxes.(i) <- List.sort (fun (a, _) (b, _) -> compare a b) l)
      next
  done;
  Array.iteri
    (fun pid st -> Core.finalize_into st ~iter:(List_driver.iter inboxes.(pid)))
    sts;
  (sh, sts)

let test_clean_run_decides () =
  let m = 36 in
  let _, sts = drive ~m ~inputs:(fun i -> i mod 2) () in
  Array.iter
    (fun st ->
      Alcotest.(check bool) "operative" true (Core.operative st);
      Alcotest.(check bool) "decided flag armed" true (Core.decided_flag st))
    sts;
  (* all line-16 decisions agree *)
  let d0 = Core.line16_decision sts.(0) in
  Alcotest.(check bool) "decision exists" true (d0 <> None);
  Array.iter
    (fun st ->
      Alcotest.(check (option int)) "same decision" d0 (Core.line16_decision st))
    sts

let test_unanimous_validity () =
  List.iter
    (fun b ->
      let m = 25 in
      let _, sts = drive ~m ~inputs:(fun _ -> b) () in
      Array.iter
        (fun st ->
          Alcotest.(check (option int)) "validity" (Some b)
            (Core.line16_decision st))
        sts)
    [ 0; 1 ]

let test_lemma1_contribution () =
  (* clean network, minority of ones: operative counts must be exact, i.e.
     every process's bit is counted by every other — observable through the
     deterministic all-set-0 outcome when ones < 15/30 *)
  let m = 49 in
  let ones = 16 in
  (* 16/49 < 1/2 *)
  let _, sts = drive ~m ~inputs:(fun i -> if i < ones then 1 else 0) () in
  Array.iter
    (fun st ->
      Alcotest.(check int) "exact counting forces 0" 0 (Core.candidate st))
    sts

let test_lemma1_exact_majority () =
  (* > 18/30 of ones forces 1 everywhere: again needs exact counting *)
  let m = 49 in
  let ones = 31 in
  (* 31/49 > 0.6 *)
  let _, sts = drive ~m ~inputs:(fun i -> if i < ones then 1 else 0) () in
  Array.iter
    (fun st ->
      Alcotest.(check int) "exact counting forces 1" 1 (Core.candidate st))
    sts

let test_quorum_kill_one_group () =
  (* silence all intra-group traffic of more than half of group 0: the
     whole group must become inoperative, everyone else must stay
     operative and still decide *)
  let m = 49 in
  let members = Array.init m (fun i -> i) in
  let part = Groups.sqrt_partition members in
  let g0 = Groups.group part 0 in
  let g0_size = Array.length g0 in
  let silenced = Array.to_list (Array.sub g0 0 ((g0_size / 2) + 1)) in
  let in_g0 pid = Array.exists (fun q -> q = pid) g0 in
  let omit ~slot:_ ~src ~dst =
    (List.mem src silenced && in_g0 dst) || (List.mem dst silenced && in_g0 src)
  in
  let _, sts = drive ~omit ~m ~inputs:(fun i -> i mod 2) () in
  Array.iteri
    (fun pid st ->
      if in_g0 pid then
        Alcotest.(check bool)
          (Printf.sprintf "group-0 member %d inoperative" pid)
          false (Core.operative st)
      else
        Alcotest.(check bool)
          (Printf.sprintf "outsider %d operative" pid)
          true (Core.operative st))
    sts;
  (* outsiders still reach a common decision *)
  let d =
    Array.to_list sts
    |> List.filteri (fun pid _ -> not (in_g0 pid))
    |> List.map Core.line16_decision
  in
  match d with
  | first :: rest ->
      Alcotest.(check bool) "outsiders decided" true (first <> None);
      List.iter
        (fun x -> Alcotest.(check (option int)) "outsiders agree" first x)
        rest
  | [] -> assert false

let test_spreading_completeness () =
  (* Lemma 8 flavor: with nobody silenced, the biased-majority outcome
     reflects *global* counts, which requires every group's counts to reach
     every process — checked by an input layout where one group is all-ones
     but the global fraction is below half: if a process only saw its own
     group it would choose 1, globally it must choose 0 *)
  let m = 49 in
  let members = Array.init m (fun i -> i) in
  let part = Groups.sqrt_partition members in
  let g0 = Groups.group part 0 in
  let in_g0 pid = Array.exists (fun q -> q = pid) g0 in
  (* group 0 all ones; everyone else zero: global ones = |g0| = 7/49 < 1/2 *)
  let _, sts = drive ~m ~inputs:(fun i -> if in_g0 i then 1 else 0) () in
  Array.iter
    (fun st ->
      Alcotest.(check int) "global counts dominate" 0 (Core.candidate st))
    sts

let test_inoperative_idles () =
  (* a process whose entire neighborhood omits its traffic must become
     inoperative but still pick up the final decision broadcast *)
  let m = 49 in
  let victim = 11 in
  let omit ~slot:_ ~src ~dst =
    (* cut everything except the Bcast-slot decision traffic; the Bcast slot
       is the last one, identifiable by leaving Final messages through —
       here we simply cut only the victim's incoming/outgoing *non-final*
       slots: approximate by slot number below the last *)
    src = victim || dst = victim
  in
  (* cut all but the last slot *)
  let members = Array.init m (fun i -> i) in
  let sh =
    Core.make_shared ~members ~seed:42 ~params:Consensus.Params.default
      ~t_max:1 ()
  in
  let last = Core.rounds sh in
  let omit ~slot ~src ~dst = slot < last && omit ~slot ~src ~dst in
  let _, sts = drive ~omit ~m ~inputs:(fun i -> i mod 2) () in
  Alcotest.(check bool) "victim inoperative" false (Core.operative sts.(victim));
  Alcotest.(check bool) "victim got the decision" true
    (Core.got_decision sts.(victim));
  Alcotest.(check bool) "victim decides at line 16" true
    (Core.line16_decision sts.(victim) <> None)

let test_singleton_core () =
  let _, sts = drive ~m:1 ~inputs:(fun _ -> 1) () in
  Alcotest.(check (option int)) "singleton decides own input" (Some 1)
    (Core.line16_decision sts.(0))

let test_two_member_core () =
  let _, sts = drive ~m:2 ~inputs:(fun _ -> 0) () in
  Array.iter
    (fun st ->
      Alcotest.(check (option int)) "pair decides" (Some 0)
        (Core.line16_decision st))
    sts

let test_set_candidate () =
  let members = [| 0; 1; 2; 3 |] in
  let sh =
    Core.make_shared ~members ~seed:1 ~params:Consensus.Params.default
      ~t_max:1 ()
  in
  let st = Core.create sh ~pid:0 ~input:0 in
  Core.set_candidate st 1;
  Alcotest.(check int) "candidate overridden" 1 (Core.candidate st);
  Alcotest.check_raises "non-bit rejected"
    (Invalid_argument "Core.set_candidate: bit expected") (fun () ->
      Core.set_candidate st 2)

let test_msg_bits () =
  let members = Array.init 16 (fun i -> i) in
  let sh =
    Core.make_shared ~members ~seed:1 ~params:Consensus.Params.default
      ~t_max:1 ()
  in
  let c = { Core.ones = 3; zeros = 2 } in
  List.iter
    (fun m ->
      Alcotest.(check bool) "positive bits" true (Core.msg_bits sh m > 0))
    [
      Core.Counts { stage = 1; bag = 0; c };
      Core.Confirm { stage = 1 };
      Core.Result { stage = 1; left = Some c; right = None };
      Core.Spread_delta [ (0, c); (1, c) ];
      Core.Final 1;
    ];
  (* spreading deltas are charged per entry *)
  Alcotest.(check bool) "delta grows with entries" true
    (Core.msg_bits sh (Core.Spread_delta [ (0, c); (1, c) ])
    > Core.msg_bits sh (Core.Spread_delta [ (0, c) ]));
  Alcotest.(check (option int)) "final hint" (Some 1)
    (Core.msg_hint (Core.Final 1));
  Alcotest.(check (option int)) "counts carry no hint" None
    (Core.msg_hint (Core.Counts { stage = 1; bag = 0; c }))

(* --- schedule lengths without building the instance --- *)

(* [rounds_needed] of optimal, crash-sub and param is arithmetic; it must
   equal the schedule the builders actually lay out. The references below
   build every voting core (expander included) and read its length, as
   the builders do. *)
let built_rounds ~params ~members ~seed ~t_max =
  Core.rounds (Core.make_shared ~members ~seed ~params ~t_max ())

let test_schedule_rounds_grid () =
  let module P = Consensus.Params in
  let param_sets =
    [
      P.default;
      { P.default with P.spread_c = 2; delta_c = 4 };
      { P.default with P.epochs = P.Fixed 3 };
    ]
  in
  let cases = ref 0 in
  let check name expected got =
    incr cases;
    if expected <> got then
      Alcotest.failf "%s: built schedule has %d rounds, arithmetic says %d"
        name expected got
  in
  List.iter
    (fun params ->
      for n = 1 to 64 do
        List.iter
          (fun t_max ->
            List.iter
              (fun seed ->
                let name = Printf.sprintf "n=%d t=%d seed=%d" n t_max seed in
                let members = Array.init n Fun.id in
                let core = built_rounds ~params ~members ~seed ~t_max in
                check ("core " ^ name) core
                  (Core.schedule_rounds ~params ~m:n ~t_max);
                let cfg = Sim.Config.make ~n ~t_max ~seed () in
                let pk = Consensus.Phase_king.rounds ~t_max in
                check ("optimal " ^ name)
                  (core + pk + 4)
                  (Consensus.Optimal_omissions.rounds_needed ~params cfg);
                check ("crash-sub " ^ name)
                  (core + (4 * P.log2_ceil n) + pk + 8)
                  (Consensus.Crash_subquadratic.rounds_needed ~params cfg);
                List.iter
                  (fun x ->
                    if x <= n then begin
                      let sps = Groups.partition_into members x in
                      let phase_len =
                        Array.fold_left max 0
                          (Array.init (Groups.group_count sps) (fun i ->
                               let sp = Groups.group sps i in
                               built_rounds ~params ~members:sp
                                 ~seed:(seed + (1000003 * (i + 1)))
                                 ~t_max:(max 1 (Array.length sp / 30))))
                        + (2 * P.log2_ceil n)
                      in
                      check
                        (Printf.sprintf "param x=%d %s" x name)
                        ((Groups.group_count sps * phase_len) + 1 + 2 + pk + 4)
                        (Consensus.Param_omissions.rounds_needed ~params ~x
                           cfg)
                    end)
                  [ 2; 3; 4; 7 ])
              [ 1; 9 ])
          (List.sort_uniq compare
             (List.filter (fun t -> t < n) [ 0; 1; 2; n / 3 ]))
      done)
    param_sets;
  (* the registry's bound is the same arithmetic plus its slack *)
  let cfg = Sim.Config.make ~n:40 ~t_max:1 ~seed:5 () in
  List.iter
    (fun (id, needed) ->
      match Harness.Registry.find id with
      | Ok e ->
          check ("registry " ^ id) (needed + 10)
            (Harness.Registry.rounds_bound e cfg)
      | Error m -> Alcotest.fail m)
    [
      ("optimal", Consensus.Optimal_omissions.rounds_needed cfg);
      ("crash-sub", Consensus.Crash_subquadratic.rounds_needed cfg);
      ("param-x2", Consensus.Param_omissions.rounds_needed ~x:2 cfg);
    ];
  Alcotest.(check bool) "grid is not empty" true (!cases > 1000)

let suite =
  [
    Alcotest.test_case "clean run decides" `Quick test_clean_run_decides;
    Alcotest.test_case "unanimous validity" `Quick test_unanimous_validity;
    Alcotest.test_case "Lemma 1: exact minority counting" `Quick
      test_lemma1_contribution;
    Alcotest.test_case "Lemma 1: exact majority counting" `Quick
      test_lemma1_exact_majority;
    Alcotest.test_case "quorum kills an isolated group" `Quick
      test_quorum_kill_one_group;
    Alcotest.test_case "Lemma 8: spreading completeness" `Quick
      test_spreading_completeness;
    Alcotest.test_case "inoperative process still decides" `Quick
      test_inoperative_idles;
    Alcotest.test_case "singleton core" `Quick test_singleton_core;
    Alcotest.test_case "two-member core" `Quick test_two_member_core;
    Alcotest.test_case "set_candidate" `Quick test_set_candidate;
    Alcotest.test_case "message bits" `Quick test_msg_bits;
    Alcotest.test_case "schedule rounds = built schedule (grid)" `Quick
      test_schedule_rounds_grid;
  ]
