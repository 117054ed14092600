(* Property tests for the engine's flat message buffer (Sim.Mailbox):
   insertion order through growth, reset-by-count reuse never leaking
   stale entries, the monomorphic stable sort agreeing with the
   [List.sort] ordering the original list-based engine used, and the
   protocols' mailbox-native filtered iteration agreeing with
   [List.filter_map] over the materialized contents. *)

let qcheck t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0xb0f |]) t

(* A mailbox load: list of (peer, msg) pushes. Peers from a small range so
   duplicates (the stability-sensitive case) are common. *)
let load =
  QCheck.(small_list (pair (int_range 0 7) small_int))

let fill mb pushes =
  List.iter (fun (peer, m) -> Sim.Mailbox.push mb ~peer m) pushes

let qcheck_order =
  QCheck.Test.make ~name:"push/iter/to_list preserve insertion order"
    ~count:300 load (fun pushes ->
      let mb = Sim.Mailbox.create () in
      fill mb pushes;
      let via_iter = ref [] in
      Sim.Mailbox.iter mb (fun peer m -> via_iter := (peer, m) :: !via_iter);
      Sim.Mailbox.length mb = List.length pushes
      && Sim.Mailbox.to_list mb = pushes
      && List.rev !via_iter = pushes)

let qcheck_growth =
  QCheck.Test.make ~name:"order survives growth past any capacity" ~count:50
    QCheck.(pair (int_range 1 5) (int_range 100 400))
    (fun (hint, len) ->
      (* Force many doubling steps from a tiny hinted capacity. *)
      let mb = Sim.Mailbox.create ~hint () in
      let pushes = List.init len (fun i -> (i mod 9, i * 3)) in
      fill mb pushes;
      Sim.Mailbox.to_list mb = pushes)

let qcheck_reuse =
  QCheck.Test.make
    ~name:"clear-then-refill never exposes stale entries" ~count:300
    QCheck.(pair load load)
    (fun (first, second) ->
      let mb = Sim.Mailbox.create () in
      fill mb first;
      Sim.Mailbox.clear mb;
      (* A cleared buffer reads as empty even though slots keep old data. *)
      Sim.Mailbox.length mb = 0
      && Sim.Mailbox.to_list mb = []
      &&
      (fill mb second;
       Sim.Mailbox.to_list mb = second
       && Sim.Mailbox.fold mb ~init:0 (fun acc _ _ -> acc + 1)
          = List.length second))

let qcheck_sort =
  QCheck.Test.make
    ~name:"sort_by_peer = stable List.sort by peer (duplicates kept)"
    ~count:500 load (fun pushes ->
      let mb = Sim.Mailbox.create () in
      fill mb pushes;
      Sim.Mailbox.sort_by_peer mb;
      let expected =
        List.stable_sort (fun (a, _) (b, _) -> compare a b) pushes
      in
      Sim.Mailbox.to_list mb = expected)

let qcheck_sorted_flag =
  QCheck.Test.make ~name:"is_sorted_by_peer agrees with the list order"
    ~count:300 load (fun pushes ->
      let mb = Sim.Mailbox.create () in
      fill mb pushes;
      let rec non_decreasing = function
        | a :: (b :: _ as rest) -> a <= b && non_decreasing rest
        | _ -> true
      in
      let before =
        Sim.Mailbox.is_sorted_by_peer mb
        = non_decreasing (List.map fst pushes)
      in
      Sim.Mailbox.sort_by_peer mb;
      before && Sim.Mailbox.is_sorted_by_peer mb)

(* The buffered protocols filter their whole-inbox iterator during
   iteration (pk_iter / sub_iter-style views) instead of materializing a
   filtered (src, msg) list. Check the two against each other on
   arbitrary mailboxes with duplicate peers. *)
type tagged = A of int | B of int

let tagged_load =
  QCheck.(small_list (pair (int_range 0 7) (pair bool small_int)))

let fill_tagged mb pushes =
  List.iter
    (fun (peer, (is_a, v)) ->
      Sim.Mailbox.push mb ~peer (if is_a then A v else B v))
    pushes

let filter_iter mb f =
  Sim.Mailbox.iter mb (fun src m -> match m with A v -> f src v | B _ -> ())

let filtered_list mb =
  List.filter_map
    (fun (src, m) -> match m with A v -> Some (src, v) | B _ -> None)
    (Sim.Mailbox.to_list mb)

let collect_filtered mb =
  let acc = ref [] in
  filter_iter mb (fun src v -> acc := (src, v) :: !acc);
  List.rev !acc

let qcheck_filter_equiv =
  QCheck.Test.make
    ~name:"filtered iteration = List.filter_map over to_list" ~count:300
    tagged_load (fun pushes ->
      let mb = Sim.Mailbox.create () in
      fill_tagged mb pushes;
      collect_filtered mb = filtered_list mb)

let qcheck_filter_reuse =
  QCheck.Test.make
    ~name:"filtered view survives growth and clear-then-refill" ~count:100
    QCheck.(pair (int_range 100 300) tagged_load)
    (fun (len, second) ->
      (* grow well past the hinted capacity with duplicate peers *)
      let mb = Sim.Mailbox.create ~hint:1 () in
      for i = 0 to len - 1 do
        Sim.Mailbox.push mb ~peer:(i mod 5) (if i mod 3 = 0 then A i else B i)
      done;
      let first_ok = collect_filtered mb = filtered_list mb in
      Sim.Mailbox.clear mb;
      fill_tagged mb second;
      first_ok && collect_filtered mb = filtered_list mb)

(* --- broadcast segments --- *)

(* A mixed load: pointwise pushes interleaved with broadcast ranges over a
   small pid space, descending and ascending, with and without a skipped
   destination (including skips outside the range and empty ranges). *)
let op =
  QCheck.(
    map
      (fun (point, (lo, span), (skip, desc), m) ->
        if point then `P (lo, m)
        else `B (lo, min 7 (lo + span), (if skip > 7 then -1 else skip), desc, m))
      (quad bool
         (pair (int_range 0 7) (int_range 0 7))
         (pair (int_range 0 9) bool)
         small_int))

let mixed_load = QCheck.small_list op

let apply_ops mb ops =
  List.iter
    (function
      | `P (peer, m) -> Sim.Mailbox.push mb ~peer m
      | `B (lo, hi, skip, desc, m) ->
          Sim.Mailbox.push_all mb ~lo ~hi ~skip ~desc m)
    ops

(* The reference semantics: every broadcast expanded pointwise at its
   emission position, in its declared direction. *)
let expand_ops ops =
  List.concat_map
    (function
      | `P (peer, m) -> [ (peer, m) ]
      | `B (lo, hi, skip, desc, m) ->
          let dsts = ref [] in
          if desc then
            for d = lo to hi do
              if d <> skip then dsts := d :: !dsts
            done
          else
            for d = hi downto lo do
              if d <> skip then dsts := d :: !dsts
            done;
          List.map (fun d -> (d, m)) !dsts)
    ops

let qcheck_broadcast_equiv =
  QCheck.Test.make
    ~name:"push_all = pointwise pushes under iter/riter/to_list/length"
    ~count:500 mixed_load (fun ops ->
      let mb = Sim.Mailbox.create () in
      apply_ops mb ops;
      let expected = expand_ops ops in
      let via_riter = ref [] in
      Sim.Mailbox.riter mb (fun peer m -> via_riter := (peer, m) :: !via_riter);
      Sim.Mailbox.length mb = List.length expected
      && Sim.Mailbox.to_list mb = expected
      && !via_riter = expected
      && Sim.Mailbox.fold mb ~init:[] (fun acc p m -> (p, m) :: acc)
         = List.rev expected)

let qcheck_broadcast_flatten =
  QCheck.Test.make
    ~name:"flatten rewrites segments in place, emission order kept"
    ~count:500 mixed_load (fun ops ->
      let mb = Sim.Mailbox.create () in
      apply_ops mb ops;
      let expected = expand_ops ops in
      Sim.Mailbox.flatten mb;
      Sim.Mailbox.seg_count mb = 0
      && Sim.Mailbox.point_length mb = List.length expected
      && Sim.Mailbox.to_list mb = expected
      && List.for_all
           (fun i ->
             (Sim.Mailbox.peer mb i, Sim.Mailbox.msg mb i)
             = List.nth expected i)
           (List.init (List.length expected) Fun.id))

let qcheck_broadcast_entries =
  QCheck.Test.make
    ~name:"iter_entries/riter_entries visit segments at their positions"
    ~count:300 mixed_load (fun ops ->
      let mb = Sim.Mailbox.create () in
      apply_ops mb ops;
      let expand_entry ~lo ~hi ~skip ~desc ~size m =
        let l = ref [] in
        if desc then
          for d = lo to hi do
            if d <> skip then l := (d, m) :: !l
          done
        else
          for d = hi downto lo do
            if d <> skip then l := (d, m) :: !l
          done;
        assert (List.length !l = size);
        !l
      in
      let fwd = ref [] in
      Sim.Mailbox.iter_entries mb
        ~point:(fun p m -> fwd := (p, m) :: !fwd)
        ~seg:(fun ~lo ~hi ~skip ~desc ~size m ->
          fwd := List.rev_append (expand_entry ~lo ~hi ~skip ~desc ~size m) !fwd);
      let bwd = ref [] in
      Sim.Mailbox.riter_entries mb
        ~point:(fun p m -> bwd := (p, m) :: !bwd)
        ~seg:(fun ~lo ~hi ~skip ~desc ~size m ->
          bwd :=
            List.rev_append
              (List.rev (expand_entry ~lo ~hi ~skip ~desc ~size m))
              !bwd);
      let expected = expand_ops ops in
      List.rev !fwd = expected && !bwd = expected)

let qcheck_broadcast_reuse =
  QCheck.Test.make
    ~name:"broadcast clear-then-refill never exposes stale segments"
    ~count:300
    QCheck.(pair mixed_load mixed_load)
    (fun (first, second) ->
      let mb = Sim.Mailbox.create () in
      apply_ops mb first;
      Sim.Mailbox.clear mb;
      Sim.Mailbox.length mb = 0
      && Sim.Mailbox.seg_count mb = 0
      && Sim.Mailbox.to_list mb = []
      &&
      (apply_ops mb second;
       Sim.Mailbox.to_list mb = expand_ops second))

let test_broadcast_identity () =
  (* one push_all stores ONE shared record: every expanded slot must be
     physically identical ([==]) to the pushed message, across segment
     growth and across flatten *)
  let mb = Sim.Mailbox.create () in
  let records = Array.init 12 (fun i -> ref i) in
  Array.iter (fun r -> Sim.Mailbox.push_all mb ~lo:0 ~hi:30 ~skip:7 r) records;
  let ok = ref true in
  let seen = Array.make 12 0 in
  Sim.Mailbox.iter mb (fun _peer m ->
      if not (m == records.(!m)) then ok := false;
      seen.(!m) <- seen.(!m) + 1);
  Alcotest.(check bool) "shared identity through growth" true !ok;
  Array.iteri
    (fun i c -> Alcotest.(check int) (Printf.sprintf "fanout %d" i) 30 c)
    seen;
  Sim.Mailbox.flatten mb;
  let ok = ref true in
  Sim.Mailbox.iter mb (fun _peer m -> if not (m == records.(!m)) then ok := false);
  Alcotest.(check bool) "shared identity after flatten" true !ok;
  Alcotest.(check int) "flattened size" (12 * 30) (Sim.Mailbox.point_length mb)

let test_bounds () =
  let mb = Sim.Mailbox.create () in
  Sim.Mailbox.push mb ~peer:3 "x";
  Alcotest.(check string) "msg 0" "x" (Sim.Mailbox.msg mb 0);
  Alcotest.(check int) "peer 0" 3 (Sim.Mailbox.peer mb 0);
  Alcotest.check_raises "peer out of bounds"
    (Invalid_argument "Mailbox.peer: index out of bounds") (fun () ->
      ignore (Sim.Mailbox.peer mb 1));
  Sim.Mailbox.clear mb;
  Alcotest.check_raises "cleared slot unreadable"
    (Invalid_argument "Mailbox.msg: index out of bounds") (fun () ->
      ignore (Sim.Mailbox.msg mb 0))

let suite =
  [
    qcheck qcheck_order;
    qcheck qcheck_growth;
    qcheck qcheck_reuse;
    qcheck qcheck_sort;
    qcheck qcheck_sorted_flag;
    qcheck qcheck_filter_equiv;
    qcheck qcheck_filter_reuse;
    qcheck qcheck_broadcast_equiv;
    qcheck qcheck_broadcast_flatten;
    qcheck qcheck_broadcast_entries;
    qcheck qcheck_broadcast_reuse;
    Alcotest.test_case "push_all keeps one shared record" `Quick
      test_broadcast_identity;
    Alcotest.test_case "bounds checks and clear semantics" `Quick test_bounds;
  ]
