(* Tests for the content-addressed run cache (lib/cache), the [cache]
   argument of Supervise.run and Supervise.map, the canonical Run_spec API,
   and the fuzz-harness store dedup. The load-bearing property throughout:
   a cache hit is indistinguishable from a recompute — identical outcome,
   identical JSON rows — except for the cache-hit provenance event. *)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec at i =
    i + nl <= hl && (String.sub haystack i nl = needle || at (i + 1))
  in
  at 0

let temp_dir () =
  let path = Filename.temp_file "cache_test" ".dir" in
  Sys.remove path;
  path

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_store ?fingerprint f =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () -> f dir (fun () -> Cache.Store.open_ ?fingerprint ~dir ()))

(* --- the store itself --- *)

let test_store_roundtrip () =
  with_store (fun _dir open_ ->
      let s = open_ () in
      Cache.Store.add s ~key:"k1" "payload one";
      Cache.Store.add s ~key:"k2" "payload\ntwo with\nnewlines";
      Cache.Store.add s ~key:"k1" "never stored: k1 already present";
      Alcotest.(check (option string))
        "k1" (Some "payload one")
        (Cache.Store.lookup s "k1");
      Alcotest.(check (option string))
        "k2"
        (Some "payload\ntwo with\nnewlines")
        (Cache.Store.lookup s "k2");
      Alcotest.(check (option string)) "absent" None (Cache.Store.lookup s "k3");
      let st = Cache.Store.stats s in
      Alcotest.(check int) "hits" 2 st.Cache.Stats.hits;
      Alcotest.(check int) "misses" 1 st.Cache.Stats.misses;
      Alcotest.(check int) "writes (dup skipped)" 2 st.Cache.Stats.writes;
      Cache.Store.close s;
      (* persistence across reopen *)
      let s2 = open_ () in
      Alcotest.(check int) "entries persist" 2 (Cache.Store.entries s2);
      Alcotest.(check (option string))
        "k1 persists" (Some "payload one")
        (Cache.Store.lookup s2 "k1");
      Alcotest.(check int) "no corrupt lines" 0 (Cache.Store.corrupt s2);
      Cache.Store.close s2)

let test_corrupt_index_skipped () =
  with_store (fun dir open_ ->
      let s = open_ () in
      Cache.Store.add s ~key:"good" "survives";
      Cache.Store.close s;
      (* a torn append (no tab), a bad size, and trailing garbage *)
      let oc =
        open_out_gen [ Open_append ] 0o644 (Filename.concat dir "index")
      in
      output_string oc "deadbeef\n";
      output_string oc "0123456789abcdef0123456789abcdef\tnotasize\n";
      output_string oc "0123456789abcdef0123456789abcde";
      close_out oc;
      let s = open_ () in
      Alcotest.(check int) "good entry kept" 1 (Cache.Store.entries s);
      Alcotest.(check int) "corrupt lines counted" 3 (Cache.Store.corrupt s);
      Alcotest.(check (option string))
        "good payload intact" (Some "survives")
        (Cache.Store.lookup s "good");
      Cache.Store.close s)

let test_torn_payload_self_repair () =
  with_store (fun dir open_ ->
      let s = open_ () in
      Cache.Store.add s ~key:"k" "full payload";
      let hex = Cache.Store.digest_key s "k" in
      Cache.Store.close s;
      (* truncate the object: a torn write the rename never committed over *)
      let obj = Filename.concat (Filename.concat dir "objects") hex in
      let oc = open_out obj in
      output_string oc "full pay";
      close_out oc;
      let s = open_ () in
      Alcotest.(check (option string))
        "torn payload dropped" None (Cache.Store.lookup s "k");
      Alcotest.(check int) "counted corrupt" 1 (Cache.Store.corrupt s);
      (* exactly one recompute repairs it *)
      Cache.Store.add s ~key:"k" "full payload";
      Alcotest.(check (option string))
        "repaired" (Some "full payload")
        (Cache.Store.lookup s "k");
      Cache.Store.close s)

let test_fingerprint_invalidates () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () ->
      let s = Cache.Store.open_ ~fingerprint:"v1" ~dir () in
      Cache.Store.add s ~key:"k" "computed under v1";
      Cache.Store.close s;
      (* a fingerprint bump addresses different objects: a stale store
         never serves results computed by other code *)
      let s2 = Cache.Store.open_ ~fingerprint:"v2" ~dir () in
      Alcotest.(check (option string))
        "v1 entry invisible under v2" None (Cache.Store.lookup s2 "k");
      Cache.Store.add s2 ~key:"k" "computed under v2";
      Alcotest.(check (option string))
        "v2 entry" (Some "computed under v2")
        (Cache.Store.lookup s2 "k");
      Cache.Store.close s2;
      (* the v1 entry was never clobbered *)
      let s1 = Cache.Store.open_ ~fingerprint:"v1" ~dir () in
      Alcotest.(check (option string))
        "v1 entry survives" (Some "computed under v1")
        (Cache.Store.lookup s1 "k");
      Cache.Store.close s1)

let test_concurrent_writers () =
  with_store (fun _dir open_ ->
      let s = open_ () in
      (* 4 domains, overlapping key ranges: every key lands exactly once,
         no torn index lines, every payload reads back intact *)
      let worker lo =
        Domain.spawn (fun () ->
            for i = lo to lo + 59 do
              Cache.Store.add s
                ~key:(Printf.sprintf "key-%03d" i)
                (Printf.sprintf "payload for %03d" i)
            done)
      in
      let ds = List.map worker [ 0; 20; 40; 60 ] in
      List.iter Domain.join ds;
      Cache.Store.close s;
      let s = open_ () in
      Alcotest.(check int) "120 unique keys" 120 (Cache.Store.entries s);
      Alcotest.(check int) "no torn lines" 0 (Cache.Store.corrupt s);
      for i = 0 to 119 do
        Alcotest.(check (option string))
          (Printf.sprintf "key-%03d" i)
          (Some (Printf.sprintf "payload for %03d" i))
          (Cache.Store.lookup s (Printf.sprintf "key-%03d" i))
      done;
      Cache.Store.close s)

(* --- cache hit == recompute, across the whole registry --- *)

(* A small decided run per registry protocol: adversary none, mixed
   inputs, the registry's own rounds bound. *)
let spec_for (e : Harness.Registry.entry) =
  let n = max e.Harness.Registry.min_n 8 in
  let t = min 1 (e.Harness.Registry.max_t n) in
  Run_spec.make ~protocol:e.Harness.Registry.id ~n ~t_max:t ~seed:3 ()

let test_hit_equals_recompute () =
  with_store (fun _dir open_ ->
      let s = open_ () in
      List.iter
        (fun (e : Harness.Registry.entry) ->
          let spec = spec_for e in
          let name = e.Harness.Registry.id in
          let cold =
            match Run_spec.execute ~store:s spec with
            | Ok (o, None) -> o
            | _ -> Alcotest.failf "%s: cold run failed" name
          in
          let sink, events = Trace.Sink.memory () in
          let warm =
            match Run_spec.execute ~trace:sink ~store:s spec with
            | Ok (o, None) -> o
            | _ -> Alcotest.failf "%s: warm run failed" name
          in
          if warm <> cold then
            Alcotest.failf "%s: warm outcome differs from cold" name;
          (* provenance: the warm trace is exactly one cache-hit event
             carrying the content digest *)
          match events () with
          | [ Trace.Event.Cache_hit { key } ] ->
              Alcotest.(check string)
                (name ^ " digest")
                (Cache.Store.digest_key s (Run_spec.to_string spec))
                key
          | evs ->
              Alcotest.failf "%s: expected exactly one cache-hit, got %d" name
                (List.length evs))
        Harness.Registry.all;
      Alcotest.(check int)
        "one entry per protocol"
        (List.length Harness.Registry.all)
        (Cache.Store.entries s);
      Cache.Store.close s)

let test_hit_equals_recompute_net () =
  with_store (fun _dir open_ ->
      let s = open_ () in
      let net = { Net.Spec.default with Net.Spec.drop = 0.1; retries = 8 } in
      let spec =
        Run_spec.make ~protocol:"flood" ~n:16 ~t_max:2 ~seed:5 ~net ()
      in
      let cold =
        match Run_spec.execute ~store:s spec with
        | Ok (o, Some d) -> (o, d)
        | _ -> Alcotest.fail "cold net run failed"
      in
      let warm =
        match Run_spec.execute ~store:s spec with
        | Ok (o, Some d) -> (o, d)
        | _ -> Alcotest.fail "warm net run failed"
      in
      if warm <> cold then
        Alcotest.fail "net warm (outcome, degradation) differs from cold";
      let st = Cache.Store.stats s in
      Alcotest.(check int) "one miss then one hit" 1 st.Cache.Stats.hits;
      Cache.Store.close s)

let test_corrupt_entry_one_recompute () =
  with_store (fun dir open_ ->
      let s = open_ () in
      let spec =
        Run_spec.make ~protocol:"flood" ~n:8 ~t_max:1 ~seed:2 ()
      in
      let key = Run_spec.to_string spec in
      (match Run_spec.execute ~store:s spec with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "seed run failed");
      let hex = Cache.Store.digest_key s key in
      Cache.Store.close s;
      (* corrupt the stored outcome *)
      let obj = Filename.concat (Filename.concat dir "objects") hex in
      let oc = open_out obj in
      output_string oc "garbage";
      close_out oc;
      let s = open_ () in
      (* one recompute, no crash, and the entry is repaired *)
      (match Run_spec.execute ~store:s spec with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "recompute after corruption failed");
      Alcotest.(check bool)
        "repaired: next lookup hits" true
        (Cache.Store.lookup s key <> None);
      Cache.Store.close s)

(* --- payloads already on disk --- *)

(* Payloads written by the codecs that preceded the merged one, for
   flood n=8 t=1 seed=2 under the crash adversary: linkless, and over
   drop=0.1,retries=8. Caches filled before the merge must keep hitting,
   so both must decode to the run's value and re-encode byte for byte. *)
let old_payloads =
  [
    (None, "0,0,0,0,0,0,0,0 10000000 3 3 112 224 14 0 0 1");
    ( Some { Net.Spec.default with Net.Spec.drop = 0.1; retries = 8 },
      "0,0,0,0,0,0,0,0 10000000 3 3 112 224 14 0 0 1\n\
       drop=0.1,retries=8 115 17 17 0 0 0 0 3 2 18 0,0,0,0,0,0,0,0 . 0 0 1 \
       false" );
  ]

let test_old_payloads_roundtrip () =
  List.iter
    (fun (net, payload) ->
      let spec =
        Run_spec.make ~protocol:"flood" ~n:8 ~t_max:1 ~seed:2
          ~adversary:"crash" ?net ()
      in
      let key = Run_spec.to_string spec in
      let fresh =
        match Run_spec.execute spec with
        | Ok v -> v
        | Error _ -> Alcotest.failf "%s: uncached run failed" key
      in
      with_store (fun _dir open_ ->
          let s = open_ () in
          Cache.Store.add s ~key payload;
          (match Run_spec.execute ~store:s spec with
          | Ok v ->
              if v <> fresh then
                Alcotest.failf "%s: decoded payload differs from the run" key
          | Error _ -> Alcotest.failf "%s: cached run failed" key);
          let st = Cache.Store.stats s in
          Alcotest.(check int) (key ^ ": served from the store") 1
            st.Cache.Stats.hits;
          Alcotest.(check int) (key ^ ": no miss") 0 st.Cache.Stats.misses;
          Cache.Store.close s);
      with_store (fun _dir open_ ->
          let s = open_ () in
          ignore (Run_spec.execute ~store:s spec);
          Alcotest.(check (option string))
            (key ^ ": re-encoded byte for byte")
            (Some payload)
            (Cache.Store.lookup s key);
          Cache.Store.close s))
    old_payloads

(* --- failures are never cached --- *)

let test_failures_not_cached () =
  let cfg = Sim.Config.make ~n:8 ~t_max:1 ~seed:2 ~max_rounds:4 () in
  let inputs = Array.init 8 (fun i -> i mod 2) in
  let run ?budget ?net s key =
    Supervise.run ?budget ?net ~cache:(s, key)
      (Consensus.Flood.protocol_buffered cfg)
      cfg ~adversary:Adversary.none ~inputs
  in
  let failing =
    [
      ( "degraded",
        (fun s ->
          run ~net:(Result.get_ok (Net.Spec.of_string "drop=0.9,retries=0")) s
            "degraded"),
        function Supervise.Degraded _ -> true | _ -> false );
      ( "budget",
        (fun s ->
          run ~budget:(Supervise.Budget.make ~max_rounds:1 ()) s "budget"),
        function Supervise.Budget_exceeded _ -> true | _ -> false );
    ]
  in
  List.iter
    (fun (name, go, expected) ->
      with_store (fun _dir open_ ->
          let s = open_ () in
          for call = 1 to 2 do
            (match go s with
            | Error (kind, _) when expected kind -> ()
            | _ -> Alcotest.failf "%s: expected the run to fail" name);
            Alcotest.(check int)
              (Printf.sprintf "%s call %d: store stays empty" name call)
              0 (Cache.Store.entries s);
            Alcotest.(check int)
              (Printf.sprintf "%s call %d: every call misses" name call)
              call
              (Cache.Store.stats s).Cache.Stats.misses
          done;
          Alcotest.(check int) (name ^ ": nothing written") 0
            (Cache.Store.stats s).Cache.Stats.writes;
          Cache.Store.close s))
    failing

(* --- Supervise.map with a cache --- *)

let test_cached_map_merge () =
  with_store (fun _dir open_ ->
      let s = open_ () in
      let codec = (string_of_int, int_of_string_opt) in
      let key i = Printf.sprintf "map|%d" i in
      (* pre-populate entries 1 and 3 with sentinel values the function
         would never produce: a hit must win over a recompute *)
      Cache.Store.add s ~key:(key 1) "100";
      Cache.Store.add s ~key:(key 3) "300";
      let ran = Array.make 5 false in
      let labels = ref [] in
      let results =
        Supervise.map ~jobs:1 ~cache:(s, key, codec)
          ~describe:(fun i x ->
            labels := (i, x) :: !labels;
            {
              Supervise.d_label = Printf.sprintf "elt-%d" i;
              d_seed = None;
              d_replay = None;
            })
          (fun i ->
            ran.(i) <- true;
            10 * i)
          [| 0; 1; 2; 3; 4 |]
      in
      let got = Array.map (function Ok v -> v | Error _ -> -1) results in
      Alcotest.(check (array int))
        "hits and fresh merge in order"
        [| 0; 100; 20; 300; 40 |]
        got;
      Alcotest.(check (array bool))
        "only misses executed"
        [| true; false; true; false; true |]
        ran;
      (* describe saw the ORIGINAL indices of the misses, not their
         positions in the compacted to-run array *)
      List.iter
        (fun (i, x) ->
          Alcotest.(check int) "describe index = element" x i;
          if not (List.mem i [ 0; 2; 4 ]) then
            Alcotest.failf "describe called for cached element %d" i)
        !labels;
      (* fresh successes were written back *)
      Alcotest.(check (option string))
        "write-back" (Some "40")
        (Cache.Store.lookup s (key 4));
      Cache.Store.close s)

(* --- Run_spec canonical serialization --- *)

let test_run_spec_roundtrip () =
  let specs =
    [
      Run_spec.make ~protocol:"optimal" ~n:31 ~t_max:1 ~seed:7
        ~adversary:"random" ~inputs:"ones" ();
      Run_spec.make ~protocol:"param" ~x:4 ~n:36 ~t_max:1 ~seed:1 ();
      Run_spec.make ~protocol:"flood" ~n:16 ~t_max:2 ~seed:5
        ~net:{ Net.Spec.default with Net.Spec.drop = 0.05 }
        ~budget:
          (Supervise.Budget.make ~wall_s:1.5 ~max_rounds:100
             ~max_messages:100000 ~max_rand_bits:4096 ())
        ();
    ]
  in
  List.iter
    (fun spec ->
      let s = Run_spec.to_string spec in
      match Run_spec.of_string s with
      | Ok spec' ->
          if spec' <> spec then
            Alcotest.failf "roundtrip changed the spec: %s" s;
          Alcotest.(check string)
            "re-serialization is canonical" s
            (Run_spec.to_string spec')
      | Error e -> Alcotest.failf "of_string rejected %S: %s" s e)
    specs;
  (* the canonical string is frozen: a change here invalidates every
     existing cache, so it must be deliberate (bump Cache.fingerprint) *)
  Alcotest.(check string)
    "frozen format"
    "p=optimal n=31 t=1 x=- seed=7 a=random i=ones engine=auto wall=- \
     rounds=- msgs=- rand=- net=-"
    (Run_spec.to_string
       (Run_spec.make ~protocol:"optimal" ~n:31 ~t_max:1 ~seed:7
          ~adversary:"random" ~inputs:"ones" ()));
  (* spec strings written before the [engine] field was dropped — cache
     keys and replay one-liners already on disk — still parse and
     re-serialize byte for byte, so no fingerprint bump is needed *)
  List.iter
    (fun s ->
      match Run_spec.of_string s with
      | Ok spec ->
          Alcotest.(check string) "pre-change spec stable" s
            (Run_spec.to_string spec)
      | Error e -> Alcotest.failf "of_string rejected %S: %s" s e)
    [
      "p=param n=36 t=1 x=4 seed=1 a=none i=mixed engine=auto wall=- \
       rounds=- msgs=- rand=- net=-";
      "p=flood n=16 t=2 x=- seed=5 a=none i=mixed engine=auto \
       wall=0x1.8p+0 rounds=100 msgs=100000 rand=4096 net=drop=0.05";
    ];
  let cmd =
    Run_spec.to_command
      (Run_spec.make ~protocol:"flood" ~n:8 ~t_max:1 ~seed:1 ())
  in
  Alcotest.(check bool)
    "replay one-liner embeds the canonical spec" true
    (contains cmd "run --spec 'p=flood n=8 t=1 ")

let test_run_spec_errors () =
  let err s =
    match Run_spec.of_string s with
    | Ok _ -> Alcotest.failf "of_string accepted %S" s
    | Error e -> e
  in
  Alcotest.(check bool)
    "arity error names the fields" true
    (contains (err "p=flood n=8") "13 space-separated");
  Alcotest.(check bool)
    "unknown adversary lists the table" true
    (contains
       (err
          "p=flood n=8 t=1 x=- seed=1 a=nosuch i=mixed engine=auto wall=- \
           rounds=- msgs=- rand=- net=-")
       "unknown adversary");
  Alcotest.(check bool)
    "bad engine" true
    (contains
       (err
          "p=flood n=8 t=1 x=- seed=1 a=none i=mixed engine=turbo wall=- \
           rounds=- msgs=- rand=- net=-")
       "engine must be auto");
  Alcotest.(check bool)
    "legacy engine rejected" true
    (contains
       (err
          "p=flood n=8 t=1 x=- seed=1 a=none i=mixed engine=legacy wall=- \
           rounds=- msgs=- rand=- net=-")
       "list engine was removed");
  match Run_spec.resolve (Run_spec.make ~protocol:"nope" ~n:8 ~t_max:1 ~seed:1 ()) with
  | Ok _ -> Alcotest.fail "resolved an unknown protocol"
  | Error msg ->
      Alcotest.(check bool) "lists registry" true (contains msg "flood");
      Alcotest.(check bool) "mentions param" true (contains msg "param")

let test_cli_budget_flags () =
  let b =
    Run_spec.Cli.budget_of_flags
      { Run_spec.Cli.wall = 0.; rounds = -1; msgs = 0; rand = 0 }
  in
  Alcotest.(check bool)
    "zero and negative mean unlimited" true
    (b = Supervise.Budget.unlimited);
  let b =
    Run_spec.Cli.budget_of_flags
      { Run_spec.Cli.wall = 2.5; rounds = 10; msgs = 0; rand = 64 }
  in
  Alcotest.(check (option int)) "rounds" (Some 10) b.Supervise.Budget.max_rounds;
  Alcotest.(check (option int)) "msgs off" None b.Supervise.Budget.max_messages;
  Alcotest.(check (option int))
    "rand" (Some 64) b.Supervise.Budget.max_rand_bits;
  Alcotest.(check bool)
    "wall" true
    (b.Supervise.Budget.wall_s = Some 2.5)

(* --- the cache-hit trace event codec --- *)

let test_cache_hit_event_codec () =
  let ev = Trace.Event.Cache_hit { key = "0123abcd0123abcd0123abcd0123abcd" } in
  match Trace.Event.of_json (Trace.Event.to_json ev) with
  | Some ev' -> Alcotest.(check bool) "json roundtrip" true (Trace.Event.equal ev ev')
  | None -> Alcotest.fail "json decode failed"

(* --- fuzz store dedup --- *)

let test_fuzz_store_dedup () =
  let run ~count s =
    match Harness.Fuzz.run ~count ~seed:11 ~jobs:1 ~store:s () with
    | Ok stats -> stats
    | Error (f, _) ->
        Alcotest.failf "fuzz found a violation: %a" Harness.Fuzz.pp_failure f
  in
  (* dedup is invisible in the reported stats *)
  let same_stats what (a : Harness.Fuzz.stats) (b : Harness.Fuzz.stats) =
    Alcotest.(check int) (what ^ ": scenarios") a.scenarios b.scenarios;
    Alcotest.(check int) (what ^ ": runs") a.runs b.runs;
    Alcotest.(check int) (what ^ ": checked") a.checked b.checked;
    Alcotest.(check int)
      (what ^ ": determinism checks")
      a.determinism_checks b.determinism_checks
  in
  let first =
    with_store (fun _dir open_ ->
        let s = open_ () in
        let first = run ~count:12 s in
        (* Stats is the store's live mutable record — copy the counters *)
        let h1 = (Cache.Store.stats s).Cache.Stats.hits
        and w1 = (Cache.Store.stats s).Cache.Stats.writes in
        Alcotest.(check int) "first pass all misses" 0 h1;
        Alcotest.(check int) "every scenario stored" 12 w1;
        let second = run ~count:12 s in
        Alcotest.(check int) "second pass all hits" 12
          ((Cache.Store.stats s).Cache.Stats.hits - h1);
        Alcotest.(check int) "no new writes" w1
          (Cache.Store.stats s).Cache.Stats.writes;
        same_stats "repeat" first second;
        Cache.Store.close s;
        first)
  in
  (* an interrupted soak: half the scenarios reach the store, then the
     full soak is re-run against the same directory and resumes *)
  with_store (fun _dir open_ ->
      let s = open_ () in
      ignore (run ~count:6 s : Harness.Fuzz.stats);
      Cache.Store.close s;
      let s = open_ () in
      let resumed = run ~count:12 s in
      let st = Cache.Store.stats s in
      Alcotest.(check int) "resume: finished half hits" 6 st.Cache.Stats.hits;
      Alcotest.(check int) "resume: rest misses" 6 st.Cache.Stats.misses;
      same_stats "resume" first resumed;
      Cache.Store.close s)

let suite =
  [
    Alcotest.test_case "store roundtrip + reopen" `Quick test_store_roundtrip;
    Alcotest.test_case "corrupt index lines skipped" `Quick
      test_corrupt_index_skipped;
    Alcotest.test_case "torn payload self-repairs" `Quick
      test_torn_payload_self_repair;
    Alcotest.test_case "fingerprint bump invalidates" `Quick
      test_fingerprint_invalidates;
    Alcotest.test_case "concurrent writers tear-free" `Quick
      test_concurrent_writers;
    Alcotest.test_case "hit = recompute, whole registry" `Quick
      test_hit_equals_recompute;
    Alcotest.test_case "hit = recompute with a net spec" `Quick
      test_hit_equals_recompute_net;
    Alcotest.test_case "corrupt entry costs one recompute" `Quick
      test_corrupt_entry_one_recompute;
    Alcotest.test_case "payloads on disk decode + re-encode" `Quick
      test_old_payloads_roundtrip;
    Alcotest.test_case "failures are never cached" `Quick
      test_failures_not_cached;
    Alcotest.test_case "map merges cache hits and misses" `Quick
      test_cached_map_merge;
    Alcotest.test_case "Run_spec canonical roundtrip" `Quick
      test_run_spec_roundtrip;
    Alcotest.test_case "Run_spec rejects malformed specs" `Quick
      test_run_spec_errors;
    Alcotest.test_case "Cli budget flags" `Quick test_cli_budget_flags;
    Alcotest.test_case "cache-hit event codecs" `Quick
      test_cache_hit_event_codec;
    Alcotest.test_case "fuzz store dedup" `Quick test_fuzz_store_dedup;
  ]
