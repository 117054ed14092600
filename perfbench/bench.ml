(* The repository benchmark: one command that runs a named workload from a
   workload seed, checks the outcome of every run it times, and prints the
   end-to-end metrics (untraced pass) or the per-layer metrics (traced
   pass, [--trace 1]) by name with their units. The last line of standard
   output is one JSON object:

     {"correct": b, "attempted": n, "failed": k, "metrics": {...}}

   Usage:
     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Workloads and metric definitions are documented in perfbench/README.md.
   Exit status: 0 when every check passed, 1 when a run or probe check
   failed (the JSON line is still printed), 2 on bad arguments. *)

let now_ns = Probe.now_ns
let s_of_ns ns = float_of_int ns *. 1e-9

(* ---------- small statistics ---------- *)

(* Linear interpolation between order statistics. *)
let quantile q xs =
  match xs with
  | [] -> nan
  | _ ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let i = int_of_float pos in
      if i + 1 >= n then a.(n - 1)
      else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

(* Mean of the largest tenth of the samples (at least one). Unlike a p90
   it does not jump when about a tenth of the samples form a second mode. *)
let top10_mean xs =
  let a = Array.of_list xs in
  Array.sort (fun x y -> Float.compare y x) a;
  let k = Array.length a / 10 in
  if a = [||] then nan
  else if k = 0 then a.(0)
  else Array.fold_left ( +. ) 0. (Array.sub a 0 k) /. float_of_int k

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let sum_int f xs = List.fold_left (fun a x -> a + f x) 0 xs
let fi = float_of_int

let ratio a b = if b = 0 then 0. else fi a /. fi b

let peak_heap_mb () =
  fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. (1024. *. 1024.)

(* ---------- host speed ---------- *)

(* The benchmark host is shared. In its slow phases, which last from
   seconds to minutes, the same OCaml code runs up to 80 % slower, while
   a tight arithmetic loop barely slows and a random walk over a large
   array slows about half as much. So the timed work is interleaved with
   short, fixed calibration chunks of ordinary OCaml — hash-table
   inserts, building and sorting a list of pairs, sorting an array: the
   allocation, pointer-chasing and GC mix the simulator itself runs —
   one at a round boundary (or after a registry scenario) whenever
   [cal_interval_ns] of work has passed since the last. Over two minutes
   of registry runs, chunk time tracked run time with a correlation of
   0.97, and dividing by it cut the spread of run time from 36 % to 7 %.
   Chunk time is left out of every timing, and a run's times are
   reported at the reference host speed: raw time x [reference_chunk_ns]
   / the median time of the chunks nearest to it ([factor_at]). The
   chunks are benchmark code and no repository change touches them, so
   only the host's speed moves the factor. Per-layer times stay raw;
   [host.cal_ms] reports the median chunk time next to them. *)
let cal_interval_ns = 25_000_000

(* Median chunk time on a quiet 2-vCPU, 2.0 GHz host. *)
let reference_chunk_ns = 0.9e6

(* One chunk; returns its duration in ns. Its inputs are fixed, so every
   chunk does the same work. *)
let chunk () =
  let t0 = now_ns () in
  let st = Random.State.make [| 3 |] in
  let h = Hashtbl.create 256 in
  for i = 1 to 1500 do
    Hashtbl.replace h (Random.State.int st 100_000) (i, float_of_int i)
  done;
  let l = List.init 2000 (fun i -> (Random.State.int st 1000, i)) in
  let l = List.sort compare (List.rev_map (fun (a, b) -> (b, a)) l) in
  let a = Array.init 1000 (fun _ -> Random.State.bits st) in
  Array.sort compare a;
  let sum = Hashtbl.fold (fun k (i, _) acc -> acc + k + i) h 0 in
  ignore (Sys.opaque_identity (l, a, sum));
  now_ns () - t0

(* The process's calibration timeline: every chunk, as (start, duration),
   newest first. Chunks run on the main domain only. *)
let timeline = ref []
let last_chunk = ref 0

(* Runs one chunk now; returns the ns spent. *)
let cal_now () =
  let t0 = now_ns () in
  timeline := (t0, chunk ()) :: !timeline;
  last_chunk := now_ns ();
  !last_chunk - t0

(* At a boundary of the timed work: runs a chunk when [cal_interval_ns]
   have passed since the last one; returns the ns spent here, which the
   caller leaves out of its timings. *)
let cal_tick () =
  if now_ns () - !last_chunk < cal_interval_ns then 0 else cal_now ()

(* The timeline so far, oldest chunk first. *)
type host = { at : int array; dur : float array }

let host () =
  let a = Array.of_list (List.rev !timeline) in
  { at = Array.map fst a; dur = Array.map (fun (_, d) -> fi d) a }

let window_chunks = 15

(* The factor that puts a time measured around [t] at reference host
   speed: from the median of the [window_chunks] chunks nearest [t], so
   it follows the host's speed through a run without resting on a
   handful of chunks. *)
let factor_at h t =
  let n = Array.length h.at in
  let rec first_after lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if h.at.(mid) < t then first_after (mid + 1) hi else first_after lo mid
  in
  let w = min n window_chunks in
  let lo = max 0 (min (n - w) (first_after 0 n - (w / 2))) in
  reference_chunk_ns /. median (Array.to_list (Array.sub h.dur lo w))

(* [ns] measured from [t0] to [t0 + ns], at reference host speed *)
let scaled h ~t0 ns = factor_at h (t0 + (ns / 2)) *. fi ns

let cal_ms () = median (List.map (fun (_, d) -> fi d) !timeline) *. 1e-6

(* A few chunks between traced runs, for [host.cal_ms] only. *)
let sample_host () = for _ = 1 to 3 do ignore (cal_now ()) done

(* ---------- failures ---------- *)

(* Outcome failures count towards [failed]; probe-check failures only make
   the result incorrect. Both are reported on stderr. *)
let check_failures = ref []

let check_fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("check failed: " ^ s);
      check_failures := s :: !check_failures)
    fmt

(* ---------- seeds ---------- *)

(* Run [k] of a workload: its seed and inputs are pure functions of the
   workload seed and [k]. *)
let run_rand ~seed k = Sim.Rand.derive (Sim.Rand.create ~seed:(Int64.of_int seed) ()) k
let run_seed ~seed k = Sim.Rand.bits (run_rand ~seed k) 30

let inputs ~seed k n =
  let r = Sim.Rand.derive (run_rand ~seed k) 1 in
  Array.init n (fun _ -> Sim.Rand.bit r)

(* ---------- single-protocol workloads ---------- *)

(* The delivery path a workload must stay on, confirmed by the traced
   pass: compiled per-sender masks (no [omit] call at all), or the
   per-message omission predicate (one [omit] call per message). *)
type path = Masks | Predicate

type single = {
  name : string;
  entry : string;  (** registry id; its [rounds_bound] is [max_rounds] *)
  n : int;
  t_max : int;
  build : Sim.Config.t -> Sim.Protocol_intf.buffered;
  adversary : Sim.Adversary_intf.t;
  net : Net.Spec.t option;
  path : path;
  min_runs : int;
      (** always executed; the deterministic Table 1 columns are averaged
          over exactly these runs *)
}

let net_spec =
  match Net.Spec.of_string "drop=0.01,retries=8" with
  | Ok s -> s
  | Error e -> failwith e

let voting_core =
  {
    name = "voting-core";
    entry = "optimal";
    n = 256;
    t_max = 8;
    build = (fun cfg -> Consensus.Optimal_omissions.protocol_buffered cfg);
    adversary = Adversary.vote_splitter ();
    net = None;
    path = Masks;
    min_runs = 5;
  }

let broadcast_flood =
  {
    name = "broadcast-flood";
    entry = "flood";
    n = 4096;
    t_max = 132;
    build = Consensus.Flood.protocol_buffered;
    adversary = Adversary.crash_schedule [ (1, [ 0 ]); (2, [ 1 ]); (5, [ 2; 3 ]) ];
    net = None;
    path = Masks;
    min_runs = 10;
  }

let lossy_omissions =
  {
    name = "lossy-omissions";
    entry = "phase-king";
    n = 512;
    t_max = 16;
    build = Consensus.Phase_king.protocol_buffered;
    adversary = Adversary.random_omission ~p_omit:0.7;
    net = Some net_spec;
    path = Predicate;
    min_runs = 3;
  }

let registry_entry id =
  match Harness.Registry.find id with Ok e -> e | Error msg -> failwith msg

let config w ~seed k =
  let cfg0 =
    Sim.Config.make ~seed:(run_seed ~seed k) ~n:w.n ~t_max:w.t_max ()
  in
  {
    cfg0 with
    Sim.Config.max_rounds =
      Harness.Registry.rounds_bound (registry_entry w.entry) cfg0;
  }

type prepared = {
  cfg : Sim.Config.t;
  inst : Sim.Engine.instance;
  transport : Net.Transport.t option;
  inputs : int array;
  build_ns : int;
  instance_ns : int;
  create_ns : int;
}

let setup_ns pr = pr.build_ns + pr.instance_ns + pr.create_ns

(* Set-up: protocol build, [Engine.instance], [Net.Transport.create]. *)
let prepare ?probe w ~seed k =
  let cfg = config w ~seed k in
  let inputs = inputs ~seed k w.n in
  let t0 = now_ns () in
  let proto = w.build cfg in
  let t1 = now_ns () in
  let proto =
    match probe with None -> proto | Some p -> Probe.protocol p proto
  in
  let inst = Sim.Engine.instance proto cfg in
  let t2 = now_ns () in
  let transport = Option.map (fun spec -> Net.Transport.create spec cfg) w.net in
  let t3 = now_ns () in
  {
    cfg;
    inst;
    transport;
    inputs;
    build_ns = t1 - t0;
    instance_ns = t2 - t1;
    create_ns = (if w.net = None then 0 else t3 - t2);
  }

type run = {
  outcome : Sim.Engine.outcome option;  (** [None]: the run raised *)
  run_ns : int;
  round_ns : int array;  (** [round_ns.(r - 1)]: wall time of round [r] *)
  round_t0 : int array;  (** [round_t0.(r - 1)]: when round [r] started *)
  failure : string option;
  net_stats : Net.Transport.stats option;
}

let run_failure (cfg : Sim.Config.t) (o : Sim.Engine.outcome) transport =
  let disagreement =
    match transport with
    | None ->
        if Sim.Engine.agreed_decision o = None then Some "disagreement"
        else None
    | Some tr ->
        let d =
          Net.Degradation.of_transport tr ~faulty:o.faulty ~t_max:cfg.t_max
        in
        if d.Net.Degradation.beyond_model then
          Some (Format.asprintf "beyond_model: %a" Net.Degradation.pp d)
        else if Net.Degradation.agreed_decision d o = None then
          Some (Format.asprintf "disagreement: %a" Net.Degradation.pp d)
        else None
  in
  if o.faults_used > cfg.t_max then
    Some (Printf.sprintf "faults_used %d > t %d" o.faults_used cfg.t_max)
  else if o.decided_round = None then
    Some
      (Printf.sprintf "no decision within Registry.rounds_bound (%d rounds)"
         cfg.max_rounds)
  else disagreement

(* One engine run. Round boundaries come from the [?stop] hook, which the
   engine consults after every round without changing its delivery path;
   with [cal], the hook also runs the calibration chunks, whose time is
   left out of the round and run times. *)
let execute ?probe ?trace ?(cal = false) w pr =
  let stamps = Array.make (pr.cfg.max_rounds + 2) 0 in
  (* [resume.(r)]: when round [r + 1] started *)
  let resume = Array.make (pr.cfg.max_rounds + 2) 0 in
  let stop (p : Sim.Engine.progress) =
    let t = now_ns () in
    stamps.(p.p_round) <- t;
    resume.(p.p_round) <- (if cal then t + cal_tick () else t);
    false
  in
  let link =
    Option.map
      (fun tr ->
        let l = Net.Transport.link tr in
        match probe with None -> l | Some p -> Probe.link p l)
      pr.transport
  in
  let adversary =
    match probe with None -> w.adversary | Some p -> Probe.adversary p w.adversary
  in
  let t0 = now_ns () in
  resume.(0) <- t0;
  match
    Sim.Engine.run_instance ~stop ?trace ?link pr.inst ~adversary
      ~inputs:pr.inputs
  with
  | exception e ->
      {
        outcome = None;
        run_ns = now_ns () - t0;
        round_ns = [||];
        round_t0 = [||];
        failure = Some ("exception: " ^ Printexc.to_string e);
        net_stats = None;
      }
  | o ->
      let t1 = now_ns () in
      stamps.(o.rounds_total) <- t1;
      let round_ns =
        Array.init o.rounds_total (fun i -> stamps.(i + 1) - resume.(i))
      in
      {
        outcome = Some o;
        run_ns = Array.fold_left ( + ) 0 round_ns;
        round_ns;
        round_t0 = Array.sub resume 0 o.rounds_total;
        failure = run_failure pr.cfg o pr.transport;
        net_stats = Option.map Net.Transport.stats pr.transport;
      }

let report_failure name k (r : run) =
  match r.failure with
  | None -> ()
  | Some f -> Printf.eprintf "%s run %d failed: %s\n%!" name k f

(* Keep going while the next run is expected to fit the budget; never
   fewer than [min] iterations. *)
let within_budget ~start ~budget_ns ~min ~done_ ~iter_ns =
  done_ < min
  || now_ns () - start + int_of_float (median (List.map fi iter_ns))
     <= budget_ns

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type result = {
  attempted : int;
  failed : int;
  metrics : metric list;
  spans : string list;  (** JSON lines written out at exit *)
}

(* set-ups per process; a registry set-up is a whole-pass sweep *)
let min_setups = 25
let setup_budget_ns = 500_000_000
let registry_setups = 7

(* Set-up time, apart from the runs: at least [min_setups] set-ups and
   [setup_budget_ns], each from a collected heap (without it, the median
   mostly measured the major-GC debt the runs left behind, and spread
   18 % across seeds), with calibration chunks between them; the median,
   in seconds at reference host speed. *)
let setup_phase w ~seed ~from =
  let t_end = now_ns () + setup_budget_ns in
  let samples = ref [] and k = ref 0 in
  while !k < min_setups || now_ns () < t_end do
    Gc.full_major ();
    let t0 = now_ns () in
    samples := (t0, setup_ns (prepare w ~seed (from + !k))) :: !samples;
    incr k;
    ignore (cal_tick ())
  done;
  let h = host () in
  median (List.map (fun (t0, ns) -> scaled h ~t0 ns) !samples) *. 1e-9

let measure_single w ~seed ~seconds =
  let budget_ns = seconds * 1_000_000_000 in
  let start = now_ns () in
  (* warm-up: the process's first run pays heap growth; it is checked
     but not timed *)
  Gc.full_major ();
  let warm = execute w (prepare w ~seed 0) in
  report_failure w.name 0 warm;
  (* timed runs, with calibration chunks between their rounds *)
  let timed = ref [] and walls = ref [] in
  let k = ref 0 in
  while
    within_budget ~start ~budget_ns ~min:w.min_runs ~done_:!k ~iter_ns:!walls
  do
    Gc.full_major ();
    let t0 = now_ns () in
    let pr = prepare w ~seed !k in
    let r = execute ~cal:true w pr in
    walls := (now_ns () - t0) :: !walls;
    report_failure w.name !k r;
    incr k;
    timed := (r, t0, setup_ns pr) :: !timed
  done;
  (* the heap's high-water mark over all runs: one run's varies by about
     10 % with where its major cycles fall *)
  let heap = peak_heap_mb () in
  let h = host () in
  (* each run with its rounds and its set-up at reference host speed, ns *)
  let runs =
    List.rev_map
      (fun (r, t0, setup) ->
        let rounds =
          Array.mapi (fun i ns -> scaled h ~t0:r.round_t0.(i) ns) r.round_ns
        in
        (r, rounds, scaled h ~t0 setup))
      !timed
  in
  let run_ns (_, rounds, _) = Array.fold_left ( +. ) 0. rounds in
  let setup_s = setup_phase w ~seed ~from:!k in
  let ok = List.filter_map (fun (r, _, _) -> r.outcome) runs in
  let first = List.filteri (fun i _ -> i < w.min_runs) ok in
  let per_run f = mean (List.map (fun o -> fi (f o)) first) in
  let round_ms =
    List.concat_map
      (fun (_, rounds, _) -> Array.to_list (Array.map (fun ns -> ns *. 1e-6) rounds))
      runs
  in
  let run_s = List.map (fun x -> run_ns x *. 1e-9) runs in
  let per_msg =
    List.filter_map
      (fun ((r, _, _) as x) ->
        match r.outcome with
        | Some o when o.messages_sent > 0 -> Some (run_ns x /. fi o.messages_sent)
        | _ -> None)
      runs
  in
  let work_s =
    List.fold_left (fun a ((_, _, setup) as x) -> a +. ((setup +. run_ns x) *. 1e-9)) 0. runs
  in
  let checked = warm :: List.map (fun (r, _, _) -> r) runs in
  {
    attempted = List.length checked;
    failed = List.length (List.filter (fun r -> r.failure <> None) checked);
    metrics =
      [
        m "run_s_p50" "s" (median run_s);
        m "round_ms_mean" "ms" (mean round_ms);
        m "round_ms_top10" "ms" (top10_mean round_ms);
        m "ns_per_msg" "ns" (median per_msg);
        m "runs_per_s" "1/s" (fi (List.length runs) /. work_s);
        m "run_ms_p99" "ms" (1e3 *. quantile 0.99 run_s);
        m "setup_s" "s" setup_s;
        m "peak_heap_mb" "MB" heap;
        m "msgs_per_run" "count" (per_run (fun o -> o.messages_sent));
        m "bits_per_run" "bits" (per_run (fun o -> o.bits_sent));
        m "rounds_to_decide" "rounds"
          (per_run (fun o -> Option.value o.decided_round ~default:0));
      ];
    spans = [];
  }

(* ---------- traced pass, single-protocol workloads ---------- *)

(* Step-time attribution by paper component: index 0 aggregation (Alg. 2),
   1 spreading (Alg. 3), 2 line-14 broadcast, 3 phase-king fallback, 4
   none (protocols outside the paper's Algorithm 1). Voting rounds are
   classified by the schedule of a [Core.make_shared] built with the run's
   arguments; every later round is fallback (optimal_omissions.ml). *)
let components = [| "aggregation"; "spreading"; "broadcast"; "phase_king"; "none" |]

let classifier w (cfg : Sim.Config.t) =
  match w.entry with
  | "optimal" ->
      let shared =
        Consensus.Core.make_shared
          ~members:(Array.init cfg.n Fun.id)
          ~seed:cfg.seed ~params:Consensus.Params.default ~t_max:cfg.t_max ()
      in
      let v = Consensus.Core.rounds shared in
      let classify r =
        if r > v then 3
        else
          match shared.Consensus.Core.schedule.(r - 1) with
          | Consensus.Core.Agg_a _ | Agg_b _ | Agg_c _ -> 0
          | Spread _ -> 1
          | Bcast -> 2
      in
      (classify, Some v)
  | "phase-king" -> ((fun _ -> 3), None)
  | _ -> ((fun _ -> 4), None)

type traced = {
  run : run;
  steps : int;  (** step time, ns *)
  comp : int array;  (** step time per component, ns *)
  plan : int;
  transmit : int;
  self : int;  (** round time minus step, plan and transmit time *)
  step_calls : int;
  plan_calls : int;
  compiled_plans : int;
  omit_calls : int;
  transmit_calls : int;
  build : int;
  instance : int;
  create : int;
  first_decide : int;
  core_rounds : int option;  (** [Core.rounds] of the classifier *)
}

(* [span] receives one JSON line per round of the run. *)
let snapshot ~classify ~core_rounds ~span (p : Probe.t) pr (r : run) =
  let comp = Array.make (Array.length components) 0 in
  let self = ref 0 in
  Array.iteri
    (fun i rn ->
      let round = i + 1 in
      let st = Probe.Per_round.get p.step round
      and pl = Probe.Per_round.get p.plan round
      and tx = Probe.Per_round.get p.transmit round in
      let c = classify round in
      comp.(c) <- comp.(c) + st;
      self := !self + (rn - st - pl - tx);
      span
        (Printf.sprintf
           {|"round":%d,"component":"%s","round_ns":%d,"step_ns":%d,"plan_ns":%d,"transmit_ns":%d,"self_ns":%d}|}
           round components.(c) rn st pl tx (rn - st - pl - tx)))
    r.round_ns;
  {
    run = r;
    steps = Probe.Per_round.total p.step;
    comp;
    plan = Probe.Per_round.total p.plan;
    transmit = Probe.Per_round.total p.transmit;
    self = !self;
    step_calls = p.step_calls;
    plan_calls = p.plan_calls;
    compiled_plans = p.compiled_plans;
    omit_calls = p.omit_calls;
    transmit_calls = p.transmit_calls;
    build = pr.build_ns;
    instance = pr.instance_ns;
    create = pr.create_ns;
    first_decide = p.first_decide;
    core_rounds;
  }

(* Per-layer metric list, in BENCHMARK.json order; workloads fill what
   they measure and leave the rest at 0. *)
let layer_names =
  [
    ("consensus.step_s", "s");
    ("consensus.step_calls", "count");
    ("consensus.core.aggregation_s", "s");
    ("consensus.core.spreading_s", "s");
    ("consensus.core.broadcast_s", "s");
    ("consensus.phase_king_s", "s");
    ("consensus.build_s", "s");
    ("consensus.rand_bits_per_run", "bits");
    ("adversary.plan_s", "s");
    ("adversary.plan_calls", "count");
    ("adversary.omit_calls", "count");
    ("adversary.compiled_share", "ratio");
    ("sim.round_s", "s");
    ("sim.rounds", "rounds");
    ("sim.deliver_s", "s");
    ("sim.instance_s", "s");
    ("net.transmit_s", "s");
    ("net.transmit_calls", "count");
    ("net.retransmits", "count");
    ("net.residual", "count");
    ("net.first_try_share", "ratio");
    ("net.create_s", "s");
    ("harness.generate_s", "s");
    ("harness.run_entry_s", "s");
    ("harness.runs", "count");
    ("harness.violations", "count");
    ("exec.busy_s", "s");
    ("exec.wait_s", "s");
    ("exec.utilisation", "ratio");
    ("trace.overhead_ratio", "ratio");
    ("probe.overhead_ratio", "ratio");
    ("gc.minor_words_per_round", "words/round");
    ("gc.major_collections", "count");
    ("host.cal_ms", "ms");
  ]

let layer_metrics values =
  List.map
    (fun (name, unit_) ->
      let value = Option.value (List.assoc_opt name values) ~default:0. in
      { name; value; unit_ })
    layer_names

let outcome_equal a b =
  match (a.outcome, b.outcome) with Some x, Some y -> x = y | _ -> false

(* GC work of one untraced run, measured from a collected heap. *)
let gc_of_run w ~seed =
  Gc.full_major ();
  let pr = prepare w ~seed 0 in
  let s0 = Gc.quick_stat () in
  let r = execute w pr in
  let s1 = Gc.quick_stat () in
  let rounds = max 1 (Array.length r.round_ns) in
  ( r,
    (s1.Gc.minor_words -. s0.Gc.minor_words) /. fi rounds,
    s1.Gc.major_collections - s0.Gc.major_collections )

let trace_single w ~seed ~seconds =
  let budget_ns = seconds * 1_000_000_000 in
  let start = now_ns () in
  let spans = ref [] in
  (* untraced reference: the first seed, for probe neutrality and the
     overhead ratios *)
  let reference, minor_per_round, majors = gc_of_run w ~seed in
  report_failure w.name 0 reference;
  sample_host ();
  (* the overhead baseline is a second untraced run, made right after the
     first traced one, so neither pays the process's first heap growth *)
  let baseline = ref reference in
  let probe = Probe.create () in
  let traced = ref [] and iters = ref [] in
  let k = ref 0 in
  while within_budget ~start ~budget_ns ~min:1 ~done_:!k ~iter_ns:!iters do
    Gc.full_major ();
    let t0 = now_ns () in
    Probe.reset probe;
    let pr = prepare ~probe w ~seed !k in
    let classify, core_rounds = classifier w pr.cfg in
    let r = execute ~probe w pr in
    report_failure w.name !k r;
    let prefix = Printf.sprintf {|{"workload":"%s","run":%d,|} w.name !k in
    let span fields = spans := (prefix ^ fields) :: !spans in
    traced := snapshot ~classify ~core_rounds ~span probe pr r :: !traced;
    sample_host ();
    iters := (now_ns () - t0) :: !iters;
    if !k = 0 then begin
      Gc.full_major ();
      baseline := execute w (prepare w ~seed 0);
      report_failure w.name 0 !baseline
    end;
    incr k
  done;
  let traced = List.rev !traced in
  let first = List.hd traced in
  (* probe neutrality *)
  if not (outcome_equal first.run reference) then
    check_fail "%s: traced outcome differs from the untraced outcome"
      w.name;
  List.iter
    (fun t ->
      (* path confirmation *)
      (match (w.path, t.run.outcome) with
      | _, None -> ()
      | Masks, Some _ ->
          if t.omit_calls <> 0 || t.compiled_plans <> t.plan_calls then
            check_fail
              "%s left the compiled-mask path (omit calls %d, compiled plans \
               %d of %d)"
              w.name t.omit_calls t.compiled_plans t.plan_calls
      | Predicate, Some o ->
          if t.omit_calls <> o.messages_sent then
            check_fail
              "%s left the per-message predicate path (omit calls %d, \
               messages %d)"
              w.name t.omit_calls o.messages_sent);
      (* voting: attribution adds up, classification matches the run *)
      match t.core_rounds with
      | None -> ()
      | Some v ->
          let comp_sum = Array.fold_left ( + ) 0 t.comp in
          if abs (comp_sum - t.steps) > 1000 then
            check_fail "%s: components sum to %d ns, step time %d ns" w.name
              comp_sum t.steps;
          let p = Consensus.Phase_king.rounds ~t_max:w.t_max in
          if not (List.mem t.first_decide [ v + 1; v + p + 1; v + p + 2 ])
          then
            check_fail
              "%s: first decision at round %d, but Core.rounds = %d puts \
               decisions at %d, %d or %d"
              w.name t.first_decide v (v + 1) (v + p + 1) (v + p + 2))
    traced;
  (* trace-sink overhead, on the workload already on the general path *)
  let trace_ratio =
    if w.net = None then 0.
    else begin
      Gc.full_major ();
      let pr = prepare w ~seed 0 in
      let sink, _summary = Trace.Metrics.collector () in
      let r = execute ~trace:sink w pr in
      if not (outcome_equal r reference) then
        check_fail "%s: outcome with a trace sink differs" w.name;
      fi r.run_ns /. fi !baseline.run_ns
    end
  in
  let n = fi (List.length traced) in
  let avg f = fi (sum_int f traced) /. n in
  let avg_s f = avg f *. 1e-9 in
  let outcomes = List.filter_map (fun t -> t.run.outcome) traced in
  let stats = List.filter_map (fun t -> t.run.net_stats) traced in
  let sum_stats f = sum_int f stats in
  let attempts = sum_stats (fun s -> s.Net.Transport.attempts) in
  let values =
    [
      ("consensus.step_s", avg_s (fun t -> t.steps));
      ("consensus.step_calls", avg (fun t -> t.step_calls));
      ("consensus.core.aggregation_s", avg_s (fun t -> t.comp.(0)));
      ("consensus.core.spreading_s", avg_s (fun t -> t.comp.(1)));
      ("consensus.core.broadcast_s", avg_s (fun t -> t.comp.(2)));
      ("consensus.phase_king_s", avg_s (fun t -> t.comp.(3)));
      ("consensus.build_s", avg_s (fun t -> t.build));
      ( "consensus.rand_bits_per_run",
        mean (List.map (fun o -> fi o.Sim.Engine.rand_bits) outcomes) );
      ("adversary.plan_s", avg_s (fun t -> t.plan));
      ("adversary.plan_calls", avg (fun t -> t.plan_calls));
      ("adversary.omit_calls", avg (fun t -> t.omit_calls));
      ( "adversary.compiled_share",
        ratio
          (sum_int (fun t -> t.compiled_plans) traced)
          (sum_int (fun t -> t.plan_calls) traced) );
      ( "sim.round_s",
        avg_s (fun t -> Array.fold_left ( + ) 0 t.run.round_ns) );
      ("sim.rounds", avg (fun t -> Array.length t.run.round_ns));
      ("sim.deliver_s", avg_s (fun t -> t.self));
      ("sim.instance_s", avg_s (fun t -> t.instance));
      ("net.transmit_s", avg_s (fun t -> t.transmit));
      ("net.transmit_calls", avg (fun t -> t.transmit_calls));
      ( "net.retransmits",
        fi (sum_stats (fun s -> s.Net.Transport.retransmits)) /. n );
      ("net.residual", fi (sum_stats (fun s -> s.Net.Transport.residual)) /. n);
      ( "net.first_try_share",
        ratio (attempts - sum_stats (fun s -> s.Net.Transport.retransmits)) attempts
      );
      ("net.create_s", avg_s (fun t -> t.create));
      ("trace.overhead_ratio", trace_ratio);
      ("probe.overhead_ratio", fi first.run.run_ns /. fi !baseline.run_ns);
      ("gc.minor_words_per_round", minor_per_round);
      ("gc.major_collections", fi majors);
      ("host.cal_ms", cal_ms ());
    ]
  in
  let runs =
    reference
    :: (if !baseline == reference then [] else [ !baseline ])
    @ List.map (fun t -> t.run) traced
  in
  {
    attempted = List.length runs;
    failed = List.length (List.filter (fun r -> r.failure <> None) runs);
    metrics = layer_metrics values;
    spans = List.rev !spans;
  }

(* ---------- registry-campaign ---------- *)

(* Timed passes run on one domain. On two domains of this 2-vCPU shared
   host each run took about 40 % longer and its median spread three times
   as far between passes: the timings measured the other domain's GC
   synchronisation and the host's scheduler, not the runs. The traced
   pass keeps the pool at two domains, as [Harness.Fuzz.run] uses it, so
   the [exec.*] metrics measure a real fan-out. *)
let timed_jobs = 1
let traced_jobs = 2
let registry_min_passes = 2

(* Scenarios come from [Harness.Scenario.generate] (n in 4..40) rooted at
   the workload seed, as in [Harness.Fuzz.run]; they are taken in stream
   order but one per (n, crash model, fault budget in the lower or upper
   half of its range) stratum, so every seed runs the same mix of system
   sizes, fault models and budgets and only the strategies, exact
   budgets, seeds and inputs differ. Timed pass [k] runs set [k], so
   passes average over more strategy draws; every other use takes set
   0. *)
let max_n = 40

let stratum (s : Harness.Scenario.t) =
  (* [Scenario.generate] draws [t_max] below this *)
  let range = max 1 (min (s.n - 1) (1 + (s.n / 4))) in
  (s.n, Harness.Strategy.crash_compatible s.strategy, 2 * s.t_max >= range)

let scenarios ?(set = 0) ~seed () =
  let root = Sim.Rand.derive (Sim.Rand.create ~seed:(Int64.of_int seed) ()) set in
  let seen = Hashtbl.create 256 in
  let want = (max_n - 3) * 2 * 2 in
  let out = ref [] and i = ref 0 in
  while Hashtbl.length seen < want do
    let s = Harness.Scenario.generate ~max_n (Sim.Rand.derive root !i) in
    if not (Hashtbl.mem seen (stratum s)) then begin
      Hashtbl.add seen (stratum s) ();
      out := s :: !out
    end;
    incr i
  done;
  Array.of_list (List.rev !out)

(* The registry entries [Runner.run] would execute on a scenario. *)
let entries_for (s : Harness.Scenario.t) =
  List.filter
    (fun e ->
      s.Harness.Scenario.n >= e.Harness.Registry.min_n
      && Harness.Registry.in_model e s)
    Harness.Registry.all

type entry_run = {
  id : string;
  result : Harness.Runner.run_result;
  t0 : int;
  ns : int;
}

type task = {
  index : int;
  wait_ns : int;  (** task start minus its [Exec.map] call *)
  busy_ns : int;
  start_ns : int;
  runs : entry_run list;
  probe : Probe.t option;
}

type pass = { t0 : int; wall_ns : int; generate_ns : int; tasks : task list }

(* One campaign pass: generate the scenarios, then run every in-model
   registry entry on each, fanned over [jobs] domains in batches of
   [jobs * 4] — the loop [Harness.Fuzz.run] uses. With [cal] (on one
   domain only), each task ends with a calibration chunk, outside its
   timings. *)
let registry_pass ?(probe = false) ?(cal = false) ?set ~jobs ~seed () =
  let t0 = now_ns () in
  let sc = scenarios ?set ~seed () in
  let t1 = now_ns () in
  let count = Array.length sc in
  let batch = jobs * 4 in
  let tasks = ref [] in
  let lo = ref 0 in
  while !lo < count do
    let hi = min count (!lo + batch) in
    let idx = Array.init (hi - !lo) (fun k -> !lo + k) in
    let t_call = now_ns () in
    let results =
      Exec.map ~jobs
        (fun i ->
          let ts = now_ns () in
          let p = if probe then Some (Probe.create ()) else None in
          let runs =
            List.map
              (fun (e : Harness.Registry.entry) ->
                let e' = match p with Some p -> Probe.entry p e | None -> e in
                let a = now_ns () in
                let result = Harness.Runner.run_entry e' sc.(i) in
                { id = e.id; result; t0 = a; ns = now_ns () - a })
              (entries_for sc.(i))
          in
          let busy_ns = now_ns () - ts in
          if cal then ignore (cal_now ());
          {
            index = i;
            wait_ns = ts - t_call;
            busy_ns;
            start_ns = ts - t0;
            runs;
            probe = p;
          })
        idx
    in
    tasks := List.rev_append (Array.to_list results) !tasks;
    lo := hi
  done;
  { t0; wall_ns = now_ns () - t0; generate_ns = t1 - t0; tasks = List.rev !tasks }

let pass_runs p = List.concat_map (fun t -> t.runs) p.tasks
let run_failed r = r.result.Harness.Runner.violations <> []

let report_registry_failures p =
  List.iter
    (fun t ->
      List.iter
        (fun r ->
          List.iter
            (fun v ->
              Printf.eprintf "registry-campaign scenario %d: %s\n%!" t.index
                (Format.asprintf "%a" Harness.Runner.pp_violation v))
            r.result.Harness.Runner.violations)
        t.runs)
    p.tasks

(* Per-run set-up over a whole pass: build every (scenario, entry) pair's
   protocol and engine instance, serially, with a calibration chunk after
   each scenario; seconds per run at reference host speed. *)
let registry_setup ~seed =
  let sc = scenarios ~seed () in
  let samples = ref [] in
  Array.iter
    (fun s ->
      List.iter
        (fun (e : Harness.Registry.entry) ->
          match e.buffered with
          | None -> ()
          | Some build ->
              let cfg = Harness.Runner.config_for e s in
              let t0 = now_ns () in
              let inst = Sim.Engine.instance (build cfg) cfg in
              samples := (t0, now_ns () - t0) :: !samples;
              ignore (Sys.opaque_identity inst))
        (entries_for s);
      ignore (cal_now ()))
    sc;
  let h = host () in
  List.fold_left (fun a (t0, ns) -> a +. scaled h ~t0 ns) 0. !samples
  *. 1e-9
  /. fi (max 1 (List.length !samples))

let msgs r =
  match r.result.Harness.Runner.outcome with
  | Some o -> o.Sim.Engine.messages_sent
  | None -> 0

let measure_registry ~seed ~seconds =
  let budget_ns = seconds * 1_000_000_000 in
  let start = now_ns () in
  (* warm-up: the scenarios with the largest n; checked but not timed *)
  Gc.full_major ();
  let warm =
    List.concat_map
      (fun (s : Harness.Scenario.t) ->
        if s.n < max_n then []
        else List.map (fun e -> Harness.Runner.run_entry e s) (entries_for s))
      (Array.to_list (scenarios ~seed ()))
  in
  List.iter
    (fun (r : Harness.Runner.run_result) ->
      List.iter
        (fun v ->
          Printf.eprintf "registry-campaign warm-up: %s\n%!"
            (Format.asprintf "%a" Harness.Runner.pp_violation v))
        r.violations)
    warm;
  let passes = ref [] in
  while
    within_budget ~start ~budget_ns ~min:registry_min_passes
      ~done_:(List.length !passes)
      ~iter_ns:(List.map (fun p -> p.wall_ns) !passes)
  do
    Gc.full_major ();
    let set = List.length !passes in
    let p = registry_pass ~cal:true ~set ~jobs:timed_jobs ~seed () in
    report_registry_failures p;
    passes := p :: !passes
  done;
  let passes = List.rev !passes in
  (* the heap's high-water mark over the warm-up and all passes *)
  let heap = peak_heap_mb () in
  let setups =
    List.init registry_setups (fun _ ->
        Gc.full_major ();
        registry_setup ~seed)
  in
  let h = host () in
  (* a run's time at reference host speed, ns *)
  let run_ns (r : entry_run) = scaled h ~t0:r.t0 r.ns in
  let runs = List.concat_map pass_runs passes in
  let run_s = List.map (fun r -> run_ns r *. 1e-9) runs in
  let rounds r =
    match r.result.Harness.Runner.outcome with
    | Some o -> o.rounds_total
    | None -> 0
  in
  let round_ms =
    List.filter_map
      (fun r ->
        if rounds r > 0 then Some (run_ns r *. 1e-6 /. fi (rounds r)) else None)
      runs
  in
  let outcomes =
    List.filter_map
      (fun r -> r.result.Harness.Runner.outcome)
      (pass_runs (List.hd passes))
  in
  let per_run f = mean (List.map (fun o -> fi (f o)) outcomes) in
  let per_pass f = median (List.map f passes) in
  let sum_f f xs = List.fold_left (fun a x -> a +. f x) 0. xs in
  {
    attempted = List.length warm + List.length runs;
    failed =
      List.length
        (List.filter (fun (r : Harness.Runner.run_result) -> r.violations <> []) warm)
      + List.length (List.filter run_failed runs);
    metrics =
      [
        m "run_s_p50" "s" (median run_s);
        m "round_ms_mean" "ms"
          (List.fold_left ( +. ) 0. run_s *. 1e3 /. fi (sum_int rounds runs));
        m "round_ms_top10" "ms" (top10_mean round_ms);
        m "ns_per_msg" "ns"
          (per_pass (fun p ->
               sum_f run_ns (pass_runs p)
               /. fi (max 1 (sum_int msgs (pass_runs p)))));
        m "runs_per_s" "1/s"
          (per_pass (fun p ->
               let busy t = scaled h ~t0:(p.t0 + t.start_ns) t.busy_ns in
               fi (List.length (pass_runs p)) /. (sum_f busy p.tasks *. 1e-9)));
        m "run_ms_p99" "ms" (1e3 *. quantile 0.99 run_s);
        m "setup_s" "s" (median setups);
        m "peak_heap_mb" "MB" heap;
        m "msgs_per_run" "count" (per_run (fun o -> o.Sim.Engine.messages_sent));
        m "bits_per_run" "bits" (per_run (fun o -> o.Sim.Engine.bits_sent));
        m "rounds_to_decide" "rounds"
          (per_run (fun o ->
               Option.value o.Sim.Engine.decided_round ~default:o.rounds_total));
      ];
    spans = [];
  }

let trace_registry ~seed =
  (* untraced reference pass: probe neutrality, overhead, GC *)
  Gc.full_major ();
  let s0 = Gc.quick_stat () in
  let reference = registry_pass ~jobs:traced_jobs ~seed () in
  let s1 = Gc.quick_stat () in
  report_registry_failures reference;
  Gc.full_major ();
  sample_host ();
  let traced = registry_pass ~probe:true ~jobs:traced_jobs ~seed () in
  report_registry_failures traced;
  let ref_runs = pass_runs reference and tr_runs = pass_runs traced in
  if
    List.length ref_runs <> List.length tr_runs
    || not
         (List.for_all2
            (fun a b ->
              a.id = b.id
              && a.result.Harness.Runner.outcome = b.result.Harness.Runner.outcome)
            ref_runs tr_runs)
  then check_fail "registry-campaign: traced outcomes differ from untraced";
  let probes = List.filter_map (fun t -> t.probe) traced.tasks in
  let psum f = sum_int f probes in
  let tasks = traced.tasks in
  let busy = sum_int (fun t -> t.busy_ns) tasks in
  let rounds =
    sum_int
      (fun r ->
        match r.result.Harness.Runner.outcome with
        | Some o -> o.rounds_total
        | None -> 0)
      ref_runs
  in
  let outcomes =
    List.filter_map (fun r -> r.result.Harness.Runner.outcome) tr_runs
  in
  let values =
    [
      ("consensus.step_s", s_of_ns (psum (fun p -> Probe.Per_round.total p.step)));
      ("consensus.step_calls", fi (psum (fun p -> p.step_calls)));
      ("consensus.build_s", s_of_ns (psum (fun p -> p.build_ns)));
      ( "consensus.rand_bits_per_run",
        mean (List.map (fun o -> fi o.Sim.Engine.rand_bits) outcomes) );
      ("harness.generate_s", s_of_ns traced.generate_ns);
      ("harness.run_entry_s", s_of_ns (sum_int (fun r -> r.ns) tr_runs));
      ("harness.runs", fi (List.length tr_runs));
      ("harness.violations", fi (List.length (List.filter run_failed tr_runs)));
      ("exec.busy_s", s_of_ns busy);
      ( "exec.wait_s",
        s_of_ns (sum_int (fun t -> t.wait_ns) tasks) /. fi (List.length tasks) );
      ("exec.utilisation", fi busy /. (fi traced_jobs *. fi traced.wall_ns));
      ("probe.overhead_ratio", fi traced.wall_ns /. fi reference.wall_ns);
      ( "gc.minor_words_per_round",
        (s1.Gc.minor_words -. s0.Gc.minor_words) /. fi (max 1 rounds) );
      ("gc.major_collections", fi (s1.Gc.major_collections - s0.Gc.major_collections));
      ("host.cal_ms", cal_ms ());
    ]
  in
  let spans =
    List.concat_map
      (fun t ->
        Printf.sprintf
          {|{"workload":"registry-campaign","task":%d,"layer":"exec.task","start_ns":%d,"busy_ns":%d,"wait_ns":%d}|}
          t.index t.start_ns t.busy_ns t.wait_ns
        :: List.map
             (fun r ->
               Printf.sprintf
                 {|{"workload":"registry-campaign","task":%d,"layer":"harness.run_entry","protocol":"%s","ns":%d}|}
                 t.index r.id r.ns)
             t.runs)
      tasks
  in
  let all = ref_runs @ tr_runs in
  {
    attempted = List.length all;
    failed = List.length (List.filter run_failed all);
    metrics = layer_metrics values;
    spans;
  }

(* ---------- command line ---------- *)

let workloads = [ "voting-core"; "broadcast-flood"; "lossy-omissions"; "registry-campaign" ]

let single_of = function
  | "voting-core" -> Some voting_core
  | "broadcast-flood" -> Some broadcast_flood
  | "lossy-omissions" -> Some lossy_omissions
  | _ -> None

let number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.15g" x

let write_spans ~workload ~seed lines =
  let dir = ".perfbench" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Printf.sprintf "%s/spans-%s-seed%d.jsonl" dir workload seed in
  let oc = open_out path in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  close_out oc;
  Printf.eprintf "spans written to %s\n%!" path

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S measurement budget in seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) pass");
    ]
  in
  let usage = "bench.exe --workload NAME --seed N --seconds S --trace 0|1" in
  (try Arg.parse_argv Sys.argv spec (fun a -> raise (Arg.Bad ("unexpected " ^ a))) usage
   with Arg.Bad msg | Arg.Help msg ->
     prerr_string msg;
     exit 2);
  if not (List.mem !workload workloads) then begin
    Printf.eprintf "unknown workload %S (expected one of: %s)\n" !workload
      (String.concat ", " workloads);
    exit 2
  end;
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let seed = !seed and seconds = !seconds in
  let res =
    match (single_of !workload, !trace) with
    | Some w, 0 -> measure_single w ~seed ~seconds
    | Some w, _ -> trace_single w ~seed ~seconds
    | None, 0 -> measure_registry ~seed ~seconds
    | None, _ -> trace_registry ~seed
  in
  if !trace = 1 then write_spans ~workload:!workload ~seed res.spans;
  List.iter
    (fun mt ->
      if not (Float.is_finite mt.value) then
        check_fail "metric %s is not a finite number" mt.name)
    res.metrics;
  List.iter
    (fun mt ->
      Printf.printf "%-18s %-30s %16s %s\n" !workload mt.name (number mt.value)
        mt.unit_)
    res.metrics;
  let correct = res.failed = 0 && !check_failures = [] in
  let metrics =
    String.concat ", "
      (List.map
         (fun mt ->
           Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} mt.name
             (if Float.is_finite mt.value then number mt.value else "0")
             mt.unit_)
         res.metrics)
  in
  Printf.printf
    {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    correct res.attempted res.failed metrics;
  print_newline ();
  exit (if correct then 0 else 1)
