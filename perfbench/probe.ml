(* Out-of-layer probes for the traced pass.

   Each wrapper sits around one layer's public entry point — a buffered
   protocol's [step_into], an adversary factory's per-round strategy
   closure, a link's [transmit] — times every call with the monotonic
   clock and counts the layer's work, and otherwise hands the engine
   exactly what the unwrapped value would: [emit_all] passes through
   untouched, a plan keeps its [compiled] verdict, a link keeps its
   verdicts. None of them uses [?on_round] or a [Trace] sink, both of
   which force the engine off the mask-blit and broadcast-table paths.

   Spans are kept in memory as per-round nanosecond sums per layer (one
   [Per_round.t] per layer, indexed by round) plus call counts; the
   caller snapshots them after each run. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Nanoseconds per round, indexed by round number (1-based). *)
module Per_round = struct
  type t = { mutable a : int array }

  let create () = { a = Array.make 256 0 }

  let add t r dt =
    let len = Array.length t.a in
    if r >= len then begin
      let a' = Array.make (max (r + 1) (2 * len)) 0 in
      Array.blit t.a 0 a' 0 len;
      t.a <- a'
    end;
    t.a.(r) <- t.a.(r) + dt

  let get t r = if r < Array.length t.a then t.a.(r) else 0
  let reset t = Array.fill t.a 0 (Array.length t.a) 0
  let total t = Array.fold_left ( + ) 0 t.a
end

type t = {
  step : Per_round.t;
  plan : Per_round.t;
  transmit : Per_round.t;
  mutable step_calls : int;
  mutable plan_calls : int;
  mutable compiled_plans : int;
  mutable omit_calls : int;
  mutable transmit_calls : int;
  mutable build_ns : int;
  mutable first_decide : int;
      (** round in which some process first reported a decision; 0 = none *)
}

let create () =
  {
    step = Per_round.create ();
    plan = Per_round.create ();
    transmit = Per_round.create ();
    step_calls = 0;
    plan_calls = 0;
    compiled_plans = 0;
    omit_calls = 0;
    transmit_calls = 0;
    build_ns = 0;
    first_decide = 0;
  }

let reset p =
  Per_round.reset p.step;
  Per_round.reset p.plan;
  Per_round.reset p.transmit;
  p.step_calls <- 0;
  p.plan_calls <- 0;
  p.compiled_plans <- 0;
  p.omit_calls <- 0;
  p.transmit_calls <- 0;
  p.build_ns <- 0;
  p.first_decide <- 0

(* The [include P] pattern of bench/scale.ml: only [step_into] changes,
   and it forwards every argument unchanged. *)
let protocol p (module P : Sim.Protocol_intf.BUFFERED) :
    Sim.Protocol_intf.buffered =
  (module struct
    include P

    let step_into cfg st ~round ~inbox ~rand ~emit ~emit_all =
      let t0 = now_ns () in
      let st' = P.step_into cfg st ~round ~inbox ~rand ~emit ~emit_all in
      Per_round.add p.step round (now_ns () - t0);
      p.step_calls <- p.step_calls + 1;
      if p.first_decide = 0 && (P.observe st').Sim.View.decided <> None then
        p.first_decide <- round;
      st'
  end)

(* Times the strategy closure (envelope expansion included, since the
   view fills its arena on the adversary's first read) and counts
   [omit] calls through a wrapper; [compiled] is passed on as is, so the
   engine picks the same delivery path. *)
let adversary p (a : Sim.Adversary_intf.t) : Sim.Adversary_intf.t =
  {
    a with
    Sim.Adversary_intf.create =
      (fun cfg rand ->
        let strategy = a.Sim.Adversary_intf.create cfg rand in
        fun view ->
          let t0 = now_ns () in
          let plan = strategy view in
          Per_round.add p.plan view.Sim.View.round (now_ns () - t0);
          p.plan_calls <- p.plan_calls + 1;
          if plan.Sim.View.compiled <> None then
            p.compiled_plans <- p.compiled_plans + 1;
          let omit = plan.Sim.View.omit in
          {
            plan with
            Sim.View.omit =
              (fun src dst ->
                p.omit_calls <- p.omit_calls + 1;
                omit src dst);
          });
  }

let link p (l : Sim.Link_intf.t) : Sim.Link_intf.t =
  {
    l with
    Sim.Link_intf.transmit =
      (fun ~trace ~round ~src ~dst ->
        let t0 = now_ns () in
        let v = l.Sim.Link_intf.transmit ~trace ~round ~src ~dst in
        Per_round.add p.transmit round (now_ns () - t0);
        p.transmit_calls <- p.transmit_calls + 1;
        v);
  }

(* A registry entry whose buffered builder is timed and whose protocol is
   wrapped; [Runner.run_entry] builds through [entry.buffered]. *)
let entry p (e : Harness.Registry.entry) : Harness.Registry.entry =
  match e.Harness.Registry.buffered with
  | None -> e
  | Some build ->
      {
        e with
        Harness.Registry.buffered =
          Some
            (fun cfg ->
              let t0 = now_ns () in
              let proto = build cfg in
              p.build_ns <- p.build_ns + (now_ns () - t0);
              protocol p proto);
      }
