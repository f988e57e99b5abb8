(* Ablations of ReMon's design choices (DESIGN.md section 4):

   a) context-switch cost sensitivity — the CP/IP gap tracks the cost of a
      ptrace round trip, the paper's core motivation;
   b) per-record condition variables vs. a single one (Section 3.7);
   c) spin-wait vs. futex slave waits (Section 3.7);
   d) IK-B token verification cost (Section 3.1);
   e) temporal-exemption probability sweep (Section 3.4). *)

open Remon_core
open Remon_sim
open Remon_util
open Remon_workloads

let dense_profile =
  Profile.make ~name:"ablation.dense" ~threads:4 ~density_hz:120_000. ~calls:3000
    ~mix:Profile.mix_file_rw ~description:"syscall-dense ablation workload" ()

let run ?domains () =
  print_endline "=== Ablations ===\n";

  (* a) context-switch cost sensitivity *)
  let t =
    Table.create
      ~title:"(a) context-switch cost: normalized time of a dense workload"
      ~header:[ "machine"; "ptrace stop"; "GHUMVEE (CP)"; "ReMon (hybrid)"; "CP/hybrid gap" ]
      ()
  in
  let machines =
    [ ("paper testbed", Cost_model.default); ("cheap switches", Cost_model.cheap_switches) ]
  in
  let pairs =
    Pool.map ?domains
      (fun (_, cost) ->
        let cp = Runner.normalized_time ~cost dense_profile (Runner.cfg_ghumvee ()) in
        let hy =
          Runner.normalized_time ~cost dense_profile
            (Runner.cfg_remon Classification.Nonsocket_rw_level)
        in
        (cp, hy))
      machines
  in
  List.iter2
    (fun (label, cost) (cp, hy) ->
      Table.add_row t
        [
          label;
          Printf.sprintf "%.1f us" (float_of_int (Cost_model.ptrace_stop_ns cost) /. 1e3);
          Table.fmt_ratio cp;
          Table.fmt_ratio hy;
          Printf.sprintf "%.1fx" ((cp -. 1.) /. Float.max 0.001 (hy -. 1.));
        ])
    machines pairs;
  Table.print t;
  print_newline ();

  (* b) per-record condvars; c) spin vs futex *)
  let t =
    Table.create ~title:"(b,c) slave wakeup strategy (Section 3.7)"
      ~header:[ "strategy"; "normalized time"; "notes" ]
      ()
  in
  let strategies =
    [
      ( Context.default_mode,
        "per-record condvar + auto spin (ReMon)",
        "wakes skipped when nobody waits" );
      ( { Context.default_mode with Context.per_call_condvar = false },
        "single condition variable",
        "every publish pays a FUTEX_WAKE" );
      ( { Context.default_mode with Context.slave_wait = Context.Wait_futex_only },
        "condvar always",
        "futex wait even for non-blocking calls" );
      ( { Context.default_mode with Context.slave_wait = Context.Wait_spin_only },
        "spin always",
        "lowest latency; burns slave CPU (not modeled)" );
    ]
  in
  let times =
    Pool.map ?domains
      (fun (mode, _, _) ->
        let config =
          {
            (Runner.cfg_remon Classification.Nonsocket_rw_level) with
            Mvee.mode_override = Some mode;
          }
        in
        Runner.normalized_time dense_profile config)
      strategies
  in
  List.iter2
    (fun (_, label, notes) v -> Table.add_row t [ label; Table.fmt_ratio v; notes ])
    strategies times;
  Table.print t;
  print_newline ();

  (* d) token cost *)
  let under = Runner.run_profile dense_profile (Runner.cfg_remon Classification.Nonsocket_rw_level) in
  let o = under.Runner.outcome in
  Printf.printf
    "(d) IK-B authorization: %d tokens granted, %d rejected; verification cost\n\
    \    %d ns/call = %s total (%.4f%% of the run) - security is essentially free.\n\n"
    o.Mvee.tokens_granted o.Mvee.tokens_rejected
    Cost_model.default.Cost_model.token_check_ns
    (Table.fmt_ns
       (o.Mvee.tokens_granted * Cost_model.default.Cost_model.token_check_ns))
    (100.
    *. float_of_int (o.Mvee.tokens_granted * Cost_model.default.Cost_model.token_check_ns)
    /. Vtime.to_float_ns under.Runner.duration);

  (* f) VARAN run-ahead window sweep: the paper notes it is "unclear what
     the impact on performance would be" of shrinking VARAN's buffer; we
     measure it, together with the residual attack window. *)
  let t =
    Table.create
      ~title:"(f) bounded run-ahead for the in-process baseline (VARAN)"
      ~header:[ "window (records)"; "normalized time"; "unchecked calls at detection" ]
      ()
  in
  let windows = [ Some 1; Some 4; Some 16; Some 64; None ] in
  let window_rows =
    Pool.map ?domains
      (fun window ->
        let mode = { Context.default_mode with Context.runahead_window = window } in
        let config = { (Runner.cfg_varan ()) with Mvee.mode_override = Some mode } in
        let v = Runner.normalized_time dense_profile config in
        let attack = Attack.divergent_syscall ~config () in
        (v, attack.Attack.notes))
      windows
  in
  List.iter2
    (fun window (v, notes) ->
      Table.add_row t
        [
          (match window with None -> "unbounded" | Some w -> string_of_int w);
          Table.fmt_ratio v;
          notes;
        ])
    windows window_rows;
  Table.print t;
  print_newline ();

  (* e) temporal exemption sweep *)
  let t =
    Table.create
      ~title:
        "(e) temporal exemption at BASE_LEVEL (probabilistic, per Section 3.4)"
      ~header:[ "exempt probability"; "normalized time"; "ipmon calls"; "monitored" ]
      ()
  in
  let probs = [ 0.0; 0.25; 0.5; 0.75; 0.95 ] in
  let prob_rows =
    Pool.map ?domains
      (fun prob ->
        let policy =
          if prob <= 0. then Policy.spatial Classification.Base_level
          else
            Policy.with_temporal
              (Policy.spatial Classification.Base_level)
              { Policy.default_temporal with Policy.exempt_probability = prob }
        in
        let config = { (Runner.cfg_remon Classification.Base_level) with Mvee.policy } in
        let native = Runner.run_profile dense_profile (Runner.cfg_native ()) in
        let under = Runner.run_profile dense_profile config in
        let v =
          Vtime.to_float_ns under.Runner.duration
          /. Vtime.to_float_ns native.Runner.duration
        in
        ( v,
          under.Runner.outcome.Mvee.ipmon_fastpath,
          under.Runner.outcome.Mvee.monitored ))
      probs
  in
  List.iter2
    (fun prob (v, fastpath, monitored) ->
      Table.add_row t
        [
          Printf.sprintf "%.0f%%" (prob *. 100.);
          Table.fmt_ratio v;
          string_of_int fastpath;
          string_of_int monitored;
        ])
    probs prob_rows;
  Table.print t;
  print_newline ()
