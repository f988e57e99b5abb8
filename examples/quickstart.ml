(* Quickstart: run a small program under ReMon with two diversified
   replicas and look at what the MVEE did.

     dune exec examples/quickstart.exe

   The program below is ordinary POSIX-style code written against the
   simulated kernel's syscall API. [Mvee.launch] runs one copy per replica;
   GHUMVEE monitors the sensitive calls in lockstep while IP-MON replicates
   the innocuous ones in-process. *)

open Remon_kernel
open Remon_core
open Remon_workloads

(* The "application": creates a log file, queries the time, appends lines,
   and reads its own output back. *)
let app (env : Mvee.env) =
  let fd = Api.create_file "/tmp/quickstart.log" in
  for i = 1 to 5 do
    let now = Api.gettimeofday () in
    let line = Printf.sprintf "entry %d at t=%Ldns (pid %d)\n" i now (Api.getpid ()) in
    ignore (Api.write fd line);
    Api.compute_us 50
  done;
  ignore (Api.lseek fd 0);
  let contents = Api.read fd 4096 in
  (* every replica sees identical input: print only from the master *)
  if env.Mvee.variant = 0 then
    Printf.printf "replica 0 read back %d bytes of its log\n"
      (String.length contents);
  Api.close fd

let () =
  print_endline "-- quickstart: one program, two replicas, one set of effects --\n";
  let kernel = Kernel.create () in
  (* a structured trace sink: the routing lines below are a view of it *)
  let obs = Remon_obs.Obs.create () in
  Kernel.set_obs kernel obs;
  let config =
    {
      Mvee.default_config with
      Mvee.backend = Mvee.Remon;
      nreplicas = 2;
      policy = Policy.spatial Classification.Nonsocket_rw_level;
    }
  in
  let handle = Mvee.launch kernel config ~name:"quickstart" ~body:app in
  Kernel.run kernel;
  let o = Mvee.finish handle in
  Printf.printf "\nvirtual runtime        : %s\n" (Remon_sim.Vtime.to_string o.Mvee.duration);
  Printf.printf "verdict                : %s\n"
    (match o.Mvee.verdict with
    | None -> "clean run, no divergence"
    | Some v -> Divergence.to_string v);
  Printf.printf "system calls issued    : %d\n" o.Mvee.syscalls;
  Printf.printf "  monitored (lockstep) : %d\n" o.Mvee.monitored;
  Printf.printf "  IP-MON fast path     : %d\n" o.Mvee.ipmon_fastpath;
  Printf.printf "  ptrace stops         : %d\n" o.Mvee.ptrace_stops;
  Printf.printf "replication records    : %d (resets: %d)\n" o.Mvee.rb_records o.Mvee.rb_resets;
  Printf.printf "tokens granted/rejected: %d/%d\n" o.Mvee.tokens_granted o.Mvee.tokens_rejected;
  (* a peek at the syscall routing IK-B performed *)
  let trace = Kernel.route_lines obs in
  Printf.printf "\nfirst syscalls, as routed by IK-B (of %d traced):\n"
    (List.length trace);
  List.iteri (fun i line -> if i < 8 then Printf.printf "  %s\n" line) trace;
  print_newline ();
  (* the externally visible effect happened exactly once *)
  match Vfs.resolve (Kernel.vfs kernel) "/tmp/quickstart.log" with
  | Ok node ->
    Printf.printf "log file size on host  : %d bytes (written once, not twice)\n"
      (Vfs.file_size node)
  | Error _ -> print_endline "log file missing?!"
