(* Randomized cross-backend conformance fuzzer.

   Each scenario is a seeded random single-threaded workload (file, pipe
   and socket traffic with deterministic payloads), a random exemption
   level, a random replica count and a random fault plan. The scenario
   runs under all three routing regimes — GHUMVEE-only lockstep, IP-MON
   route-all (the VARAN baseline) and the IK-B hybrid (ReMon) — and the
   backends must agree:

   - verdict class: either every backend flags a divergence or none does
     (the detectors differ — rendezvous args compare vs. RB record
     compare — but detection itself is a conformance property);
   - replica-visible results: when every backend is verdict-free, the
     digest of everything the program could observe (byte counts, read
     data, errnos — never virtual time or fd-table internals) must be
     identical across variants within a run and across backends.

   Fault plans only use kinds whose observable class is routing-invariant:
   crashes (detected by every backend's exit watcher), slave argument
   corruption (every call is compared somewhere: lockstep rendezvous or
   RB record), and small delays (benign everywhere). Result-injection
   faults are excluded on purpose: the per-thread syscall index they
   anchor to counts setup calls, which differ per backend, so the faulted
   call — and with it the program-visible result — would not line up.

   On a conformance violation the scenario is greedily shrunk (dropping
   fault specs and workload ops while the violation persists) and the
   minimal reproducer is printed together with per-backend trace dumps.

   Scenario count defaults to 200; override with FUZZ_SCENARIOS (the CI
   smoke job runs a 30-scenario slice). *)

open Remon_kernel
open Remon_core
open Remon_sim
open Remon_util
open Remon_workloads

let scenarios =
  match Sys.getenv_opt "FUZZ_SCENARIOS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n > 0 -> n
    | _ -> 200)
  | None -> 200

(* ------------------------------------------------------------------ *)
(* Scenario generation *)

type op =
  | File_rw of string * int (* pwrite payload at offset, pread it back *)
  | Pipe_rw of string
  | Sock_rw of string
  | Open_close
  | Gettime (* undigested: virtual time legitimately differs per backend *)
  | Compute of int (* microseconds *)

type scenario = {
  id : int;
  sim_seed : int;
  nreplicas : int;
  level : Classification.level;
  ops : op list;
  faults : string; (* --faults syntax, so shrinking can drop specs *)
}

let payload rng id j =
  let n = 1 + Rng.int_in_range rng ~lo:0 ~hi:47 in
  let b = Buffer.create n in
  Buffer.add_string b (Printf.sprintf "s%d.%d:" id j);
  while Buffer.length b < n do
    Buffer.add_char b
      (Char.chr (Char.code 'a' + Rng.int_in_range rng ~lo:0 ~hi:25))
  done;
  Buffer.contents b

let gen_ops rng id =
  let nops = Rng.int_in_range rng ~lo:5 ~hi:30 in
  List.init nops (fun j ->
      match Rng.int_in_range rng ~lo:0 ~hi:9 with
      | 0 | 1 | 2 -> File_rw (payload rng id j, Rng.int_in_range rng ~lo:0 ~hi:4096)
      | 3 | 4 -> Pipe_rw (payload rng id j)
      | 5 | 6 -> Sock_rw (payload rng id j)
      | 7 -> Open_close
      | 8 -> Gettime
      | _ -> Compute (Rng.int_in_range rng ~lo:5 ~hi:200))

let op_syscalls = function
  | File_rw _ | Pipe_rw _ | Sock_rw _ | Open_close -> 2
  | Gettime -> 1
  | Compute _ -> 0

(* The per-thread syscall index a fault anchors to counts setup calls,
   and setup differs by backend: the body issues 3 fixture calls (open,
   pipe, socketpair) everywhere, while Varan/Remon slaves additionally
   run IP-MON init (5 calls: 2x shmget/shmat + register) before the body.
   A kind that must be *detected* (crash/kill/args) therefore needs an
   index landing inside the op stream under every backend:
   [3 + 5 + 1, 3 + S] where S is the op stream's syscall count — nonempty
   only when S >= 6. Delays are benign wherever they land, so they are
   unconstrained.

   Argument corruption has one further requirement: the rewritten capture
   is a nonsocket write, so if the policy exempts nonsocket writes the
   corrupted call can land on the opposite side of IK-B's routing
   boundary from the call the master issues, and neither the rendezvous
   nor the RB comparator is guaranteed to line the two up. Corruption is
   therefore only generated at levels where nonsocket writes stay
   monitored (BASE, NONSOCKET_RO); other levels degrade to a crash. *)
let gen_faults rng ~nreplicas ~level ~ops =
  let s_ops = List.fold_left (fun a op -> a + op_syscalls op) 0 ops in
  let specs = ref [] in
  let n = Rng.int_in_range rng ~lo:0 ~hi:2 in
  for _ = 1 to n do
    let slave =
      if nreplicas > 1 then Rng.int_in_range rng ~lo:1 ~hi:(nreplicas - 1)
      else 0
    in
    let kind = Rng.int_in_range rng ~lo:0 ~hi:3 in
    if kind = 3 then
      specs :=
        Printf.sprintf "delay@%d:%d=%dus"
          (Rng.int_in_range rng ~lo:2 ~hi:(8 + max 1 s_ops))
          (Rng.int_in_range rng ~lo:0 ~hi:(nreplicas - 1))
          (Rng.int_in_range rng ~lo:50 ~hi:3000)
        :: !specs
    else if s_ops >= 6 then begin
      let at = Rng.int_in_range rng ~lo:9 ~hi:(3 + s_ops) in
      let args_safe =
        match level with
        | Classification.Base_level | Classification.Nonsocket_ro_level -> true
        | _ -> false
      in
      let s =
        match kind with
        | 0 -> Printf.sprintf "crash@%d:%d" at slave
        | 1 -> Printf.sprintf "kill@%d:%d" at slave
        | _ when args_safe -> Printf.sprintf "args@%d:%d" at slave
        | _ -> Printf.sprintf "crash@%d:%d" at slave
      in
      specs := s :: !specs
    end
  done;
  String.concat "," !specs

let gen_scenario id =
  let rng = Rng.make (0x5EED + (id * 0x9E3779B1)) in
  let nreplicas = 2 + Rng.int_in_range rng ~lo:0 ~hi:1 in
  let level =
    List.nth Classification.all_levels
      (Rng.int_in_range rng ~lo:0
         ~hi:(List.length Classification.all_levels - 1))
  in
  let ops = gen_ops rng id in
  let faults = gen_faults rng ~nreplicas ~level ~ops in
  { id; sim_seed = 1000 + id; nreplicas; level; ops; faults }

(* ------------------------------------------------------------------ *)
(* The workload body: digest everything program-visible *)

let digest_result buf tag (r : Syscall.result) =
  Buffer.add_string buf tag;
  Buffer.add_string buf
    (match r with
    | Syscall.Ok_unit -> "u"
    | Syscall.Ok_int n -> string_of_int n
    | Syscall.Ok_data s -> "d:" ^ s
    | Syscall.Error e -> "e:" ^ Errno.to_string e
    | _ -> "?");
  Buffer.add_char buf '|'

let body sc (digests : string array) (env : Mvee.env) =
  let sys = Sched.syscall in
  let buf = Buffer.create 512 in
  let data_fd =
    Api.open_file ~flags:{ Syscall.o_rdwr with create = true } "/tmp/fuzz-data"
  in
  let pipe_r, pipe_w = Api.pipe () in
  let sock_a, sock_b = Api.socketpair () in
  List.iter
    (fun op ->
      match op with
      | File_rw (s, off) ->
        digest_result buf "w" (sys (Syscall.Pwrite64 (data_fd, s, off)));
        digest_result buf "r" (sys (Syscall.Pread64 (data_fd, String.length s, off)))
      | Pipe_rw s ->
        digest_result buf "pw" (sys (Syscall.Write (pipe_w, s)));
        digest_result buf "pr" (sys (Syscall.Read (pipe_r, String.length s)))
      | Sock_rw s ->
        digest_result buf "ss" (sys (Syscall.Sendto (sock_a, s)));
        digest_result buf "sr" (sys (Syscall.Recvfrom (sock_b, String.length s)))
      | Open_close -> (
        match sys (Syscall.Open ("/tmp/fuzz-scratch", { Syscall.o_rdwr with create = true })) with
        | Syscall.Ok_int fd ->
          digest_result buf "c" (sys (Syscall.Close fd))
        | r -> digest_result buf "o" r)
      | Gettime -> ignore (sys Syscall.Gettimeofday)
      | Compute us -> Sched.compute (Vtime.us us))
    sc.ops;
  digests.(env.Mvee.variant) <- Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Running one scenario under one backend *)

let backends = [ Mvee.Ghumvee_only; Mvee.Varan; Mvee.Remon ]

let config_of sc backend =
  let policy =
    (* GHUMVEE standalone is by definition monitor-everything *)
    match backend with
    | Mvee.Ghumvee_only -> Policy.monitor_everything
    | _ -> Policy.spatial sc.level
  in
  let faults =
    match Fault.of_string sc.faults with
    | Ok p -> p
    | Error e -> failwith ("fuzz plan failed to reparse: " ^ e)
  in
  {
    Mvee.default_config with
    Mvee.backend;
    nreplicas = sc.nreplicas;
    seed = sc.sim_seed;
    policy;
    faults;
  }

let run_backend ?obs ?(record = false) sc backend =
  let digests = Array.make sc.nreplicas "<unfinished>" in
  let kernel = Kernel.create ~seed:sc.sim_seed () in
  (match obs with Some o -> Kernel.set_obs kernel o | None -> ());
  let config = { (config_of sc backend) with Mvee.record } in
  let h =
    Mvee.launch kernel config
      ~name:(Printf.sprintf "fuzz%d" sc.id)
      ~body:(body sc digests)
  in
  Kernel.run kernel;
  (Mvee.finish h, digests)

(* ------------------------------------------------------------------ *)
(* Conformance check *)

let render_op = function
  | File_rw (s, off) -> Printf.sprintf "file(%S@%d)" s off
  | Pipe_rw s -> Printf.sprintf "pipe(%S)" s
  | Sock_rw s -> Printf.sprintf "sock(%S)" s
  | Open_close -> "open_close"
  | Gettime -> "gettime"
  | Compute us -> Printf.sprintf "compute(%dus)" us

let render_scenario sc =
  Printf.sprintf
    "scenario %d: seed=%d nreplicas=%d level=%s faults=%S\n  ops: %s" sc.id
    sc.sim_seed sc.nreplicas
    (Classification.level_to_string sc.level)
    sc.faults
    (String.concat "; " (List.map render_op sc.ops))

(* None = conforms; Some msg = the violation found. *)
let check_scenario sc =
  let results = List.map (fun b -> (b, run_backend sc b)) backends in
  let flagged (o : Mvee.outcome) = o.Mvee.verdict <> None in
  let verdict_str (o : Mvee.outcome) =
    match o.Mvee.verdict with
    | None -> "clean"
    | Some v -> Divergence.to_string v
  in
  let classes = List.map (fun (_, (o, _)) -> flagged o) results in
  match classes with
  | [] -> None
  | c0 :: rest when not (List.for_all (Bool.equal c0) rest) ->
    Some
      (Printf.sprintf "verdict classes disagree: %s"
         (String.concat ", "
            (List.map
               (fun (b, (o, _)) ->
                 Printf.sprintf "%s=%s" (Mvee.backend_to_string b)
                   (verdict_str o))
               results)))
  | c0 :: _ when c0 -> None (* all flagged: conforming detection *)
  | _ ->
    (* all clean: replica-visible digests must agree, both within each
       run (across variants) and across backends *)
    let violation = ref None in
    List.iter
      (fun (b, (_, digests)) ->
        Array.iteri
          (fun v d ->
            if !violation = None && not (String.equal d digests.(0)) then
              violation :=
                Some
                  (Printf.sprintf
                     "%s: variant %d digest differs from master\n  v0: %s\n  v%d: %s"
                     (Mvee.backend_to_string b) v digests.(0) v d))
          digests)
      results;
    (match (!violation, results) with
    | None, (b0, (_, d0)) :: rest ->
      List.iter
        (fun (b, (_, d)) ->
          if !violation = None && not (String.equal d.(0) d0.(0)) then
            violation :=
              Some
                (Printf.sprintf
                   "master digests disagree across backends\n  %s: %s\n  %s: %s"
                   (Mvee.backend_to_string b0) d0.(0)
                   (Mvee.backend_to_string b) d.(0)))
        rest
    | _ -> ());
    !violation

(* ------------------------------------------------------------------ *)
(* Shrinking: greedily drop fault specs and ops while the scenario still
   violates conformance, so the reproducer printed is minimal. *)

let drop_nth n l = List.filteri (fun i _ -> i <> n) l

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

let rec drop n = function
  | _ :: rest when n > 0 -> drop (n - 1) rest
  | l -> l

let shrink_candidates sc =
  let fault_specs =
    if sc.faults = "" then []
    else String.split_on_char ',' sc.faults
  in
  let without_fault =
    List.init (List.length fault_specs) (fun i ->
        { sc with faults = String.concat "," (drop_nth i fault_specs) })
  in
  let nops = List.length sc.ops in
  let op_halves =
    if nops > 1 then
      [
        { sc with ops = take (nops / 2) sc.ops };
        { sc with ops = drop (nops / 2) sc.ops };
      ]
    else []
  in
  let op_drops =
    if nops > 1 && nops <= 12 then
      List.init nops (fun i -> { sc with ops = drop_nth i sc.ops })
    else []
  in
  without_fault @ op_halves @ op_drops

let minimize sc =
  let budget = ref 30 in
  let rec go sc =
    if !budget <= 0 then sc
    else begin
      decr budget;
      match
        List.find_opt (fun c -> check_scenario c <> None) (shrink_candidates sc)
      with
      | Some smaller -> go smaller
      | None -> sc
    end
  in
  go sc

let dump_dir () =
  match Sys.getenv_opt "FUZZ_DUMP_DIR" with
  | Some d ->
    (try Sys.mkdir d 0o755 with Sys_error _ -> ());
    d
  | None -> Filename.get_temp_dir_name ()

let dump_traces sc =
  List.map
    (fun b ->
      let obs = Remon_obs.Obs.create () in
      ignore (run_backend ~obs sc b);
      let path =
        Filename.concat (dump_dir ())
          (Printf.sprintf "fuzz-failure-%d-%s.json" sc.id
             (Mvee.backend_to_string b))
      in
      let oc = open_out_bin path in
      output_string oc (Remon_obs.Obs.export_string obs);
      close_out oc;
      path)
    backends

(* The minimal scenario's recorded streams, one per backend: versioned
   binary reproducers a later session can diff and bisect offline. *)
let dump_recordings sc =
  List.filter_map
    (fun b ->
      let o, _ = run_backend ~record:true sc b in
      match o.Mvee.recording with
      | None -> None
      | Some r ->
        let r =
          Recording.with_workload r (Printf.sprintf "fuzz:%d" sc.id)
        in
        let path =
          Filename.concat (dump_dir ())
            (Printf.sprintf "fuzz-failure-%d-%s.rmrc" sc.id
               (Mvee.backend_to_string b))
        in
        Recording.to_file r path;
        Some path)
    backends

(* ------------------------------------------------------------------ *)

let test_conformance () =
  let failures = ref 0 in
  for id = 0 to scenarios - 1 do
    let sc = gen_scenario id in
    match check_scenario sc with
    | None -> ()
    | Some msg ->
      incr failures;
      let minimal = minimize sc in
      let why =
        match check_scenario minimal with Some m -> m | None -> msg
      in
      let traces = dump_traces minimal in
      let recordings = dump_recordings minimal in
      Printf.printf
        "conformance violation (original scenario %d):\n%s\nminimal reproducer:\n%s\ntraces: %s\nrecordings: %s\n%!"
        sc.id msg (render_scenario minimal)
        (String.concat ", " traces)
        (String.concat ", " recordings);
      Printf.printf "violation: %s\n%!" why
  done;
  if !failures > 0 then
    Alcotest.failf "%d/%d scenarios violated cross-backend conformance"
      !failures scenarios

(* A canary with a known-flagged plan: slave argument corruption must be
   detected under every backend, so the harness itself cannot rot into
   vacuously passing. *)
let test_known_divergence_flagged_everywhere () =
  let sc =
    {
      id = 999_999;
      sim_seed = 4242;
      nreplicas = 2;
      level = Classification.Socket_rw_level;
      ops =
        [ File_rw ("canary-payload", 64); Sock_rw ("canary");
          Pipe_rw ("canary2"); File_rw ("more", 256); Gettime ];
      faults = "args@9:1";
      (* index 9 lands inside the op stream on every backend: past the
         3 fixture calls + 5 IP-MON init calls, before call 3 + S = 12 *)
    }
  in
  List.iter
    (fun b ->
      let o, _ = run_backend sc b in
      Alcotest.(check bool)
        (Printf.sprintf "%s flags slave corruption" (Mvee.backend_to_string b))
        true
        (o.Mvee.verdict <> None))
    backends

(* And the clean counterpart: no faults, every backend verdict-free with
   agreeing digests (exercised through the same checker the fuzzer uses). *)
let test_known_clean_conforms () =
  let sc = { (gen_scenario 31337) with faults = "" } in
  match check_scenario sc with
  | None -> ()
  | Some msg -> Alcotest.failf "clean scenario violated conformance: %s" msg

(* Every scheduler of this executable runs the lost-wake-up oracle: each
   sweep is followed by a retry of every queued wait that was not woken. *)
let () = Remon_kernel.Sched.set_wakeup_check true

let () =
  Alcotest.run "fuzz"
    [
      ( "cross-backend",
        [
          Alcotest.test_case "known divergence flagged" `Quick
            test_known_divergence_flagged_everywhere;
          Alcotest.test_case "known clean conforms" `Quick
            test_known_clean_conforms;
          Alcotest.test_case
            (Printf.sprintf "conformance (%d scenarios)" scenarios)
            `Slow test_conformance;
        ] );
    ]
