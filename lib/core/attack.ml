(* Attack scenarios from the paper's security analysis (Section 4).

   Each scenario stages a memory-corruption-style compromise of one replica
   and reports (i) whether the malicious action ever took effect on the
   host and (ii) whether and how the MVEE detected it. The scenarios map
   one-to-one onto the analysis:

   - [divergent_syscall]: the compromised replica issues a system call the
     others do not — caught by lockstep comparison (GHUMVEE) or the slave
     argument cross-check (IP-MON) before/after execution depending on the
     backend.
   - [forged_token]: unmonitored execution is attempted with a guessed
     authorization token — rejected by the IK-B verifier, and the forced
     monitored restart exposes the divergence.
   - [rb_discovery]: the attacker reads /proc/self/maps hoping to locate
     the replication buffer — GHUMVEE filters the maps file.
   - [rb_guessing]: blind probes for the RB's address — defeated by the
     placement entropy.
   - [payload_spray]: an address-dependent code-reuse payload built for one
     replica's layout — under DCL the address is valid in at most one
     replica, so the behaviours diverge. *)

open Remon_kernel
open Remon_util
open Remon_sim

type report = {
  scenario : string;
  attack_effect : bool; (* malicious externally-visible effect occurred *)
  detected : Divergence.t option;
  notes : string;
}

let pp_report fmt r =
  Format.fprintf fmt "%-18s effect=%-5b detected=%s%s" r.scenario r.attack_effect
    (match r.detected with
    | Some v -> Divergence.to_string v
    | None -> "no")
    (if r.notes = "" then "" else " (" ^ r.notes ^ ")")

let sys = Sched.syscall

(* Benign work every replica performs; the compromised replica injects its
   attack after [iters] rounds. *)
let benign_round () =
  ignore (sys Syscall.Gettimeofday);
  Sched.compute (Vtime.us 20);
  ignore (sys Syscall.Getpid)

let evil_path = "/etc/passwd"

(* The externally visible effect we test for: did the attacker manage to
   append to a sensitive file? *)
let evil_effect_occurred kernel =
  match Vfs.resolve (Kernel.vfs kernel) evil_path with
  | Ok node -> (
    match Vfs.read_at node ~offset:0 ~count:4096 with
    | Ok s ->
      let needle = "pwned" in
      let n = String.length needle and h = String.length s in
      let rec scan i = i + n <= h && (String.sub s i n = needle || scan (i + 1)) in
      h >= n && scan 0
    | Error _ -> false)
  | Error _ -> false

let write_evil () =
  match sys (Syscall.Open (evil_path, { Syscall.o_rdwr with create = true; append = true })) with
  | Syscall.Ok_int fd ->
    ignore (sys (Syscall.Write (fd, "pwned:root::0:0\n")));
    ignore (sys (Syscall.Close fd))
  | _ -> ()

let run_scenario ?(config = Mvee.default_config) ~name kernel ~body =
  let handle = Mvee.launch kernel config ~name ~body in
  Kernel.run kernel;
  (handle, Mvee.finish handle)

(* ------------------------------------------------------------------ *)

(* 1. Compromised replica issues a divergent system call. *)
let divergent_syscall ?(config = Mvee.default_config) ?(compromised = 0) () =
  let kernel = Kernel.create ~seed:config.Mvee.seed () in
  let body (env : Mvee.env) =
    for _ = 1 to 5 do
      benign_round ()
    done;
    if env.Mvee.variant = compromised then write_evil ()
    else ignore (sys (Syscall.Stat "/etc/hostname"));
    for _ = 1 to 3 do
      benign_round ()
    done
  in
  let h, outcome = run_scenario ~config ~name:"attack-divergent" kernel ~body in
  (* how far did the master run ahead of the detection point? Under
     lockstep this is 0; under VARAN it is the attack window the paper
     criticizes, and shrinking the run-ahead window shrinks it. *)
  let gap =
    match outcome.Mvee.verdict with
    | Some (Divergence.Args_mismatch { index; _ }) ->
      let master = h.Mvee.group.Context.replicas.(0) in
      (match Vec.first_opt master.Proc.threads with
      | Some th -> max 0 (th.Proc.syscall_index - index)
      | None -> 0)
    | _ -> 0
  in
  {
    scenario = "divergent-syscall";
    attack_effect = evil_effect_occurred kernel;
    detected = outcome.Mvee.verdict;
    notes =
      Printf.sprintf "compromised variant %d; master ran %d calls past detection"
        compromised gap;
  }

(* 2. Unmonitored execution with a forged authorization token. *)
let forged_token ?(config = Mvee.default_config) () =
  let kernel = Kernel.create ~seed:config.Mvee.seed () in
  let group_ref = ref None in
  let rejected_before = ref 0 in
  let body (env : Mvee.env) =
    for _ = 1 to 5 do
      benign_round ()
    done;
    if env.Mvee.variant = 0 then begin
      match !group_ref with
      | Some (g : Context.group) ->
        (* the attacker loads a guessed value into the token register and
           re-enters the kernel directly, skipping IP-MON's entry point *)
        let th = Sched.self () in
        rejected_before := (Kernel.stats kernel).Kstate.tokens_rejected;
        let guess = Rng.int64 (Rng.make 0xBADF00D) in
        ignore
          (Ikb.execute g.Context.ikb th ~token:guess
             (Syscall.Open (evil_path, { Syscall.o_rdwr with create = true; append = true })))
        (* verification fails at once; the call never completes
           unmonitored. The attacker gives up rather than fall through to
           the monitored path, which would expose it at the rendezvous. *)
      | None -> ()
    end;
    for _ = 1 to 3 do
      benign_round ()
    done
  in
  let h = Mvee.launch kernel config ~name:"attack-token" ~body in
  group_ref := Some h.Mvee.group;
  Kernel.run kernel;
  let outcome = Mvee.finish h in
  let rejected = (Kernel.stats kernel).Kstate.tokens_rejected > !rejected_before in
  {
    scenario = "forged-token";
    attack_effect = evil_effect_occurred kernel;
    detected = outcome.Mvee.verdict;
    notes =
      (if rejected then "IK-B verifier rejected the forged token"
       else "token attempt not observed");
  }

(* 3. RB discovery through /proc/self/maps (Section 3.6). *)
let rb_discovery ?(config = Mvee.default_config) () =
  let kernel = Kernel.create ~seed:config.Mvee.seed () in
  let found = ref false in
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec scan i = i + n <= h && (String.sub hay i n = needle || scan (i + 1)) in
    n > 0 && scan 0
  in
  let body (env : Mvee.env) =
    for _ = 1 to 3 do
      benign_round ()
    done;
    (match sys (Syscall.Open ("/proc/self/maps", Syscall.o_rdonly)) with
    | Syscall.Ok_int fd ->
      let rec read_all acc =
        match sys (Syscall.Read (fd, 4096)) with
        | Syscall.Ok_data "" -> acc
        | Syscall.Ok_data s -> read_all (acc ^ s)
        | _ -> acc
      in
      let maps = read_all "" in
      if env.Mvee.variant = 0 && (contains maps "sysv-shm" || contains maps "ipmon")
      then found := true;
      ignore (sys (Syscall.Close fd))
    | _ -> ());
    benign_round ()
  in
  let _h, outcome = run_scenario ~config ~name:"attack-maps" kernel ~body in
  {
    scenario = "rb-discovery";
    attack_effect = !found;
    detected = outcome.Mvee.verdict;
    notes = "attacker greps /proc/self/maps for the RB / IP-MON regions";
  }

(* 4. Blind guessing of the RB's address (24+ bits of entropy). *)
let rb_guessing ?(config = Mvee.default_config) ?(probes = 50_000) () =
  let kernel = Kernel.create ~seed:config.Mvee.seed () in
  let hits = ref 0 in
  let body (env : Mvee.env) =
    for _ = 1 to 3 do
      benign_round ()
    done;
    if env.Mvee.variant = 0 then begin
      let th = Sched.self () in
      let vm = th.Proc.proc.Proc.vm in
      let rng = Rng.make 0xA77AC4 in
      for _ = 1 to probes do
        (* a probe that faults would crash the replica; we just count how
           many random guesses would have found the hidden buffer *)
        let addr =
          Int64.add 0x0000_2000_0000_0000L
            (Int64.mul (Int64.of_int (Rng.int rng (1 lsl 28))) 4096L)
        in
        (* the attacker needs the RB *pointer*: only a guess of the
           buffer's base page counts (the paper's 24-bits-of-entropy
           argument) *)
        match Vm.find_region vm addr with
        | Some ({ Vm.backing = Vm.Shm_seg _; _ } as r)
          when Int64.equal r.Vm.start addr ->
          incr hits
        | _ -> ()
      done
    end;
    benign_round ()
  in
  let _h, outcome = run_scenario ~config ~name:"attack-guess" kernel ~body in
  {
    scenario = "rb-guessing";
    attack_effect = !hits > 0;
    detected = outcome.Mvee.verdict;
    notes = Printf.sprintf "%d/%d probes hit the RB" !hits probes;
  }

(* 5. Address-dependent payload vs. diversified layouts (DCL). *)
let payload_spray ?(config = Mvee.default_config) () =
  let kernel = Kernel.create ~seed:config.Mvee.seed () in
  let payload_addr = ref None in
  let body (env : Mvee.env) =
    for _ = 1 to 4 do
      benign_round ()
    done;
    let th = Sched.self () in
    let proc = th.Proc.proc in
    (* The exploit carries a hard-coded gadget address harvested from the
       compromised replica (variant 0). *)
    (if env.Mvee.variant = 0 then
       match Diversity.code_base proc with
       | Some base -> payload_addr := Some (Int64.add base 0x1234L)
       | None -> ());
    let addr =
      match !payload_addr with Some a -> a | None -> 0x400000L
    in
    if Diversity.addr_in_code proc addr then
      (* the gadget address is valid here: the payload runs *)
      write_evil ()
    else
      (* invalid address: the replica crashes with SIGSEGV *)
      Kernel.post_signal kernel proc Sigdefs.sigsegv;
    benign_round ()
  in
  let _h, outcome = run_scenario ~config ~name:"attack-spray" kernel ~body in
  {
    scenario = "payload-spray";
    attack_effect = evil_effect_occurred kernel;
    detected = outcome.Mvee.verdict;
    notes =
      (if config.Mvee.diversity.Diversity.dcl then "disjoint code layouts"
       else "identical layouts (diversity disabled)");
  }

let all_scenarios ?(config = Mvee.default_config) () =
  [
    divergent_syscall ~config ();
    forged_token ~config ();
    rb_discovery ~config ();
    rb_guessing ~config ();
    payload_spray ~config ();
  ]
