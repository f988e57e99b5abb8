(* Monitor-level behaviours: GHUMVEE signal deferral, maps filtering,
   exit-code divergence, epoll pointer translation under lockstep, the
   rendezvous watchdog, IK-B token mechanics and RB overflow handling
   end-to-end, including overflow with a blocked call in flight. *)

open Remon_kernel
open Remon_core
open Remon_sim

let sys = Sched.syscall

let remon ?(nreplicas = 2) ?(policy = Policy.spatial Classification.Socket_rw_level) () =
  { Mvee.default_config with Mvee.backend = Mvee.Remon; nreplicas; policy }

let ghumvee () =
  {
    Mvee.default_config with
    Mvee.backend = Mvee.Ghumvee_only;
    policy = Policy.monitor_everything;
  }

(* Asynchronous signals are deferred and injected at a rendezvous: every
   replica must observe the handler at the same syscall index. *)
let test_signal_deferral_consistency backend_cfg () =
  let kernel = Kernel.create () in
  let observed = Array.make 2 (-1) in
  let body (env : Mvee.env) =
    ignore (sys (Syscall.Rt_sigaction (Sigdefs.sigusr1, Syscall.Sig_handler 1)));
    for _ = 1 to 40 do
      ignore (sys Syscall.Gettimeofday);
      Sched.compute (Vtime.us 30);
      let th = Sched.self () in
      if not (Queue.is_empty th.Proc.pending_delivery) then begin
        Queue.clear th.Proc.pending_delivery;
        if observed.(env.Mvee.variant) < 0 then
          observed.(env.Mvee.variant) <- th.Proc.syscall_index
      end
    done
  in
  let h = Mvee.launch kernel backend_cfg ~name:"sigdefer" ~body in
  (* deliver SIGUSR1 to the master while it is mid-run *)
  Kernel.schedule kernel ~time:(Vtime.us 400) (fun () ->
      Kernel.post_signal kernel h.Mvee.group.Context.replicas.(0) Sigdefs.sigusr1);
  Kernel.run kernel;
  let o = Mvee.finish h in
  (match o.Mvee.verdict with
  | None -> ()
  | Some v -> Alcotest.failf "verdict: %s" (Divergence.to_string v));
  Alcotest.(check bool) "master observed the signal" true (observed.(0) > 0);
  Alcotest.(check int) "all replicas at the same syscall index" observed.(0)
    observed.(1)

(* The master's blocked call is aborted so the deferred signal can be
   delivered (Section 3.8): here the master sits in a blocking read on a
   pipe when the signal arrives. *)
let test_signal_aborts_blocked_call () =
  let kernel = Kernel.create () in
  let saw_handler = Array.make 2 false in
  let body (env : Mvee.env) =
    ignore (sys (Syscall.Rt_sigaction (Sigdefs.sigusr1, Syscall.Sig_handler 9)));
    match sys Syscall.Pipe with
    | Syscall.Ok_pair (rfd, _wfd) ->
      (* blocks forever until the signal interrupts it *)
      let r = sys (Syscall.Read (rfd, 16)) in
      let th = Sched.self () in
      if r = Syscall.Error Errno.EINTR || not (Queue.is_empty th.Proc.pending_delivery)
      then
        saw_handler.(env.Mvee.variant) <- true
    | _ -> Alcotest.fail "pipe"
  in
  let h = Mvee.launch kernel (remon ()) ~name:"sigabort" ~body in
  Kernel.schedule kernel ~time:(Vtime.ms 2) (fun () ->
      Kernel.post_signal kernel h.Mvee.group.Context.replicas.(0) Sigdefs.sigusr1);
  Kernel.run kernel;
  ignore (Mvee.finish h);
  Alcotest.(check bool) "master unblocked and saw the signal" true saw_handler.(0);
  Alcotest.(check bool) "slave saw it too" true saw_handler.(1)

(* Exit-code divergence is a verdict. *)
let test_exit_code_mismatch () =
  let kernel = Kernel.create () in
  let body (env : Mvee.env) =
    ignore (sys Syscall.Getpid);
    ignore (sys (Syscall.Exit_group (if env.Mvee.variant = 0 then 0 else 3)))
  in
  let h = Mvee.launch kernel (ghumvee ()) ~name:"exitdiv" ~body in
  Kernel.run kernel;
  match (Mvee.finish h).Mvee.verdict with
  (* the divergent exit codes are the exit_group arguments, so lockstep
     comparison catches this before either replica actually exits *)
  | Some (Divergence.Exit_mismatch _) | Some (Divergence.Args_mismatch _) -> ()
  | Some v -> Alcotest.failf "wrong verdict: %s" (Divergence.to_string v)
  | None -> Alcotest.fail "exit mismatch undetected"

(* epoll user-data translation under full monitoring: each replica gets its
   own diversified pointer back, never the master's. *)
let test_epoll_translation_lockstep backend_cfg () =
  let kernel = Kernel.create () in
  let got = Array.make 2 0L in
  let body (env : Mvee.env) =
    let my_ptr = env.Mvee.diversified_ptr 1 in
    match sys Syscall.Pipe with
    | Syscall.Ok_pair (rfd, wfd) -> (
      let epfd =
        match sys Syscall.Epoll_create with
        | Syscall.Ok_int fd -> fd
        | _ -> Alcotest.fail "epoll_create"
      in
      (match
         sys
           (Syscall.Epoll_ctl
              { epfd; op = Syscall.Epoll_add; fd = rfd; events = Syscall.ev_in;
                user_data = my_ptr })
       with
      | Syscall.Ok_int 0 -> ()
      | _ -> Alcotest.fail "epoll_ctl");
      ignore (sys (Syscall.Write (wfd, "!")));
      match sys (Syscall.Epoll_wait { epfd; max_events = 4; timeout_ns = None }) with
      | Syscall.Ok_epoll [ (ud, _) ] -> got.(env.Mvee.variant) <- ud
      | _ -> Alcotest.fail "epoll_wait")
    | _ -> Alcotest.fail "pipe"
  in
  let h = Mvee.launch kernel backend_cfg ~name:"epolltrans" ~body in
  Kernel.run kernel;
  let o = Mvee.finish h in
  (match o.Mvee.verdict with
  | None -> ()
  | Some v -> Alcotest.failf "verdict: %s" (Divergence.to_string v));
  Alcotest.(check bool) "pointers differ across replicas (diversified)" true
    (not (Int64.equal got.(0) got.(1)));
  Alcotest.(check bool) "both non-zero" true
    (Int64.compare got.(0) 0L > 0 && Int64.compare got.(1) 0L > 0)

(* A replica that silently stops making syscalls trips the watchdog. *)
let test_rendezvous_watchdog () =
  let kernel = Kernel.create () in
  let config = { (ghumvee ()) with Mvee.watchdog_ns = Vtime.ms 50 } in
  let body (env : Mvee.env) =
    ignore (sys Syscall.Getpid);
    if env.Mvee.variant = 1 then
      (* compromised replica spins forever in userspace *)
      Sched.compute (Vtime.s 3600)
    else ignore (sys Syscall.Gettimeofday)
  in
  let h = Mvee.launch kernel config ~name:"watchdog" ~body in
  Kernel.run ~until:(Vtime.s 7200) kernel;
  match (Mvee.finish h).Mvee.verdict with
  | Some (Divergence.Rendezvous_timeout { missing; _ }) ->
    Alcotest.(check (list int)) "variant 1 missing" [ 1 ] missing
  | Some v -> Alcotest.failf "wrong verdict: %s" (Divergence.to_string v)
  | None -> Alcotest.fail "watchdog did not fire"

(* RB overflow: a tiny buffer forces GHUMVEE-arbitrated resets, and the
   run still completes correctly. *)
let test_rb_overflow_end_to_end () =
  let kernel = Kernel.create () in
  let config =
    { (remon ~policy:(Policy.spatial Classification.Nonsocket_rw_level) ()) with
      Mvee.rb_size = 2048 }
  in
  let body (_ : Mvee.env) =
    let fd =
      match sys (Syscall.Open ("/tmp/ovf.bin", { Syscall.o_rdwr with create = true })) with
      | Syscall.Ok_int fd -> fd
      | _ -> Alcotest.fail "open"
    in
    for _ = 1 to 100 do
      ignore (sys (Syscall.Pwrite64 (fd, String.make 64 'x', 0)))
    done;
    ignore (sys (Syscall.Close fd))
  in
  let h = Mvee.launch kernel config ~name:"rbovf" ~body in
  Kernel.run kernel;
  let o = Mvee.finish h in
  (match o.Mvee.verdict with
  | None -> ()
  | Some v -> Alcotest.failf "verdict: %s" (Divergence.to_string v));
  Alcotest.(check bool) "buffer was reset at least once" true (o.Mvee.rb_resets > 0);
  Alcotest.(check bool) "fast path still used" true (o.Mvee.ipmon_fastpath > 100)

(* RB overflow with a blocked call in flight. A helper thread parks a
   blocking pipe read (its record appended, its result unpublished) while
   the main thread streams records. The main thread then feeds the pipe and
   overflows a 4 KiB RB several times over, concurrently with the helper's
   own stream, so drains and resets interleave with two ranks' records.
   Each thread works on its own file and fds, so every digested result
   (byte counts, read data, errnos) is scheduling-invariant: the master
   digest must be the same on all four backends, and every slave must see
   the master's results. *)

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

let in_flight_body (digests : string array) (env : Mvee.env) =
  let open Remon_workloads in
  let main_buf = Buffer.create 512 in
  let helper_buf = Buffer.create 512 in
  let helper_done = ref false in
  let pipe_r, pipe_w = Api.pipe () in
  let rw = { Syscall.o_rdwr with create = true } in
  let helper_fd = Api.open_file ~flags:rw "/tmp/rb-ovf-h" in
  ignore
    (env.Mvee.spawn_thread (fun () ->
         (* blocks until the main thread feeds the pipe *)
         digest_result helper_buf "hr" (sys (Syscall.Read (pipe_r, 9)));
         for j = 0 to 11 do
           let s = Printf.sprintf "helper-%02d-%s" j (String.make 80 'h') in
           digest_result helper_buf "hw"
             (sys (Syscall.Pwrite64 (helper_fd, s, j * 128)));
           digest_result helper_buf "hrd"
             (sys (Syscall.Pread64 (helper_fd, String.length s, j * 128)))
         done;
         helper_done := true));
  let main_fd = Api.open_file ~flags:rw "/tmp/rb-ovf-m" in
  let main_rw j =
    let s = Printf.sprintf "main-%02d-%s" j (String.make 200 'm') in
    digest_result main_buf "mw" (sys (Syscall.Pwrite64 (main_fd, s, j * 256)));
    digest_result main_buf "mr"
      (sys (Syscall.Pread64 (main_fd, String.length s, j * 256)))
  in
  (* a few records while the helper's read is parked, then feed the pipe
     BEFORE the buffer can overflow: an overflow wait needs the slaves fully
     drained, and they cannot drain past a blocked call's unresulted record,
     so the blocking window must not overlap the waits *)
  for j = 0 to 3 do
    main_rw j
  done;
  digest_result main_buf "mp" (sys (Syscall.Write (pipe_w, "unblocked")));
  for j = 4 to 59 do
    main_rw j
  done;
  Sched.wait_user (fun () -> !helper_done);
  digests.(env.Mvee.variant) <-
    Buffer.contents main_buf ^ "##" ^ Buffer.contents helper_buf

let test_rb_overflow_in_flight () =
  let reference = ref None in
  List.iter
    (fun backend ->
      let name = Mvee.backend_to_string backend in
      let nreplicas = match backend with Mvee.Native -> 1 | _ -> 3 in
      let config =
        {
          Mvee.default_config with
          Mvee.backend;
          nreplicas;
          seed = 7;
          policy =
            (match backend with
            | Mvee.Ghumvee_only -> Policy.monitor_everything
            | _ -> Policy.spatial Classification.Nonsocket_rw_level);
          (* ~360 bytes per record against a 4 KiB buffer *)
          rb_size = 4096;
        }
      in
      let digests = Array.make nreplicas "<unfinished>" in
      let kernel = Kernel.create ~seed:7 () in
      let h =
        Mvee.launch kernel config ~name:"rb-ovf" ~body:(in_flight_body digests)
      in
      Kernel.run kernel;
      let o = Mvee.finish h in
      (match o.Mvee.verdict with
      | None -> ()
      | Some v -> Alcotest.failf "%s verdict: %s" name (Divergence.to_string v));
      (match !reference with
      | None -> reference := Some digests.(0)
      | Some r ->
        Alcotest.(check string) (name ^ " master digest vs native") r digests.(0));
      Array.iteri
        (fun v d ->
          Alcotest.(check string)
            (Printf.sprintf "%s replica %d digest vs master" name v)
            digests.(0) d)
        digests;
      match backend with
      | Mvee.Varan | Mvee.Remon ->
        Alcotest.(check bool) (name ^ " hit the reset path") true
          (o.Mvee.rb_resets > 0)
      | Mvee.Native | Mvee.Ghumvee_only -> ())
    [ Mvee.Native; Mvee.Ghumvee_only; Mvee.Varan; Mvee.Remon ]

(* IK-B token mechanics at the unit level. *)
let test_token_single_use () =
  let kernel = Kernel.create () in
  let ikb = Ikb.create ~kernel ~policy:(Policy.spatial Classification.Socket_rw_level) ~seed:5 in
  let p = Kernel.make_process kernel ~name:"tok" ~vm_seed:1 () in
  let th = Kernel.add_thread kernel p ~start_clock:Vtime.zero in
  th.Proc.in_ipmon <- true;
  let call = Syscall.Gettimeofday in
  Hashtbl.replace ikb.Ikb.tokens th.Proc.tid
    { Ikb.value = 77L; granted_for = call; live = true; temporal = false };
  Alcotest.(check bool) "valid token accepted once" true
    (Ikb.verify ikb th ~token:77L ~call);
  Alcotest.(check bool) "second use rejected (single-shot)" false
    (Ikb.verify ikb th ~token:77L ~call)

let test_token_wrong_call () =
  let kernel = Kernel.create () in
  let ikb = Ikb.create ~kernel ~policy:(Policy.spatial Classification.Socket_rw_level) ~seed:6 in
  let p = Kernel.make_process kernel ~name:"tok2" ~vm_seed:1 () in
  let th = Kernel.add_thread kernel p ~start_clock:Vtime.zero in
  th.Proc.in_ipmon <- true;
  Hashtbl.replace ikb.Ikb.tokens th.Proc.tid
    { Ikb.value = 88L; granted_for = Syscall.Gettimeofday; live = true; temporal = false };
  Alcotest.(check bool) "different call rejected" false
    (Ikb.verify ikb th ~token:88L ~call:(Syscall.Read (0, 16)));
  Alcotest.(check bool) "token revoked by the failed attempt" false
    (Ikb.verify ikb th ~token:88L ~call:Syscall.Gettimeofday)

let test_token_requires_ipmon_context () =
  let kernel = Kernel.create () in
  let ikb = Ikb.create ~kernel ~policy:(Policy.spatial Classification.Socket_rw_level) ~seed:7 in
  let p = Kernel.make_process kernel ~name:"tok3" ~vm_seed:1 () in
  let th = Kernel.add_thread kernel p ~start_clock:Vtime.zero in
  th.Proc.in_ipmon <- false (* attacker jumped over IP-MON's entry point *);
  Hashtbl.replace ikb.Ikb.tokens th.Proc.tid
    { Ikb.value = 99L; granted_for = Syscall.Gettimeofday; live = true; temporal = false };
  Alcotest.(check bool) "call from outside IP-MON rejected" false
    (Ikb.verify ikb th ~token:99L ~call:Syscall.Gettimeofday)

(* Section 4 extension: IK-B periodically migrates the RB to fresh
   addresses; IP-MON keeps working because its pointer is register-held. *)
let test_rb_migration () =
  let kernel = Kernel.create () in
  let config =
    {
      (remon ~policy:(Policy.spatial Classification.Nonsocket_rw_level) ()) with
      Mvee.rb_migration_interval = Some (Vtime.ms 1);
    }
  in
  let addresses = ref [] in
  let body (_ : Mvee.env) =
    let fd =
      match sys (Syscall.Open ("/tmp/mig.bin", { Syscall.o_rdwr with create = true })) with
      | Syscall.Ok_int fd -> fd
      | _ -> Alcotest.fail "open"
    in
    for _ = 1 to 40 do
      Sched.compute (Vtime.us 200);
      ignore (sys (Syscall.Pwrite64 (fd, "m", 0)));
      let th = Sched.self () in
      (match th.Proc.proc.Proc.ipmon_registered with
      | Some reg ->
        if not (List.mem reg.Proc.rb_addr !addresses) then
          addresses := reg.Proc.rb_addr :: !addresses
      | None -> ())
    done;
    ignore (sys (Syscall.Close fd))
  in
  let h = Mvee.launch kernel config ~name:"rbmig" ~body in
  Kernel.run kernel;
  let o = Mvee.finish h in
  (match o.Mvee.verdict with
  | None -> ()
  | Some v -> Alcotest.failf "verdict: %s" (Divergence.to_string v));
  Alcotest.(check bool)
    (Printf.sprintf "RB observed at %d addresses" (List.length !addresses))
    true
    (List.length !addresses >= 3);
  Alcotest.(check bool) "fast path survived migrations" true
    (o.Mvee.ipmon_fastpath > 50)

let prop_tokens_unique =
  QCheck2.Test.make ~name:"token stream has no collisions" ~count:20
    QCheck2.Gen.small_int
    (fun seed ->
      let rng = Remon_util.Rng.make seed in
      let seen = Hashtbl.create 4096 in
      let ok = ref true in
      for _ = 1 to 2000 do
        let tok = Remon_util.Rng.int64 rng in
        if Hashtbl.mem seen tok then ok := false;
        Hashtbl.replace seen tok ()
      done;
      !ok)

let tc = Alcotest.test_case

let () =
  Alcotest.run "monitor"
    [
      ( "signals",
        [
          tc "deferral consistency (remon)" `Quick
            (test_signal_deferral_consistency (remon ()));
          tc "deferral consistency (ghumvee)" `Quick
            (test_signal_deferral_consistency (ghumvee ()));
          tc "blocked call aborted for delivery" `Quick
            test_signal_aborts_blocked_call;
        ] );
      ( "verdicts",
        [
          tc "exit code mismatch" `Quick test_exit_code_mismatch;
          tc "rendezvous watchdog" `Quick test_rendezvous_watchdog;
        ] );
      ( "epoll",
        [
          tc "pointer translation (lockstep)" `Quick
            (test_epoll_translation_lockstep (ghumvee ()));
          tc "pointer translation (ipmon)" `Quick
            (test_epoll_translation_lockstep (remon ()));
        ] );
      ( "rb",
        [
          tc "overflow handled end-to-end" `Quick test_rb_overflow_end_to_end;
          tc "periodic migration (Section 4 extension)" `Quick test_rb_migration;
          tc "overflow with a blocked call in flight" `Quick
            test_rb_overflow_in_flight;
        ] );
      ( "tokens",
        [
          tc "single use" `Quick test_token_single_use;
          tc "wrong call rejected + revoked" `Quick test_token_wrong_call;
          tc "requires IP-MON context" `Quick test_token_requires_ipmon_context;
          QCheck_alcotest.to_alcotest prop_tokens_unique;
        ] );
    ]
