(* Property tests for the binary wire codec (Syswire) and the recording
   container (Recording): encode/decode round-trip identity over randomized
   calls, results and event streams, and totality on malformed input —
   truncated or bit-flipped recordings must fail with a typed error, never
   an escaping exception or an out-of-bounds read. *)

open Remon_kernel
open Remon_core

(* ------------------------------------------------------------------ *)
(* Generators *)

let gen_small = QCheck2.Gen.int_range 0 4096
let gen_fd = QCheck2.Gen.int_range 0 255
let gen_i64 = QCheck2.Gen.(map Int64.of_int int)
let gen_str = QCheck2.Gen.(string_size ~gen:printable (int_range 0 40))

let gen_flags =
  QCheck2.Gen.(
    map
      (fun (read, write, create, (trunc, append, nonblock)) ->
        { Syscall.read; write; create; trunc; append; nonblock })
      (quad bool bool bool (triple bool bool bool)))

let gen_events =
  QCheck2.Gen.(
    map
      (fun (pollin, pollout, pollhup, pollerr) ->
        { Syscall.pollin; pollout; pollhup; pollerr })
      (quad bool bool bool bool))

let gen_prot =
  QCheck2.Gen.(
    map (fun (pr, pw, px) -> { Syscall.pr; pw; px }) (triple bool bool bool))

let gen_timeout = QCheck2.Gen.(option (int_range 0 1_000_000))

let gen_itimer =
  QCheck2.Gen.(
    map
      (fun (interval_ns, value_ns) -> { Syscall.interval_ns; value_ns })
      (pair gen_small gen_small))

(* One generator case per payload shape the codec distinguishes; every
   field that feeds [W.uint] stays non-negative by construction. *)
let gen_call : Syscall.call QCheck2.Gen.t =
  let open QCheck2.Gen in
  oneof
    [
      oneofl
        [
          Syscall.Gettimeofday; Syscall.Time; Syscall.Getpid; Syscall.Gettid;
          Syscall.Getcwd; Syscall.Uname; Syscall.Sched_yield; Syscall.Sync;
          Syscall.Pipe; Syscall.Epoll_create; Syscall.Fork;
          Syscall.Rt_sigreturn; Syscall.Pause; Syscall.Setsid;
        ];
      map (fun c -> Syscall.Clock_gettime c) (oneofl [ `Realtime; `Monotonic ]);
      map (fun n -> Syscall.Nanosleep n) gen_small;
      map (fun n -> Syscall.Getrandom n) gen_small;
      map
        (fun (addr, expected, timeout_ns) ->
          Syscall.Futex (Syscall.Futex_wait { addr; expected; timeout_ns }))
        (triple gen_i64 gen_small gen_timeout);
      map
        (fun (addr, count) ->
          Syscall.Futex (Syscall.Futex_wake { addr; count }))
        (pair gen_i64 gen_small);
      map
        (fun (fd, op) -> Syscall.Ioctl (fd, op))
        (pair gen_fd
           (oneofl
              [
                Syscall.Fionread; Syscall.Fionbio true; Syscall.Fionbio false;
                Syscall.Tiocgwinsz;
              ]));
      map
        (fun (fd, op) -> Syscall.Fcntl (fd, op))
        (pair gen_fd
           (oneof
              [
                return Syscall.F_getfl;
                map (fun nonblock -> Syscall.F_setfl { nonblock }) bool;
                map (fun n -> Syscall.F_dupfd n) gen_fd;
              ]));
      map (fun p -> Syscall.Stat p) gen_str;
      map (fun fd -> Syscall.Fstat fd) gen_fd;
      map
        (fun (fd, off, whence) -> Syscall.Lseek (fd, off, whence))
        (triple gen_fd (int_range (-4096) 4096)
           (oneofl [ Syscall.Seek_set; Syscall.Seek_cur; Syscall.Seek_end ]));
      map (fun (p, a) -> Syscall.Getxattr (p, a)) (pair gen_str gen_str);
      map
        (fun (addr, len) -> Syscall.Madvise { addr; len })
        (pair gen_i64 gen_small);
      map (fun (fd, n) -> Syscall.Read (fd, n)) (pair gen_fd gen_small);
      map
        (fun (fd, lens) -> Syscall.Readv (fd, lens))
        (pair gen_fd (list_size (int_range 0 6) gen_small));
      map
        (fun (fd, n, off) -> Syscall.Pread64 (fd, n, off))
        (triple gen_fd gen_small gen_small);
      map
        (fun (readfds, writefds, timeout_ns) ->
          Syscall.Select { readfds; writefds; timeout_ns })
        (triple
           (list_size (int_range 0 5) gen_fd)
           (list_size (int_range 0 5) gen_fd)
           gen_timeout);
      map
        (fun (fds, timeout_ns) -> Syscall.Poll { fds; timeout_ns })
        (pair (list_size (int_range 0 5) (pair gen_fd gen_events)) gen_timeout);
      map (fun (fd, s) -> Syscall.Write (fd, s)) (pair gen_fd gen_str);
      map
        (fun (fd, ss) -> Syscall.Writev (fd, ss))
        (pair gen_fd (list_size (int_range 0 4) gen_str));
      map
        (fun (fd, s, off) -> Syscall.Pwrite64 (fd, s, off))
        (triple gen_fd gen_str gen_small);
      map
        (fun (epfd, max_events, timeout_ns) ->
          Syscall.Epoll_wait { epfd; max_events; timeout_ns })
        (triple gen_fd (int_range 1 64) gen_timeout);
      map
        (fun ((epfd, op, fd), (events, user_data)) ->
          Syscall.Epoll_ctl { epfd; op; fd; events; user_data })
        (pair
           (triple gen_fd
              (oneofl [ Syscall.Epoll_add; Syscall.Epoll_mod; Syscall.Epoll_del ])
              gen_fd)
           (pair gen_events gen_i64));
      map (fun (fd, s) -> Syscall.Sendto (fd, s)) (pair gen_fd gen_str);
      map
        (fun (out_fd, in_fd, count) -> Syscall.Sendfile { out_fd; in_fd; count })
        (triple gen_fd gen_fd gen_small);
      map (fun (p, f) -> Syscall.Open (p, f)) (pair gen_str gen_flags);
      map (fun fd -> Syscall.Close fd) gen_fd;
      map
        (fun (d, t) -> Syscall.Socket (d, t))
        (pair
           (oneofl [ Syscall.Af_inet; Syscall.Af_unix ])
           (oneofl [ Syscall.Sock_stream; Syscall.Sock_dgram ]));
      map (fun (fd, port) -> Syscall.Bind (fd, port)) (pair gen_fd gen_small);
      map
        (fun (fd, nonblock) -> Syscall.Accept4 { fd; nonblock })
        (pair gen_fd bool);
      map (fun (a, b) -> Syscall.Rename (a, b)) (pair gen_str gen_str);
      map
        (fun (len, prot, kind) -> Syscall.Mmap { len; prot; kind })
        (triple gen_small gen_prot
           (oneof
              [
                return Syscall.Map_anon;
                return Syscall.Map_shared_anon;
                map (fun fd -> Syscall.Map_file fd) gen_fd;
              ]));
      map
        (fun (addr, len) -> Syscall.Munmap { addr; len })
        (pair gen_i64 gen_small);
      map
        (fun (addr, old_len, new_len) -> Syscall.Mremap { addr; old_len; new_len })
        (triple gen_i64 gen_small gen_small);
      map (fun n -> Syscall.Brk n) gen_small;
      map (fun n -> Syscall.Exit n) (int_range 0 255);
      map (fun (pid, sg) -> Syscall.Kill (pid, sg)) (pair gen_small (int_range 1 31));
      map
        (fun (sg, act) -> Syscall.Rt_sigaction (sg, act))
        (pair (int_range 1 31)
           (oneof
              [
                return Syscall.Sig_default;
                return Syscall.Sig_ignore;
                map (fun id -> Syscall.Sig_handler id) gen_small;
              ]));
      map
        (fun (how, sigs) -> Syscall.Rt_sigprocmask (how, sigs))
        (pair
           (oneofl [ Syscall.Sig_block; Syscall.Sig_unblock; Syscall.Sig_setmask ])
           (list_size (int_range 0 5) (int_range 1 31)));
      map
        (fun (key, size, create) -> Syscall.Shmget { key; size; create })
        (triple gen_small gen_small bool);
      map
        (fun (shmid, readonly) -> Syscall.Shmat { shmid; readonly })
        (pair gen_small bool);
      map (fun addr -> Syscall.Shmdt { addr }) gen_i64;
      map
        (fun (calls, rb_addr, entry_addr) ->
          Syscall.Ipmon_register { calls; rb_addr; entry_addr })
        (triple
           (map
              (fun n -> List.filteri (fun i _ -> i mod (n + 1) = 0) Sysno.all)
              (int_range 0 7))
           gen_i64 gen_i64);
      map (fun i -> Syscall.Setitimer i) gen_itimer;
    ]

let gen_errno =
  QCheck2.Gen.oneofl
    [
      Errno.EPERM; Errno.ENOENT; Errno.EINTR; Errno.EIO; Errno.EBADF;
      Errno.EAGAIN; Errno.ENOMEM; Errno.EACCES; Errno.EFAULT; Errno.EEXIST;
      Errno.EINVAL; Errno.ENFILE; Errno.EMFILE; Errno.ENOSPC; Errno.EPIPE;
      Errno.ECONNRESET; Errno.ECONNREFUSED; Errno.ETIMEDOUT; Errno.ENOSYS;
    ]

let gen_stat =
  QCheck2.Gen.(
    map
      (fun ((st_ino, st_size), (st_kind, st_mtime_ns)) ->
        { Syscall.st_ino; st_size; st_kind; st_mtime_ns })
      (pair (pair gen_small gen_small)
         (pair (oneofl [ `Reg; `Dir; `Fifo; `Sock; `Special ]) gen_small)))

let gen_result : Syscall.result QCheck2.Gen.t =
  let open QCheck2.Gen in
  oneof
    [
      return Syscall.Ok_unit;
      map (fun n -> Syscall.Ok_int n) int;
      map (fun n -> Syscall.Ok_int64 n) gen_i64;
      map (fun s -> Syscall.Ok_data s) gen_str;
      map (fun s -> Syscall.Ok_str s) gen_str;
      map (fun s -> Syscall.Ok_stat s) gen_stat;
      map (fun (a, b) -> Syscall.Ok_pair (a, b)) (pair gen_fd gen_fd);
      map
        (fun l -> Syscall.Ok_poll l)
        (list_size (int_range 0 5) (pair gen_fd gen_events));
      map
        (fun l -> Syscall.Ok_epoll l)
        (list_size (int_range 0 5) (pair gen_i64 gen_events));
      map
        (fun (conn_fd, peer_port) -> Syscall.Ok_accept { conn_fd; peer_port })
        (pair gen_fd gen_small);
      map (fun l -> Syscall.Ok_dents l) (list_size (int_range 0 5) gen_str);
      map (fun i -> Syscall.Ok_itimer i) gen_itimer;
      map (fun e -> Syscall.Error e) gen_errno;
    ]

let gen_event : Recording.event QCheck2.Gen.t =
  let open QCheck2.Gen in
  oneof
    [
      map
        (fun ((rank, call), result) -> Recording.Call { rank; call; result })
        (pair (pair (int_range 0 7) gen_call) gen_result);
      map
        (fun (lock_id, thread_rank) -> Recording.Lock { lock_id; thread_rank })
        (pair gen_small (int_range 0 7));
      map
        (fun (rank, signo) -> Recording.Signal { rank; signo })
        (pair (int_range 0 7) (int_range 1 31));
    ]

let gen_recording : Recording.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  map
    (fun ((backend, seed, workload), (events, verdict)) ->
      {
        Recording.header =
          {
            Recording.backend;
            nreplicas = 2;
            seed;
            level = "SOCKET_RW_LEVEL";
            on_failure = "kill-group";
            faults = "";
            workload;
            shm_key = 0;
          };
        events = Array.of_list events;
        verdict;
      })
    (pair
       (triple
          (oneofl [ "native"; "ghumvee"; "varan"; "remon" ])
          gen_small gen_str)
       (pair
          (list_size (int_range 0 40) gen_event)
          (option (pair gen_str gen_str))))

(* ------------------------------------------------------------------ *)
(* Round-trip identity *)

let prop_call_roundtrip =
  QCheck2.Test.make ~name:"call encode/decode round-trips" ~count:2000 gen_call
    (fun call ->
      let w = Syswire.W.create () in
      Syswire.write_call w call;
      let r = Syswire.R.of_string (Syswire.W.contents w) in
      let back = Syswire.read_call r in
      Syscall.equal_call call back && Syswire.R.remaining r = 0)

let prop_result_roundtrip =
  QCheck2.Test.make ~name:"result encode/decode round-trips" ~count:2000
    gen_result (fun result ->
      let w = Syswire.W.create () in
      Syswire.write_result w result;
      let r = Syswire.R.of_string (Syswire.W.contents w) in
      let back = Syswire.read_result r in
      Syscall.equal_result result back && Syswire.R.remaining r = 0)

let prop_recording_roundtrip =
  QCheck2.Test.make ~name:"recording serialize/parse round-trips" ~count:300
    gen_recording (fun t ->
      match Recording.of_string (Recording.to_string t) with
      | Ok back -> Recording.equal t back
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Value equality agrees with byte equality *)

let gen_header_change : (Recording.header -> Recording.header) QCheck2.Gen.t =
  let open QCheck2.Gen in
  oneof
    [
      map
        (fun backend h -> { h with Recording.backend })
        (oneofl [ "native"; "ghumvee"; "varan"; "remon" ]);
      map (fun nreplicas h -> { h with Recording.nreplicas }) (int_range 1 4);
      map (fun seed h -> { h with Recording.seed }) gen_small;
      map
        (fun level h -> { h with Recording.level })
        (oneofl [ "SOCKET_RW_LEVEL"; "NONSOCKET_RW_LEVEL" ]);
      map
        (fun on_failure h -> { h with Recording.on_failure })
        (oneofl [ "kill-group"; "quarantine" ]);
      map
        (fun faults h -> { h with Recording.faults })
        (oneofl [ ""; "args@25:1" ]);
      map (fun workload h -> { h with Recording.workload }) gen_str;
      map (fun shm_key h -> { h with Recording.shm_key }) (int_range 0 3);
    ]

(* One mutation of a recording. A replacement event or header value may
   equal the one it replaces, so both sides of the iff get exercised. *)
let gen_mutation : (Recording.t -> Recording.t) QCheck2.Gen.t =
  let open QCheck2.Gen in
  let at i (t : Recording.t) f =
    let n = Array.length t.Recording.events in
    if n = 0 then t else f (i mod n) t.Recording.events
  in
  oneof
    [
      return (fun (t : Recording.t) ->
          { t with Recording.events = Array.copy t.Recording.events });
      map2
        (fun i ev t ->
          at i t (fun i evs ->
              {
                t with
                Recording.events =
                  Array.mapi (fun j e -> if j = i then ev else e) evs;
              }))
        nat gen_event;
      map
        (fun i t ->
          at i t (fun i evs ->
              {
                t with
                Recording.events =
                  Array.init (Array.length evs - 1) (fun j ->
                      if j < i then evs.(j) else evs.(j + 1));
              }))
        nat;
      map
        (fun change (t : Recording.t) ->
          { t with Recording.header = change t.Recording.header })
        gen_header_change;
      map
        (fun v (t : Recording.t) ->
          {
            t with
            Recording.verdict =
              (match t.Recording.verdict with None -> Some v | Some _ -> None);
          })
        (pair gen_str gen_str);
    ]

let prop_equal_iff_bytes_equal =
  QCheck2.Test.make ~name:"Recording.equal iff serializations are equal"
    ~count:1000
    QCheck2.Gen.(pair gen_recording gen_mutation)
    (fun (a, mutate) ->
      let b = mutate a in
      Recording.equal a b
      = String.equal (Recording.to_string a) (Recording.to_string b))

(* ------------------------------------------------------------------ *)
(* Exact-size encoding *)

(* [W.measure] counts the bytes a growing writer ends up holding, and a
   writer made to that size holds the same bytes. *)
let measure_agrees write =
  let grown = Syswire.W.create ~initial:1 () in
  write grown;
  let n = Syswire.W.measure write in
  let exact = Syswire.W.create ~initial:n () in
  write exact;
  n = Syswire.W.length grown
  && String.equal (Syswire.W.contents exact) (Syswire.W.contents grown)

let prop_call_measure =
  QCheck2.Test.make ~name:"call: counted size = written size" ~count:2000
    gen_call (fun call -> measure_agrees (fun w -> Syswire.write_call w call))

let prop_result_measure =
  QCheck2.Test.make ~name:"result: counted size = written size" ~count:2000
    gen_result (fun result ->
      measure_agrees (fun w -> Syswire.write_result w result))

(* [W.int] takes [W.uint]'s path below 2^61 in magnitude; its bytes must
   be [W.i64]'s on both sides of that bound. *)
let prop_int_is_i64 =
  let bound = 1 lsl 61 in
  QCheck2.Test.make ~name:"int writes i64's bytes" ~count:2000
    QCheck2.Gen.(
      oneof
        [
          int;
          small_signed_int;
          oneofl [ bound - 1; bound; -bound; -bound - 1; max_int; min_int ];
        ])
    (fun n ->
      let bytes write =
        let w = Syswire.W.create () in
        write w;
        Syswire.W.contents w
      in
      String.equal
        (bytes (fun w -> Syswire.W.int w n))
        (bytes (fun w -> Syswire.W.i64 w (Int64.of_int n))))

(* Encoding writes each byte once, into a buffer of exactly its size: the
   major heap takes about one copy of the output, where a doubling buffer
   copied out at the end takes three to five. *)
let test_encode_allocates_one_copy () =
  let payload = String.make 4096 'x' in
  let call = Syscall.Write (3, payload) in
  let t =
    {
      Recording.header =
        {
          Recording.backend = "remon";
          nreplicas = 2;
          seed = 1;
          level = "SOCKET_RW_LEVEL";
          on_failure = "kill-group";
          faults = "";
          workload = "";
          shm_key = 0;
        };
      events =
        Array.init 1100 (fun rank ->
            Recording.Call { rank = rank mod 4; call; result = Syscall.Ok_int 4096 });
      verdict = None;
    }
  in
  let major_words f =
    let _, _, before = Gc.counters () in
    let r = f () in
    let _, _, after = Gc.counters () in
    (r, after -. before)
  in
  let words bytes = float_of_int (bytes / (Sys.word_size / 8)) in
  let s, encode = major_words (fun () -> Recording.to_string t) in
  Alcotest.(check bool) "at least 4 MB of payload" true (String.length s >= 4 lsl 20);
  if encode >= 1.25 *. words (String.length s) then
    Alcotest.failf "to_string: %.0f major words for a %d-byte output" encode
      (String.length s);
  let _, digest = major_words (fun () -> Recording.stream_digest t) in
  if digest >= 1.25 *. words (String.length s) then
    Alcotest.failf "stream_digest: %.0f major words for a %d-byte recording" digest
      (String.length s)

(* ------------------------------------------------------------------ *)
(* Totality on malformed input: typed error, never an exception *)

let decodes_with_typed_error s =
  match Recording.of_string s with
  | Ok _ -> false (* malformed input must not parse *)
  | Error (Syswire.Truncated | Syswire.Corrupt _) -> true
  | exception _ -> false

let prop_truncation_is_typed =
  QCheck2.Test.make ~name:"every strict prefix fails with a typed error"
    ~count:60
    QCheck2.Gen.(pair gen_recording (int_range 0 1_000_000))
    (fun (t, cut) ->
      let s = Recording.to_string t in
      let cut = cut mod String.length s in
      decodes_with_typed_error (String.sub s 0 cut))

let prop_bitflip_is_typed =
  QCheck2.Test.make ~name:"any single bit flip fails with a typed error"
    ~count:200
    QCheck2.Gen.(triple gen_recording (int_range 0 1_000_000) (int_range 0 7))
    (fun (t, pos, bit) ->
      let s = Bytes.of_string (Recording.to_string t) in
      let pos = pos mod Bytes.length s in
      Bytes.set s pos
        (Char.chr (Char.code (Bytes.get s pos) lxor (1 lsl bit)));
      decodes_with_typed_error (Bytes.to_string s))

let prop_trailing_bytes_rejected =
  QCheck2.Test.make ~name:"trailing bytes are rejected" ~count:60 gen_recording
    (fun t -> decodes_with_typed_error (Recording.to_string t ^ "\x00"))

let test_bad_magic () =
  match Recording.of_string "NOPE\x01rest" with
  | Error (Syswire.Corrupt _) -> ()
  | Error Syswire.Truncated -> Alcotest.fail "expected Corrupt, got Truncated"
  | Ok _ -> Alcotest.fail "bad magic parsed"

let test_unknown_version () =
  (* valid magic, version from the future: must fail typed, not raise *)
  let s = Recording.to_string (QCheck2.Gen.generate1 gen_recording) in
  let s = Bytes.of_string s in
  Bytes.set s 4 '\x63';
  match Recording.of_string (Bytes.to_string s) with
  | Error (Syswire.Corrupt msg) ->
    Alcotest.(check bool) "mentions version" true
      (String.length msg > 0)
  | Error Syswire.Truncated -> Alcotest.fail "expected Corrupt, got Truncated"
  | Ok _ -> Alcotest.fail "unknown version parsed"

let test_empty_and_garbage () =
  List.iter
    (fun s ->
      match Recording.of_string s with
      | Ok _ -> Alcotest.failf "garbage %S parsed" s
      | Error _ -> ())
    [ ""; "R"; "RMRC"; "RMRC\x01"; String.make 64 '\xff'; String.make 3 '\x00' ]

(* Event tag 3 (a batching-ring flush boundary: reason string + count) is
   retired. A file carrying one under a valid checksum is corrupt, not a
   crash. The same bytes with a tag-2 signal event decode, so the error
   comes from the tag alone. *)
let test_retired_tag_3 () =
  let craft write_event =
    let w = Syswire.W.create () in
    String.iter (fun c -> Syswire.W.u8 w (Char.code c)) "RMRC";
    Syswire.W.u8 w Recording.version;
    (* header: backend, nreplicas, seed, level, on_failure, faults,
       workload, shm_key *)
    Syswire.W.str w "remon";
    Syswire.W.uint w 2;
    Syswire.W.int w 42;
    List.iter (Syswire.W.str w) [ "SOCKET_RW_LEVEL"; "kill-group"; ""; "" ];
    Syswire.W.uint w 0;
    Syswire.W.uint w 1;
    write_event w;
    Syswire.W.bool w false;
    let body = Syswire.W.contents w in
    Syswire.W.str w (Digest.string body);
    Syswire.W.contents w
  in
  let signal =
    craft (fun w ->
        Syswire.W.u8 w 2;
        Syswire.W.uint w 0;
        Syswire.W.uint w 10)
  in
  (match Recording.of_string signal with
  | Ok r ->
    Alcotest.(check int) "control decodes one event" 1
      (Array.length r.Recording.events)
  | Error _ -> Alcotest.fail "control recording rejected");
  let flush =
    craft (fun w ->
        Syswire.W.u8 w 3;
        Syswire.W.str w "full";
        Syswire.W.uint w 8)
  in
  match Recording.of_string flush with
  | Error (Syswire.Corrupt _) -> ()
  | Error Syswire.Truncated -> Alcotest.fail "expected Corrupt, got Truncated"
  | Ok _ -> Alcotest.fail "retired tag 3 parsed"
  | exception e -> Alcotest.failf "raised %s" (Printexc.to_string e)

(* A failed write leaves no tmp file behind: here the rename fails
   because the target is an existing directory. The tmp file sits beside
   its target, named "<target>.<domain id>.tmp". *)
let test_to_file_failure_cleans_up () =
  let dir = Filename.temp_dir "rmrc" "" in
  let tmp_files path =
    let prefix = Filename.basename path ^ "." in
    Sys.readdir (Filename.dirname path)
    |> Array.to_list
    |> List.filter (fun f ->
           String.starts_with ~prefix f && Filename.check_suffix f ".tmp")
    |> List.map (Filename.concat (Filename.dirname path))
  in
  let t =
    QCheck2.Gen.generate1 ~rand:(Random.State.make [| 1 |]) gen_recording
  in
  (match Recording.to_file t dir with
  | () -> Alcotest.fail "wrote a recording over a directory"
  | exception Sys_error _ -> ());
  let leftover = tmp_files dir in
  List.iter Sys.remove leftover;
  Alcotest.(check (list string)) "tmp file removed" [] leftover;
  let path = Filename.concat dir "ok.rmrc" in
  Recording.to_file t path;
  (match Recording.of_file path with
  | Ok back ->
    Alcotest.(check bool) "written file reads back" true (Recording.equal t back)
  | Error e -> Alcotest.fail (Syswire.error_to_string e));
  Alcotest.(check (list string))
    "no tmp file after success" [] (tmp_files path);
  Sys.remove path;
  Sys.rmdir dir

(* Varint edge cases straight through the W/R modules. *)
let test_varint_edges () =
  let round_int n =
    let w = Syswire.W.create () in
    Syswire.W.int w n;
    let r = Syswire.R.of_string (Syswire.W.contents w) in
    Alcotest.(check int) (Printf.sprintf "int %d" n) n (Syswire.R.int r)
  in
  List.iter round_int [ 0; 1; -1; 63; 64; -64; -65; max_int; min_int + 1 ];
  let round_i64 n =
    let w = Syswire.W.create () in
    Syswire.W.i64 w n;
    let r = Syswire.R.of_string (Syswire.W.contents w) in
    Alcotest.(check int64) (Int64.to_string n) n (Syswire.R.i64 r)
  in
  List.iter round_i64 [ 0L; 1L; -1L; Int64.max_int; Int64.min_int ];
  (* overlong/unterminated varints must fail typed *)
  (match Syswire.R.uint (Syswire.R.of_string (String.make 12 '\xff')) with
  | _ -> Alcotest.fail "overlong varint decoded"
  | exception Syswire.Fail _ -> ());
  match Syswire.R.uint (Syswire.R.of_string "\xff") with
  | _ -> Alcotest.fail "unterminated varint decoded"
  | exception Syswire.Fail _ -> ()

let () =
  Alcotest.run "wire"
    [
      ( "roundtrip",
        [
          QCheck_alcotest.to_alcotest prop_call_roundtrip;
          QCheck_alcotest.to_alcotest prop_result_roundtrip;
          QCheck_alcotest.to_alcotest prop_recording_roundtrip;
          QCheck_alcotest.to_alcotest prop_equal_iff_bytes_equal;
        ] );
      ( "measure",
        [
          QCheck_alcotest.to_alcotest prop_call_measure;
          QCheck_alcotest.to_alcotest prop_result_measure;
          QCheck_alcotest.to_alcotest prop_int_is_i64;
          Alcotest.test_case "encoding allocates one copy" `Quick
            test_encode_allocates_one_copy;
        ] );
      ( "malformed",
        [
          QCheck_alcotest.to_alcotest prop_truncation_is_typed;
          QCheck_alcotest.to_alcotest prop_bitflip_is_typed;
          QCheck_alcotest.to_alcotest prop_trailing_bytes_rejected;
          Alcotest.test_case "bad magic" `Quick test_bad_magic;
          Alcotest.test_case "unknown version" `Quick test_unknown_version;
          Alcotest.test_case "empty and garbage" `Quick test_empty_and_garbage;
          Alcotest.test_case "varint edges" `Quick test_varint_edges;
          Alcotest.test_case "retired event tag 3" `Quick test_retired_tag_3;
        ] );
      ( "file",
        [
          Alcotest.test_case "to_file cleans up on failure" `Quick
            test_to_file_failure_cleans_up;
        ] );
    ]
