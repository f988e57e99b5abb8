(* Phoronix-like workload profiles (Figure 4): each benchmark runs at all
   five spatial exemption levels, so the mixes are chosen to
   reproduce each benchmark's characteristic "staircase" — which level
   unlocks which fraction of its syscall stream. *)

open Remon_core

type entry = {
  bench : string;
  (* paper bars: no-IP-MON, BASE, NONSOCKET_RO, NONSOCKET_RW, SOCKET_RO,
     SOCKET_RW *)
  paper : float array;
  profile : Profile.t;
}

let levels =
  Classification.
    [ Base_level; Nonsocket_ro_level; Nonsocket_rw_level; Socket_ro_level; Socket_rw_level ]

let def bench ~paper ~mix ?(threads = 1) ?(jitter = 0.15) ?(calls = 2500) () =
  let density_hz, mem_pressure =
    Profile.fit ~paper_no:paper.(0) ~paper_ip:paper.(5) ~mix
  in
  {
    bench;
    paper;
    profile =
      Profile.make ~name:("phoronix." ^ bench) ~threads ~density_hz ~mem_pressure
        ~calls ~jitter ~mix
        ~description:("Phoronix " ^ bench ^ " syscall profile")
        ();
  }

(* gzip-style compression: file reads dominate with a write stream. *)
let mix_compress =
  Profile.[
    (0.5, Op_read_file 16384);
    (0.35, Op_write_file 8192);
    (0.1, Op_stat);
    (0.05, Op_gettime);
  ]

(* media encoders: mostly large reads, light writes *)
let mix_encode =
  Profile.[
    (0.6, Op_read_file 32768);
    (0.2, Op_write_file 8192);
    (0.1, Op_stat);
    (0.1, Op_gettime);
  ]

(* network-loopback: raw socket throughput over the loopback interface *)
let mix_loopback =
  Profile.[
    (0.62, Op_sock_rw 1024);
    (0.18, Op_poll_sock);
    (0.12, Op_gettime);
    (0.08, Op_write_file 512);
  ]

(* nginx (Phoronix variant): socket request handling with file reads *)
let mix_nginx_phoronix =
  Profile.[
    (0.5, Op_sock_rw 4096);
    (0.2, Op_poll_sock);
    (0.2, Op_read_file 4096);
    (0.1, Op_gettime);
  ]

let all : entry list =
  [
    def "compress-gzip" ~paper:[| 1.11; 1.11; 1.04; 1.04; 1.04; 1.05 |] ~mix:mix_compress ();
    def "encode-flac" ~paper:[| 1.17; 1.17; 1.08; 1.02; 1.02; 1.02 |] ~mix:mix_encode ();
    def "encode-ogg" ~paper:[| 1.09; 1.10; 1.06; 1.01; 1.01; 1.01 |] ~mix:mix_encode ();
    def "mencoder" ~paper:[| 1.05; 1.04; 1.01; 1.00; 1.00; 1.00 |] ~mix:mix_encode ();
    def "phpbench" ~paper:[| 2.48; 1.90; 1.90; 1.13; 1.13; 1.13 |] ~mix:Profile.mix_interp ();
    def "unpack-linux" ~paper:[| 1.47; 1.48; 1.44; 1.22; 1.17; 1.17 |] ~mix:Profile.mix_unpack ();
    def "network-loopback"
      ~paper:[| 25.46; 25.36; 24.89; 17.03; 9.18; 3.00 |]
      ~mix:mix_loopback ~threads:4 ~calls:4000 ();
    def "nginx"
      ~paper:[| 9.77; 7.76; 7.74; 7.58; 6.65; 3.71 |]
      ~mix:mix_nginx_phoronix ~threads:4 ~calls:4000 ();
  ]

let paper_geomean_no_ipmon = 2.464 (* +146.4% in the text *)
let paper_geomean_socket_rw = 1.412 (* +41.2% *)
