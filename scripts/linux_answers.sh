#!/usr/bin/env bash
# The host kernel's answers to test/test_answers' matrix: every descriptor
# kind against the read, write, seek, stat, lock, poll and socket calls, then
# the timer sequence, printed in test_answers' format.
#
#   scripts/linux_answers.sh | diff test/test_answers.expected -
#
# Needs gcc and Linux. Each row runs in a forked child that opens a fresh
# descriptor of its kind; a call still blocked after 200 ms prints `parked`.
# The timer rows sleep in real time (about 7 s) and round times to
# milliseconds. The listener binds 127.0.0.1:7400. Which differences are
# expected, and why, is listed in DESIGN.md §7. Not a CI gate: kernels
# differ between hosts.
set -euo pipefail

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

cat > "$work/answers.c" <<'EOF'
#define _GNU_SOURCE
#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/file.h>
#include <sys/ioctl.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <sys/timerfd.h>
#include <sys/types.h>
#include <sys/uio.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

static char answer[64];

static void errno_answer(void) {
  static const struct { int e; const char *name; } names[] = {
    {EPERM, "EPERM"}, {ENOENT, "ENOENT"}, {EINTR, "EINTR"}, {EBADF, "EBADF"},
    {EAGAIN, "EAGAIN"}, {EFAULT, "EFAULT"}, {ENOTDIR, "ENOTDIR"},
    {EISDIR, "EISDIR"}, {EINVAL, "EINVAL"}, {ESPIPE, "ESPIPE"},
    {EPIPE, "EPIPE"}, {ENOTSOCK, "ENOTSOCK"}, {ENOTCONN, "ENOTCONN"},
    {EOPNOTSUPP, "EOPNOTSUPP"}, {ENOTTY, "ENOTTY"}, {EDESTADDRREQ, "EDESTADDRREQ"},
    {EADDRINUSE, "EADDRINUSE"}, {ECONNREFUSED, "ECONNREFUSED"},
  };
  for (size_t i = 0; i < sizeof names / sizeof names[0]; i++)
    if (names[i].e == errno) {
      snprintf(answer, sizeof answer, "%s", names[i].name);
      return;
    }
  snprintf(answer, sizeof answer, "errno %d", errno);
}

static void num(long r) {
  if (r < 0) errno_answer();
  else snprintf(answer, sizeof answer, "%ld", r);
}

static int must(int fd) {
  if (fd < 0) { perror("setup"); exit(2); }
  return fd;
}

/* ---- each kind's fresh descriptor ---- */

static int open_kind(const char *kind) {
  int sv[2];
  if (!strcmp(kind, "file")) {
    int fd = must(open("answers", O_RDWR | O_CREAT | O_TRUNC, 0644));
    if (write(fd, "hello, world\n", 13) != 13) exit(2);
    lseek(fd, 0, SEEK_SET);
    return fd;
  }
  if (!strcmp(kind, "dir")) {
    mkdir("answers.d", 0755);
    return must(open("answers.d", O_RDONLY | O_DIRECTORY));
  }
  if (!strcmp(kind, "null")) return must(open("/dev/null", O_RDWR));
  if (!strcmp(kind, "maps")) return must(open("/proc/self/maps", O_RDONLY));
  if (!strcmp(kind, "pipe-r")) { must(pipe(sv)); return sv[0]; }
  if (!strcmp(kind, "pipe-w")) { must(pipe(sv)); return sv[1]; }
  if (!strcmp(kind, "socketpair")) {
    must(socketpair(AF_UNIX, SOCK_STREAM, 0, sv));
    return sv[0];
  }
  if (!strcmp(kind, "socket")) return must(socket(AF_INET, SOCK_STREAM, 0));
  if (!strcmp(kind, "listener")) {
    int fd = must(socket(AF_INET, SOCK_STREAM, 0)), one = 1;
    struct sockaddr_in a = {.sin_family = AF_INET, .sin_port = htons(7400)};
    a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    must(bind(fd, (struct sockaddr *)&a, sizeof a));
    must(listen(fd, 8));
    return fd;
  }
  if (!strcmp(kind, "epoll")) return must(epoll_create1(0));
  if (!strcmp(kind, "timerfd")) return must(timerfd_create(CLOCK_MONOTONIC, 0));
  if (!strcmp(kind, "eventfd")) return must(eventfd(0, 0));
  exit(2);
}

/* ---- the calls ---- */

static const char eight[8] = {1, 0, 0, 0, 0, 0, 0, 0}; /* an eventfd's u64 1 */

static void port_answer(int r, struct sockaddr_storage *ss) {
  if (r < 0) errno_answer();
  else if (ss->ss_family == AF_INET)
    snprintf(answer, sizeof answer, "%d", ntohs(((struct sockaddr_in *)ss)->sin_port));
  else snprintf(answer, sizeof answer, "0");
}

static void call(const char *name, int fd) {
  char buf[4096];
  struct iovec iov = {buf, 0};
  struct stat st;
  struct sockaddr_storage ss;
  socklen_t len = sizeof ss;
  int n = 0;
  if (!strcmp(name, "read 0")) num(read(fd, buf, 0));
  else if (!strcmp(name, "read 8")) num(read(fd, buf, 8));
  else if (!strcmp(name, "readv 0")) num(readv(fd, &iov, 1));
  else if (!strcmp(name, "readv 8")) { iov.iov_len = 8; num(readv(fd, &iov, 1)); }
  else if (!strcmp(name, "pread64 0")) num(pread(fd, buf, 0, 0));
  else if (!strcmp(name, "pread64 8")) num(pread(fd, buf, 8, 0));
  else if (!strcmp(name, "recvfrom 0")) num(recvfrom(fd, buf, 0, 0, NULL, NULL));
  else if (!strcmp(name, "recvfrom 8")) num(recvfrom(fd, buf, 8, 0, NULL, NULL));
  else if (!strcmp(name, "write 0")) num(write(fd, eight, 0));
  else if (!strcmp(name, "write 8")) num(write(fd, eight, 8));
  else if (!strcmp(name, "pwrite64 0")) num(pwrite(fd, eight, 0, 0));
  else if (!strcmp(name, "pwrite64 8")) num(pwrite(fd, eight, 8, 0));
  else if (!strcmp(name, "sendto 0")) num(sendto(fd, eight, 0, 0, NULL, 0));
  else if (!strcmp(name, "sendto 8")) num(sendto(fd, eight, 8, 0, NULL, 0));
  else if (!strcmp(name, "lseek")) num(lseek(fd, 0, SEEK_CUR));
  else if (!strcmp(name, "fstat")) {
    if (fstat(fd, &st) < 0) errno_answer();
    else
      snprintf(answer, sizeof answer, "%s",
               S_ISREG(st.st_mode) ? "reg" : S_ISDIR(st.st_mode) ? "dir"
               : S_ISFIFO(st.st_mode) ? "fifo" : S_ISSOCK(st.st_mode) ? "sock"
               : "special");
  } else if (!strcmp(name, "fionread")) {
    if (ioctl(fd, FIONREAD, &n) < 0) errno_answer();
    else num(n);
  } else if (!strcmp(name, "flock")) num(flock(fd, LOCK_EX));
  else if (!strcmp(name, "epoll_ctl")) {
    struct epoll_event ev = {.events = EPOLLIN};
    num(epoll_ctl(must(epoll_create1(0)), EPOLL_CTL_ADD, fd, &ev));
  } else if (!strcmp(name, "getdents64")) {
    long r = syscall(SYS_getdents64, fd, buf, sizeof buf);
    if (r < 0) errno_answer();
    else snprintf(answer, sizeof answer, "ok");
  } else if (!strcmp(name, "ftruncate")) num(ftruncate(fd, 0));
  else if (!strcmp(name, "shutdown")) num(shutdown(fd, SHUT_RDWR));
  else if (!strcmp(name, "getsockname"))
    port_answer(getsockname(fd, (struct sockaddr *)&ss, &len), &ss);
  else if (!strcmp(name, "getpeername"))
    port_answer(getpeername(fd, (struct sockaddr *)&ss, &len), &ss);
  else if (!strcmp(name, "accept")) {
    if (accept(fd, NULL, NULL) < 0) errno_answer();
    else snprintf(answer, sizeof answer, "accepted");
  } else exit(2);
}

/* One row in a child; a child still blocked when its timer fires dies of
   SIGALRM and the row reads `parked`. */
static void row(const char *kind, const char *name) {
  int out[2];
  char got[64] = "";
  must(pipe(out));
  pid_t pid = fork();
  if (pid == 0) {
    close(out[0]);
    signal(SIGPIPE, SIG_IGN);
    int fd = open_kind(kind);
    struct itimerval t = {.it_value = {0, 200000}};
    setitimer(ITIMER_REAL, &t, NULL);
    call(name, fd);
    if (write(out[1], answer, strlen(answer)) < 0) _exit(2);
    _exit(0);
  }
  close(out[1]);
  ssize_t r = read(out[0], got, sizeof got - 1);
  close(out[0]);
  int status;
  waitpid(pid, &status, 0);
  if (WIFSIGNALED(status) && WTERMSIG(status) == SIGALRM) strcpy(got, "parked");
  else if (r <= 0) strcpy(got, "?");
  printf("%s %s -> %s\n", kind, name, got);
  fflush(stdout);
}

/* ---- the timer sequence ---- */

static void secs(long long ns, char *to) {
  long long ms = (ns + 500000) / 1000000;
  sprintf(to, "%lld.%03lld", ms / 1000, ms % 1000);
}

static void spec(long long value_ns, long long interval_ns) {
  char v[32], i[32];
  secs(value_ns, v);
  secs(interval_ns, i);
  snprintf(answer, sizeof answer, "%s/%s", v, i);
}

static void itimer_answer(void) {
  struct itimerval t;
  getitimer(ITIMER_REAL, &t);
  spec(t.it_value.tv_sec * 1000000000LL + t.it_value.tv_usec * 1000LL,
       t.it_interval.tv_sec * 1000000000LL + t.it_interval.tv_usec * 1000LL);
}

static void timerfd_answer(int tfd) {
  struct itimerspec t;
  if (timerfd_gettime(tfd, &t) < 0) { errno_answer(); return; }
  spec(t.it_value.tv_sec * 1000000000LL + t.it_value.tv_nsec,
       t.it_interval.tv_sec * 1000000000LL + t.it_interval.tv_nsec);
}

static void print(const char *label) { printf("timer %s -> %s\n", label, answer); }

static void arm(long value_ms, long interval_ms) {
  struct itimerval t = {{interval_ms / 1000, interval_ms % 1000 * 1000},
                        {value_ms / 1000, value_ms % 1000 * 1000}};
  setitimer(ITIMER_REAL, &t, NULL);
}

static void arm_fd(int tfd, long value_s, long interval_s) {
  struct itimerspec t = {{interval_s, 0}, {value_s, 0}};
  timerfd_settime(tfd, 0, &t, NULL);
}

static void sleep_ms(long ms) {
  struct timespec t = {ms / 1000, ms % 1000 * 1000000L};
  nanosleep(&t, NULL);
}

static void timer_rows(void) {
  signal(SIGALRM, SIG_IGN);
  arm(5000, 0);
  num(alarm(10)); print("alarm(10) after setitimer(5s)");
  itimer_answer(); print("getitimer");
  arm(5000, 1000);
  sleep_ms(2000);
  itimer_answer(); print("getitimer 2s after setitimer(5s,1s)");
  num(alarm(0)); print("alarm(0)");
  itimer_answer(); print("getitimer");
  arm(0, 0);
  int tfd = must(timerfd_create(CLOCK_MONOTONIC, 0));
  arm_fd(tfd, 5, 1);
  sleep_ms(2000);
  timerfd_answer(tfd); print("timerfd_gettime 2s after settime(5s,1s)");
  arm_fd(tfd, 1, 0);
  sleep_ms(1500);
  timerfd_answer(tfd); print("timerfd_gettime after a one-shot fired");
  uint64_t ticks;
  if (read(tfd, &ticks, 8) < 0) errno_answer();
  else snprintf(answer, sizeof answer, "%llu", (unsigned long long)ticks);
  print("timerfd read after a one-shot fired");
  alarm(1);
  sleep_ms(800);
  num(alarm(0)); print("alarm(0) with 0.2s left");
  alarm(3);
  sleep_ms(600);
  num(alarm(0)); print("alarm(0) with 2.4s left");
}

int main(void) {
  static const char *kinds[] = {"file", "dir", "null", "maps", "pipe-r",
                                "pipe-w", "socketpair", "socket", "listener",
                                "epoll", "timerfd", "eventfd"};
  static const char *calls[] = {
    "read 0", "read 8", "readv 0", "readv 8", "pread64 0", "pread64 8",
    "recvfrom 0", "recvfrom 8", "write 0", "write 8", "pwrite64 0",
    "pwrite64 8", "sendto 0", "sendto 8", "lseek", "fstat", "fionread",
    "flock", "epoll_ctl", "getdents64", "ftruncate", "shutdown",
    "getsockname", "getpeername", "accept"};
  for (size_t k = 0; k < sizeof kinds / sizeof kinds[0]; k++)
    for (size_t c = 0; c < sizeof calls / sizeof calls[0]; c++)
      row(kinds[k], calls[c]);
  timer_rows();
  return 0;
}
EOF

gcc -O1 -Wall -o "$work/linux_answers" "$work/answers.c"
mkdir "$work/run"
cd "$work/run" && ../linux_answers
