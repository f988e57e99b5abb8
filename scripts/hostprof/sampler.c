/* hostprof sampler: a stack-sampling CPU profiler loaded with LD_PRELOAD.

   Build, run, report (scripts/smoke.sh does this for one bench run):

     gcc -O2 -shared -fPIC -o sampler.so scripts/hostprof/sampler.c -ldl
     HOSTPROF_OUT=prof LD_PRELOAD=$PWD/sampler.so ./program args
     scripts/hostprof/report.py prof.<pid>

   The constructor arms ITIMER_PROF at 1 ms of process CPU time. Each
   SIGPROF records the interrupted program counter and the callers that
   glibc's backtrace() finds, into a buffer mapped up front, on an
   alternate signal stack. At exit the samples and a copy of
   /proc/self/maps go to $HOSTPROF_OUT.<pid> (default hostprof.<pid>) as
   text; report.py resolves them against the executables' symbols.

   Notes from using it on the OCaml 5 simulator:
   - gprofng segfaults on these executables, and perf needs kernel
     settings a container may not have; this needs neither.
   - backtrace() unwinds OCaml frames, and through the fiber stacks
     effects run on (caml_runstack) into the scheduler that resumed them.
   - The kernel delivers about one sample per 4 ms of CPU, not one per
     1 ms: a 30 s run yields some 8000 samples.
   - ITIMER_PROF counts the CPU time of every thread, and each OCaml 5
     domain is a thread, so the handler can run on several threads at
     once. Its scratch state is per thread, and a sample claims its words
     in the shared buffer with a compare-and-swap before writing them.
   - backtrace() is called once in the constructor, so that libgcc's
     unwinder is loaded before the first signal and the handler loads
     nothing. Samples that do not fit the buffer are counted as dropped.
   - The OCaml runtime installs an 8 KiB alternate signal stack for each
     domain, and the kernel's signal frame takes over 3 KiB of it on a
     current x86-64 CPU. sigaltstack() is therefore interposed: a request
     for a smaller stack installs a 64 KiB one of the sampler's, and the
     caller still gets its own stack back when it later asks for the old
     one (the runtime frees it).
   - Now and then the unwinder reads a bad frame and faults (3 times in
     50,000 samples of perfbench suite). A fault inside backtrace() is
     caught and the sample keeps its pc alone; the count is written as
     unwind_faults. Without both safeguards, six of ten 30 s runs of
     perfbench suite died of SIGSEGV; with them, six of six finished. */

#define _GNU_SOURCE
#include <dlfcn.h>
#include <errno.h>
#include <execinfo.h>
#include <setjmp.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_FRAMES 128
#define BUF_WORDS (4u << 20) /* 32 MiB of address space, touched as used */
#define ALTSTACK (64u << 10)

#define PER_THREAD __thread __attribute__((tls_model("initial-exec")))

static uintptr_t *buf;
static size_t used; /* words claimed */
static unsigned long samples, dropped, faults;
static int armed;
static PER_THREAD void *frames[MAX_FRAMES];

/* A fault inside backtrace() returns here; any other goes on to the
   default action. SIGSEGV goes to the thread that faulted. */
static PER_THREAD sigjmp_buf escape;
static PER_THREAD volatile sig_atomic_t unwinding;

static void on_fault(int sig) {
  if (unwinding) {
    unwinding = 0;
    siglongjmp(escape, 1);
  }
  signal(sig, SIG_DFL); /* returning re-runs the fault under the default */
}

/* Per thread: the stack installed in place of the caller's, and the
   caller's, to hand back when it asks for the old stack. */
static PER_THREAD char *own_stack;
static PER_THREAD stack_t callers_stack;

int sigaltstack(const stack_t *ss, stack_t *old) {
  static int (*real)(const stack_t *, stack_t *);
  if (!real) real = (int (*)(const stack_t *, stack_t *))dlsym(RTLD_NEXT, "sigaltstack");
  stack_t big;
  if (ss && !(ss->ss_flags & SS_DISABLE) && ss->ss_size < ALTSTACK) {
    if (!own_stack) own_stack = malloc(ALTSTACK);
    if (own_stack) {
      callers_stack = *ss;
      big = *ss;
      big.ss_sp = own_stack;
      big.ss_size = ALTSTACK;
      ss = &big;
    }
  }
  int r = real(ss, old);
  if (r == 0 && old && own_stack && old->ss_sp == own_stack) {
    old->ss_sp = callers_stack.ss_sp;
    old->ss_size = callers_stack.ss_size;
  }
  return r;
}

static uintptr_t interrupted_pc(void *ucv) {
  ucontext_t *uc = ucv;
#if defined(__x86_64__)
  return (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  return (uintptr_t)uc->uc_mcontext.pc;
#else
  (void)uc;
  return 0;
#endif
}

/* Claims [words] words of the buffer; returns the first, or -1 when
   they do not fit. */
static long claim(size_t words) {
  size_t at = __atomic_load_n(&used, __ATOMIC_RELAXED);
  do {
    if (at + words > BUF_WORDS) return -1;
  } while (!__atomic_compare_exchange_n(&used, &at, at + words, 1,
                                        __ATOMIC_RELAXED, __ATOMIC_RELAXED));
  return (long)at;
}

/* One sample is [n; pc; caller_1 .. caller_{n-1}], with n written last
   so that the exit writer can tell a sample still being written (n = 0).
   The handler's own frames and the signal trampoline come before the
   interrupted pc in backtrace()'s answer and are left out. */
static void on_prof(int sig, siginfo_t *si, void *ucv) {
  (void)sig;
  (void)si;
  int saved = errno;
  int n = 0;
  unwinding = 1;
  if (sigsetjmp(escape, 1) == 0)
    n = backtrace(frames, MAX_FRAMES);
  else
    __atomic_fetch_add(&faults, 1, __ATOMIC_RELAXED);
  unwinding = 0;
  uintptr_t pc = interrupted_pc(ucv);
  int first = 2;
  for (int i = 0; i < n; i++)
    if ((uintptr_t)frames[i] == pc) {
      first = i + 1;
      break;
    }
  size_t callers = n > first ? (size_t)(n - first) : 0;
  long at = claim(2 + callers);
  if (at < 0) {
    __atomic_fetch_add(&dropped, 1, __ATOMIC_RELAXED);
  } else {
    buf[at + 1] = pc;
    for (size_t i = 0; i < callers; i++)
      buf[at + 2 + i] = (uintptr_t)frames[first + i];
    __atomic_store_n(&buf[at], callers + 1, __ATOMIC_RELEASE);
    __atomic_fetch_add(&samples, 1, __ATOMIC_RELAXED);
  }
  errno = saved;
}

static void copy_maps(FILE *out) {
  FILE *maps = fopen("/proc/self/maps", "r");
  if (!maps) return;
  char line[4096];
  while (fgets(line, sizeof line, maps)) fprintf(out, "M %s", line);
  fclose(maps);
}

__attribute__((destructor)) static void hostprof_stop(void) {
  if (!armed) return;
  struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  armed = 0;
  const char *prefix = getenv("HOSTPROF_OUT");
  char path[4096];
  snprintf(path, sizeof path, "%s.%d", prefix ? prefix : "hostprof",
           (int)getpid());
  FILE *out = fopen(path, "w");
  if (!out) return;
  fprintf(out, "# hostprof samples=%lu dropped=%lu unwind_faults=%lu\n",
          samples, dropped, faults);
  size_t end = __atomic_load_n(&used, __ATOMIC_ACQUIRE);
  for (size_t i = 0; i < end;) {
    size_t n = __atomic_load_n(&buf[i++], __ATOMIC_ACQUIRE);
    if (n == 0 || i + n > end) break; /* another thread is still writing */
    fputc('S', out);
    for (size_t j = 0; j < n; j++) fprintf(out, " %lx", (unsigned long)buf[i++]);
    fputc('\n', out);
  }
  copy_maps(out);
  fclose(out);
}

__attribute__((constructor)) static void hostprof_start(void) {
  void *warm[4];
  backtrace(warm, 4);
  buf = mmap(NULL, BUF_WORDS * sizeof *buf, PROT_READ | PROT_WRITE,
             MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (buf == MAP_FAILED) return;
  stack_t ss = {.ss_sp = NULL, .ss_size = 0, .ss_flags = 0};
  sigaltstack(&ss, NULL); /* installs the sampler's own stack */
  struct sigaction sa;
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART | SA_ONSTACK;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  sa.sa_handler = on_fault;
  sa.sa_flags = SA_ONSTACK;
  sigaction(SIGSEGV, &sa, NULL);
  sigaction(SIGBUS, &sa, NULL);
  struct itimerval every_ms = {{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &every_ms, NULL);
  armed = 1;
}
