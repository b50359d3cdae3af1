// An LD_PRELOAD sampling profiler for a box with no `perf`: SIGPROF at
// SAMPLER_HZ (default 250) of CPU time, the main thread's frame-pointer
// chain walked in the handler, raw stacks and /proc/self/maps written to
// SAMPLER_OUT at exit. `attribute.py` turns that into a table.
//
//   gcc -O2 -shared -fPIC -o libsampler.so ci/profile/sampler.c
//   RUSTFLAGS="-C force-frame-pointers=yes" CARGO_PROFILE_RELEASE_DEBUG=1 \
//     CARGO_TARGET_DIR=$T cargo build --release --offline \
//     --manifest-path crates/bench/src/bin/ledger/Cargo.toml
//   SAMPLER_OUT=city.samples LD_PRELOAD=$PWD/libsampler.so \
//     $T/release/ledger --workload city_stream --seed 42 --seconds 15 --trace 0
//   python3 ci/profile/attribute.py $T/release/ledger city.samples -v
//
// The metadata server's storm runs no simulation, so name its roots and rows:
//
//   SAMPLER_OUT=server.samples LD_PRELOAD=$PWD/libsampler.so \
//     $T/release/ledger --workload server_storm --seed 42 --seconds 30 --trace 0
//   ROWS=MetadataServer::publish,MetadataServer::search,MetadataServer::expire
//   ROWS=$ROWS,MetadataServer::refresh_popularities,MetadataServer::record_request
//   python3 ci/profile/attribute.py $T/release/ledger server.samples -v \
//     -r MetadataServer:: -m $ROWS
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_DEPTH 48
#define MAX_SAMPLES 400000
static uintptr_t (*samples)[MAX_DEPTH + 1];
static volatile long n_samples;
static uintptr_t stack_lo, stack_hi;

static void handler(int sig, siginfo_t *si, void *ctx) {
  (void)sig; (void)si;
  ucontext_t *uc = ctx;
  uintptr_t pc = uc->uc_mcontext.gregs[REG_RIP];
  uintptr_t fp = uc->uc_mcontext.gregs[REG_RBP];
  uintptr_t sp = uc->uc_mcontext.gregs[REG_RSP];
  if (sp < stack_lo || sp >= stack_hi || n_samples >= MAX_SAMPLES) return;
  uintptr_t *out = samples[n_samples];
  int d = 0;
  out[1 + d++] = pc;
  while (d < MAX_DEPTH && fp >= sp && fp + 16 <= stack_hi && (fp & 7) == 0) {
    uintptr_t *f = (uintptr_t *)fp;
    uintptr_t ret = f[1], next = f[0];
    if (ret < 4096) break;
    out[1 + d++] = ret;
    if (next <= fp) break;
    fp = next;
  }
  out[0] = d;
  n_samples++;
}

__attribute__((constructor)) static void init(void) {
  if (!getenv("SAMPLER_OUT")) return;
  samples = calloc(MAX_SAMPLES, sizeof *samples);
  FILE *m = fopen("/proc/self/maps", "r");
  char line[512];
  while (fgets(line, sizeof line, m))
    if (strstr(line, "[stack]")) sscanf(line, "%lx-%lx", &stack_lo, &stack_hi);
  fclose(m);
  stack_lo = stack_hi - (64ul << 20);
  struct sigaction sa = {0};
  sa.sa_sigaction = handler;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigaction(SIGPROF, &sa, NULL);
  long hz = getenv("SAMPLER_HZ") ? atol(getenv("SAMPLER_HZ")) : 250;
  struct itimerval it = {{0, 1000000 / hz}, {0, 1000000 / hz}};
  setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void fini(void) {
  if (!samples) return;
  struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  FILE *o = fopen(getenv("SAMPLER_OUT"), "w");
  FILE *m = fopen("/proc/self/maps", "r");
  char line[512];
  while (fgets(line, sizeof line, m)) fprintf(o, "M %s", line);
  fclose(m);
  for (long i = 0; i < n_samples; i++) {
    fprintf(o, "S");
    for (uintptr_t j = 0; j < samples[i][0]; j++) fprintf(o, " %lx", samples[i][1 + j]);
    fprintf(o, "\n");
  }
  fclose(o);
}
