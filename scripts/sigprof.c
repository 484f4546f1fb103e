// LD_PRELOAD sampling profiler for a box without `perf`; see sample_profile.sh.
// A ticker thread sleeps 100 µs and signals the main thread; the handler
// stores the interrupted PC; at exit the PCs, minus the executable's load
// base (so they match `nm` of a PIE binary), go to $SIGPROF_OUT in decimal,
// and the load base and a copy of /proc/self/maps to $SIGPROF_OUT.maps, so
// that the script can place samples outside the binary in their shared
// object. Stdio only: a child process (system, popen) would inherit
// LD_PRELOAD and run this destructor again.
// setitimer(ITIMER_PROF) would be the usual clock, but it ticks at the
// kernel's CONFIG_HZ: ~300 samples/s on this kernel, ~25x fewer than this.
#define _GNU_SOURCE
#include <link.h>
#include <pthread.h>
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1u << 20)
static unsigned long pcs[MAX_SAMPLES], base;
static volatile unsigned long n;
static volatile int running;
static pthread_t main_thread, ticker_thread;

static void on_prof(int sig, siginfo_t *si, void *uc) {
    (void)sig, (void)si;
    if (n < MAX_SAMPLES) pcs[n++] = ((ucontext_t *)uc)->uc_mcontext.gregs[REG_RIP];
}

static void *ticker(void *arg) {
    const struct timespec tick = {0, 100000};
    while (running) {
        nanosleep(&tick, NULL);
        pthread_kill(main_thread, SIGPROF);
    }
    return arg;
}

// The first object dl_iterate_phdr reports is the executable itself.
static int first_object(struct dl_phdr_info *info, size_t size, void *data) {
    (void)size, (void)data;
    base = info->dlpi_addr;
    return 1;
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa = {.sa_sigaction = on_prof, .sa_flags = SA_SIGINFO | SA_RESTART};
    if (!getenv("SIGPROF_OUT")) return;
    dl_iterate_phdr(first_object, NULL);
    main_thread = pthread_self();
    sigaction(SIGPROF, &sa, NULL);
    running = 1;
    pthread_create(&ticker_thread, NULL, ticker, NULL);
}

__attribute__((destructor)) static void stop(void) {
    FILE *f, *maps;
    char path[4096], line[4096];
    if (!running) return;
    running = 0;
    pthread_join(ticker_thread, NULL);
    if (!(f = fopen(getenv("SIGPROF_OUT"), "w"))) return;
    for (unsigned long i = 0; i < n; i++) fprintf(f, "%lu\n", pcs[i] - base);
    fclose(f);
    snprintf(path, sizeof path, "%s.maps", getenv("SIGPROF_OUT"));
    if (!(maps = fopen("/proc/self/maps", "r"))) return;
    if ((f = fopen(path, "w"))) {
        fprintf(f, "base %lu\n", base);
        while (fgets(line, sizeof line, maps)) fputs(line, f);
        fclose(f);
    }
    fclose(maps);
}
