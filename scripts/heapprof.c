// LD_PRELOAD heap profiler that needs only gcc; see heap_profile.sh.
// Interposes malloc, calloc, realloc, free and posix_memalign, forwarding to
// glibc's __libc_* entry points (so there is no dlsym bootstrap to dodge).
// Each block is tracked with its size and allocation site — the glibc
// backtrace() of the call, kept as executable-relative PCs — and every
// allocate/free goes into an operation log. At exit the log is replayed up
// to the operation at which live bytes peaked, and the blocks live then
// go to $HEAPPROF_OUT: a `peak` line, then one `SIZE PC PC ...` line per
// block, innermost frame first, PCs in decimal (as sigprof.c writes them).
// Without $HEAPPROF_OUT every call passes straight through.
#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <link.h>
#include <pthread.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void __libc_free(void *);
extern void *__libc_memalign(size_t, size_t);

#define DEPTH 24          // frames kept per allocation site
#define SITES (1u << 16)  // distinct allocation sites
#define SLOT_BITS 20      // hash slots for live blocks (kept under 3/4 full)
#define SLOTS (1ul << SLOT_BITS)
#define OPS (1ul << 26)   // logged operations (reserved, touched as used)
#define FREED UINT32_MAX  // `site` of a logged free

struct site { uintptr_t pc[DEPTH]; int n; };
struct block { uintptr_t ptr; size_t size; uint32_t site; };

static struct site *sites;
static uint32_t *site_index, n_sites;
static struct block *live, *ops;
static size_t n_live, n_ops, live_bytes, peak_bytes, peak_op;
static uintptr_t exe_lo, exe_hi;
static int enabled, overflow;
static pthread_mutex_t lock = PTHREAD_MUTEX_INITIALIZER;
static __thread int busy __attribute__((tls_model("initial-exec")));

static void *reserve(size_t bytes) {
    void *p = mmap(NULL, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    return p == MAP_FAILED ? NULL : p;
}

static size_t slot_of(uintptr_t ptr) { return (ptr >> 4) * 0x9E3779B97F4A7C15ull >> (64 - SLOT_BITS); }

static void table_put(struct block b) {
    size_t i = slot_of(b.ptr);
    while (live[i].ptr) i = (i + 1) & (SLOTS - 1);
    live[i] = b;
    n_live++;
}

// Remove `ptr`, returning its size, or (size_t)-1 when it is not tracked.
// Backward-shift deletion keeps every probe chain unbroken.
static size_t table_take(uintptr_t ptr) {
    size_t i = slot_of(ptr), size;
    while (live[i].ptr != ptr) {
        if (!live[i].ptr) return (size_t)-1;
        i = (i + 1) & (SLOTS - 1);
    }
    size = live[i].size;
    for (size_t j = (i + 1) & (SLOTS - 1); live[j].ptr; j = (j + 1) & (SLOTS - 1)) {
        size_t home = slot_of(live[j].ptr);
        if (((j - home) & (SLOTS - 1)) >= ((j - i) & (SLOTS - 1))) {
            live[i] = live[j];
            i = j;
        }
    }
    live[i].ptr = 0;
    n_live--;
    return size;
}

static uint32_t site_here(void) {
    void *raw[DEPTH + 8];
    struct site s = {.n = 0};
    int n = backtrace(raw, DEPTH + 8);
    uint64_t h = 0;
    for (int i = 0; i < n && s.n < DEPTH; i++) {
        uintptr_t pc = (uintptr_t)raw[i];
        if (pc >= exe_lo && pc < exe_hi) s.pc[s.n++] = pc - exe_lo;
    }
    for (int i = 0; i < s.n; i++) h = (h ^ s.pc[i]) * 0x100000001B3ull;
    for (uint32_t i = h & (SITES - 1);; i = (i + 1) & (SITES - 1)) {
        uint32_t id = site_index[i];
        if (!id) {
            if (n_sites + 1 >= SITES * 3 / 4) {
                overflow = 1;
                return 0;
            }
            sites[n_sites] = s;
            site_index[i] = ++n_sites;
            return n_sites - 1;
        }
        if (sites[id - 1].n == s.n && !memcmp(sites[id - 1].pc, s.pc, s.n * sizeof s.pc[0])) return id - 1;
    }
}

static void log_op(struct block b) {
    if (n_ops == OPS) overflow = 1;
    else ops[n_ops++] = b;
}

static void track(void *p, size_t size) {
    if (!enabled || busy || !p) return;
    busy = 1;
    pthread_mutex_lock(&lock);
    if (!overflow && n_live < SLOTS * 3 / 4) {
        struct block b = {(uintptr_t)p, size, site_here()};
        table_put(b);
        log_op(b);
        live_bytes += size;
        if (live_bytes > peak_bytes) peak_bytes = live_bytes, peak_op = n_ops - 1;
    } else {
        overflow = 1;
    }
    pthread_mutex_unlock(&lock);
    busy = 0;
}

static void untrack(void *p) {
    if (!enabled || busy || !p) return;
    busy = 1;
    pthread_mutex_lock(&lock);
    size_t size = table_take((uintptr_t)p);
    if (size != (size_t)-1) {
        live_bytes -= size;
        log_op((struct block){(uintptr_t)p, 0, FREED});
    }
    pthread_mutex_unlock(&lock);
    busy = 0;
}

void *malloc(size_t n) {
    void *p = __libc_malloc(n);
    track(p, n);
    return p;
}

void *calloc(size_t k, size_t n) {
    void *p = __libc_calloc(k, n);
    track(p, k * n);
    return p;
}

void *realloc(void *old, size_t n) {
    void *p = __libc_realloc(old, n);
    if (p || !n) untrack(old);
    track(p, n);
    return p;
}

void free(void *p) {
    untrack(p);
    __libc_free(p);
}

int posix_memalign(void **out, size_t align, size_t n) {
    if (align % sizeof(void *) || (align & (align - 1))) return EINVAL;
    void *p = __libc_memalign(align, n);
    if (!p) return ENOMEM;
    track(p, n);
    *out = p;
    return 0;
}

// The first object dl_iterate_phdr reports is the executable itself; its
// PT_LOAD segments bound the PCs worth keeping.
static int first_object(struct dl_phdr_info *info, size_t size, void *data) {
    (void)size, (void)data;
    exe_lo = info->dlpi_addr;
    for (int i = 0; i < info->dlpi_phnum; i++) {
        const ElfW(Phdr) *ph = &info->dlpi_phdr[i];
        if (ph->p_type == PT_LOAD && info->dlpi_addr + ph->p_vaddr + ph->p_memsz > exe_hi)
            exe_hi = info->dlpi_addr + ph->p_vaddr + ph->p_memsz;
    }
    return 1;
}

__attribute__((constructor)) static void start(void) {
    void *warm[1];
    if (!getenv("HEAPPROF_OUT")) return;
    busy = 1;
    backtrace(warm, 1);  // loads the unwinder now, not inside a hook
    dl_iterate_phdr(first_object, NULL);
    sites = reserve(SITES * sizeof *sites);
    site_index = reserve(SITES * sizeof *site_index);
    live = reserve(SLOTS * sizeof *live);
    ops = reserve(OPS * sizeof *ops);
    enabled = sites && site_index && live && ops;
    busy = 0;
}

__attribute__((destructor)) static void stop(void) {
    FILE *f;
    if (!enabled) return;
    pthread_mutex_lock(&lock);
    enabled = 0;
    pthread_mutex_unlock(&lock);
    // Replay the log up to the peak: what is in the table then is what was
    // live at the peak.
    memset(live, 0, SLOTS * sizeof *live);
    n_live = 0;
    for (size_t i = 0; i < n_ops && i <= peak_op; i++) {
        if (ops[i].site == FREED) table_take(ops[i].ptr);
        else table_put(ops[i]);
    }
    if (!(f = fopen(getenv("HEAPPROF_OUT"), "w"))) return;
    fprintf(f, "peak %zu blocks %zu op %zu of %zu%s\n", peak_bytes, n_live, peak_op + 1, n_ops,
            overflow ? " overflow" : "");
    for (size_t i = 0; i < SLOTS; i++) {
        if (!live[i].ptr) continue;
        const struct site *s = &sites[live[i].site];
        fprintf(f, "%zu", live[i].size);
        for (int k = 0; k < s->n; k++) fprintf(f, " %lu", (unsigned long)s->pc[k]);
        fputc('\n', f);
    }
    fclose(f);
}
