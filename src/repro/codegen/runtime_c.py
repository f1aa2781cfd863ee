"""The C runtime emitted ahead of translated user code.

Pieces are keyed by feature name; a compilation requests features through
``ctx.need(...)`` and only those pieces are emitted:

* ``matrix``   — the matrix representation (header with rank/dims/refcount
  followed by the element payload) and element accessors, all
  ``static inline`` so gcc -O2 compiles element access to raw loads.
* ``refcount`` — §III-B's reference-counting pointers: 4 extra bytes (we
  use an int field in the header) count live references; hitting zero
  frees the allocation.
* ``io``       — readMatrix/writeMatrix on the RMAT binary format.
* ``pool``     — §III-C's enhanced fork-join model from SAC [14]: worker
  threads are spawned once, spin on a generation counter, execute chunk
  ranges when released, then pass a stop barrier and spin again.
* ``regions``  — ``rt_pool_run``, which releases the pool for one
  parallel construct; emitted only when lowering produced one.
* ``vector``   — §V's 128-bit 4×float vector operations (SSE intrinsics on
  x86, scalar fallback elsewhere).
"""

from __future__ import annotations

HEADER = r"""
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>
"""

COUNTERS = r"""
/* ---- observability counters (RT_STATS) -------------------------------- */
static long rt_alloc_count = 0;
static long rt_free_count  = 0;
static long rt_copy_count  = 0;
static long rt_pool_parallel_regions = 0;
"""

MATRIX = r"""
/* ---- matrix runtime -------------------------------------------------- */
#define RT_MAX_RANK 8

typedef struct {
    int rc;                 /* reference count (see refcount runtime)     */
    int rank;
    long dims[RT_MAX_RANK];
    long size;              /* product of dims                            */
    float *fdata;           /* exactly one of fdata/idata is non-NULL     */
    int   *idata;
} rt_mat;

static inline rt_mat *rt_alloc(int is_float, int rank, const long *dims) {
    rt_mat *m = (rt_mat *)malloc(sizeof(rt_mat));
    long size = 1;
    int d;
    m->rc = 1;
    m->rank = rank;
    for (d = 0; d < rank; d++) {
        if (dims[d] < 0) {
            fprintf(stderr, "runtime error: negative dimension %ld in "
                    "allocation\n", dims[d]);
            exit(2);
        }
        m->dims[d] = dims[d];
        size *= dims[d];
    }
    m->size = size;
    if (is_float) {
        m->fdata = (float *)calloc((size_t)size, sizeof(float));
        m->idata = NULL;
    } else {
        m->idata = (int *)calloc((size_t)size, sizeof(int));
        m->fdata = NULL;
    }
    __sync_fetch_and_add(&rt_alloc_count, 1);  /* workers race otherwise */
    return m;
}

static inline rt_mat *rt_allocf(int rank, long d0, long d1, long d2, long d3) {
    long dims[4] = { d0, d1, d2, d3 };
    return rt_alloc(1, rank, dims);
}
static inline rt_mat *rt_alloci(int rank, long d0, long d1, long d2, long d3) {
    long dims[4] = { d0, d1, d2, d3 };
    return rt_alloc(0, rank, dims);
}

static inline long  rt_dim(const rt_mat *m, int d) { return m->dims[d]; }
static inline long  rt_size(const rt_mat *m)       { return m->size; }
static inline float rt_getf(const rt_mat *m, long i)          { return m->fdata[i]; }
static inline void  rt_setf(rt_mat *m, long i, float v)       { m->fdata[i] = v; }
static inline int   rt_geti(const rt_mat *m, long i)          { return m->idata[i]; }
static inline void  rt_seti(rt_mat *m, long i, int v)         { m->idata[i] = v; }

static inline void rt_require_divisible(long n, long f, const char *what) {
    if (f <= 0 || n % f != 0) {
        fprintf(stderr, "runtime error: %s: trip count %ld not divisible by %ld\n",
                what, n, f);
        exit(2);
    }
}

static inline void rt_bounds_check(long lo, long hi, long dim, const char *what) {
    if (lo < 0 || hi > dim) {
        fprintf(stderr, "runtime error: %s range [%ld,%ld) outside dimension %ld\n",
                what, lo, hi, dim);
        exit(2);
    }
}

static inline void rt_require_dim(const rt_mat *m, int d, long n) {
    if (!m) {
        fprintf(stderr, "runtime error: use of unallocated matrix\n");
        exit(2);
    }
    if (m->dims[d] != n) {
        fprintf(stderr, "runtime error: dimension %d is %ld, expected %ld\n",
                d, m->dims[d], n);
        exit(2);
    }
}

static inline void rt_check_rank(const rt_mat *m, int rank, int is_float) {
    if (m->rank != rank || (is_float ? m->fdata == NULL : m->idata == NULL)) {
        fprintf(stderr, "runtime error: matrix has rank %d/%s, declared rank "
                "%d/%s\n", m->rank, m->fdata ? "float" : "int",
                rank, is_float ? "float" : "int");
        exit(2);
    }
}

static inline void rt_matmul_check(const rt_mat *a, const rt_mat *b) {
    if (a->rank != 2 || b->rank != 2 || a->dims[1] != b->dims[0]) {
        fprintf(stderr, "runtime error: matrix multiply of %ldx%ld by %ldx%ld\n",
                a->dims[0], a->dims[1], b->dims[0], b->dims[1]);
        exit(2);
    }
}

static inline void rt_shape_check(const rt_mat *a, const rt_mat *b, const char *op) {
    int d;
    if (a->rank != b->rank) {
        fprintf(stderr, "runtime error: %s on matrices of rank %d and %d\n",
                op, a->rank, b->rank);
        exit(2);
    }
    for (d = 0; d < a->rank; d++)
        if (a->dims[d] != b->dims[d]) {
            fprintf(stderr, "runtime error: %s dimension %d mismatch (%ld vs %ld)\n",
                    op, d, a->dims[d], b->dims[d]);
            exit(2);
        }
}
"""

REFCOUNT = r"""
/* ---- reference-counting pointers (paper III-B) ------------------------ */
static inline void rc_inc(rt_mat *m) {
    if (m) __sync_fetch_and_add(&m->rc, 1);
}

static inline void rc_dec(rt_mat *m) {
    if (!m) return;
    if (__sync_sub_and_fetch(&m->rc, 1) == 0) {
        if (m->fdata) free(m->fdata);
        if (m->idata) free(m->idata);
        free(m);
        __sync_fetch_and_add(&rt_free_count, 1);
    }
}

/* Library-style assignment — the baseline that assignment fusion beats
   (§III-A.4): copy elementwise into the target's existing storage when
   shapes match (consuming the source reference), else rebind.  Returns
   the variable's new binding; reference counts stay balanced. */
static inline rt_mat *rt_assign_copy(rt_mat *dst, rt_mat *src) {
    long i;
    if (dst && src && dst != src && dst->rank == src->rank) {
        int same = 1, d;
        for (d = 0; d < dst->rank; d++)
            if (dst->dims[d] != src->dims[d]) same = 0;
        if (same && ((dst->fdata && src->fdata) || (dst->idata && src->idata))) {
            if (dst->fdata)
                for (i = 0; i < dst->size; i++) dst->fdata[i] = src->fdata[i];
            else
                for (i = 0; i < dst->size; i++) dst->idata[i] = src->idata[i];
            rt_copy_count++;
            rc_dec(src);
            return dst;
        }
    }
    rc_dec(dst);
    return src;
}
"""

IO = r"""
/* ---- RMAT binary matrix I/O ------------------------------------------- */
/* layout: "RMAT" | int32 elemkind (0=int,1=float) | int32 rank
           | int64 dims[rank] | payload                                    */
static inline rt_mat *readMatrix(const char *path) {
    FILE *f = fopen(path, "rb");
    char magic[4];
    int kind = 0, rank = 0, d;
    long dims[RT_MAX_RANK];
    rt_mat *m;
    if (!f) { fprintf(stderr, "cannot open %s\n", path); exit(2); }
    if (fread(magic, 1, 4, f) != 4 || memcmp(magic, "RMAT", 4) != 0) {
        fprintf(stderr, "%s: not an RMAT file\n", path); exit(2);
    }
    fread(&kind, 4, 1, f);
    fread(&rank, 4, 1, f);
    for (d = 0; d < rank; d++) { long long v; fread(&v, 8, 1, f); dims[d] = (long)v; }
    m = rt_alloc(kind == 1, rank, dims);
    if (kind == 1) fread(m->fdata, sizeof(float), (size_t)m->size, f);
    else           fread(m->idata, sizeof(int),   (size_t)m->size, f);
    fclose(f);
    return m;
}

static inline void writeMatrix(const char *path, const rt_mat *m) {
    FILE *f = fopen(path, "wb");
    int kind = m->fdata ? 1 : 0, d;
    if (!f) { fprintf(stderr, "cannot open %s for writing\n", path); exit(2); }
    fwrite("RMAT", 1, 4, f);
    fwrite(&kind, 4, 1, f);
    fwrite(&m->rank, 4, 1, f);
    for (d = 0; d < m->rank; d++) { long long v = m->dims[d]; fwrite(&v, 8, 1, f); }
    if (kind == 1) fwrite(m->fdata, sizeof(float), (size_t)m->size, f);
    else           fwrite(m->idata, sizeof(int),   (size_t)m->size, f);
    fclose(f);
}
"""

POOL = r"""
/* ---- enhanced fork-join thread pool (SAC model, paper III-C) ----------- */
/* Worker threads are created once at program start (rt_pool_init) and sit
   in a spin lock on a generation counter.  A parallel construct bumps the
   generation, releasing all workers at once; each executes its chunk of
   the iteration space, enters the stop barrier, and returns to spinning. */
#include <pthread.h>

typedef void (*rt_work_fn)(void *env, long lo, long hi);

#define RT_MAX_THREADS 64

static int rt_pool_nthreads = 1;
static pthread_t rt_pool_threads[RT_MAX_THREADS];
static volatile long rt_pool_generation = 0;
static volatile long rt_pool_done_count = 0;
static volatile int rt_pool_shutdown = 0;
static rt_work_fn volatile rt_pool_fn = NULL;
static void * volatile rt_pool_env = NULL;
static volatile long rt_pool_total = 0;

static void *rt_pool_worker(void *arg) {
    long my_id = (long)arg;
    long seen = 0;
    for (;;) {
        while (rt_pool_generation == seen && !rt_pool_shutdown)
            ; /* spin lock: idle workers burn a core awaiting release */
        if (rt_pool_shutdown) return NULL;
        seen = rt_pool_generation;
        {
            long total = rt_pool_total;
            long per = (total + rt_pool_nthreads - 1) / rt_pool_nthreads;
            long lo = my_id * per;
            long hi = lo + per;
            if (lo > total) lo = total;
            if (hi > total) hi = total;
            if (lo < hi) rt_pool_fn(rt_pool_env, lo, hi);
        }
        __sync_fetch_and_add(&rt_pool_done_count, 1); /* stop barrier */
    }
}

static void rt_pool_init(int nthreads) {
    long i;
    if (nthreads < 1) nthreads = 1;
    if (nthreads > RT_MAX_THREADS) nthreads = RT_MAX_THREADS;
    rt_pool_nthreads = nthreads;
    for (i = 1; i < nthreads; i++)
        pthread_create(&rt_pool_threads[i], NULL, rt_pool_worker, (void *)i);
}

static void rt_pool_shutdown_all(void) {
    long i;
    rt_pool_shutdown = 1;
    __sync_synchronize();
    for (i = 1; i < rt_pool_nthreads; i++)
        pthread_join(rt_pool_threads[i], NULL);
}
"""

REGIONS = r"""
/* ---- fork-join region launch on the pool ------------------------------ */
static volatile int rt_pool_region_active = 0;

static void rt_pool_run(rt_work_fn fn, void *env, long total) {
    /* Nested parallel constructs (a with-loop inside a function mapped by
       matrixMap) execute sequentially inside the active region — one
       level of fork-join, as in SAC's multithreaded runtime. */
    if (rt_pool_region_active) { fn(env, 0, total); return; }
    rt_pool_parallel_regions++;
    if (rt_pool_nthreads == 1) { fn(env, 0, total); return; }
    rt_pool_region_active = 1;
    rt_pool_fn = fn;
    rt_pool_env = env;
    rt_pool_total = total;
    rt_pool_done_count = 0;
    __sync_synchronize();
    rt_pool_generation++;           /* release the spinning workers */
    {   /* the main thread takes chunk 0 ... */
        long per = (total + rt_pool_nthreads - 1) / rt_pool_nthreads;
        long hi = per > total ? total : per;
        if (hi > 0) fn(env, 0, hi);
    }
    /* ... then waits in the stop barrier for the others. */
    while (rt_pool_done_count < rt_pool_nthreads - 1)
        ;
    rt_pool_region_active = 0;
}
"""

VECTOR = r"""
/* ---- 4-wide float vectors (paper V, Fig 11) ---------------------------- */
#if defined(__SSE__) || defined(__x86_64__)
#include <xmmintrin.h>
typedef __m128 rt_v4f;
static inline rt_v4f rt_vloadf(const rt_mat *m, long i) { return _mm_loadu_ps(&m->fdata[i]); }
static inline void rt_vstoref(rt_mat *m, long i, rt_v4f v) { _mm_storeu_ps(&m->fdata[i], v); }
static inline rt_v4f rt_vsplatf(float x) { return _mm_set1_ps(x); }
static inline rt_v4f rt_vaddf(rt_v4f a, rt_v4f b) { return _mm_add_ps(a, b); }
static inline rt_v4f rt_vsubf(rt_v4f a, rt_v4f b) { return _mm_sub_ps(a, b); }
static inline rt_v4f rt_vmulf(rt_v4f a, rt_v4f b) { return _mm_mul_ps(a, b); }
static inline rt_v4f rt_vdivf(rt_v4f a, rt_v4f b) { return _mm_div_ps(a, b); }
static inline float rt_vsumf(rt_v4f v) {
    float out[4];
    _mm_storeu_ps(out, v);
    return out[0] + out[1] + out[2] + out[3];
}
static inline rt_v4f rt_viotaf(long base) {
    return _mm_set_ps((float)(base + 3), (float)(base + 2),
                      (float)(base + 1), (float)base);
}
static inline rt_v4f rt_vgatherf(const rt_mat *m, long i, long stride) {
    return _mm_set_ps(m->fdata[i + 3 * stride], m->fdata[i + 2 * stride],
                      m->fdata[i + stride], m->fdata[i]);
}
static inline void rt_vscatterf(rt_mat *m, long i, long stride, rt_v4f v) {
    float out[4];
    _mm_storeu_ps(out, v);
    m->fdata[i] = out[0];
    m->fdata[i + stride] = out[1];
    m->fdata[i + 2 * stride] = out[2];
    m->fdata[i + 3 * stride] = out[3];
}
#else
typedef struct { float lane[4]; } rt_v4f;
static inline rt_v4f rt_vloadf(const rt_mat *m, long i) {
    rt_v4f v; int k; for (k = 0; k < 4; k++) v.lane[k] = m->fdata[i + k]; return v;
}
static inline void rt_vstoref(rt_mat *m, long i, rt_v4f v) {
    int k; for (k = 0; k < 4; k++) m->fdata[i + k] = v.lane[k];
}
static inline rt_v4f rt_vsplatf(float x) {
    rt_v4f v; int k; for (k = 0; k < 4; k++) v.lane[k] = x; return v;
}
#define RT_VOP(name, op) \
    static inline rt_v4f name(rt_v4f a, rt_v4f b) { \
        rt_v4f v; int k; for (k = 0; k < 4; k++) v.lane[k] = a.lane[k] op b.lane[k]; \
        return v; }
RT_VOP(rt_vaddf, +)
RT_VOP(rt_vsubf, -)
RT_VOP(rt_vmulf, *)
RT_VOP(rt_vdivf, /)
static inline float rt_vsumf(rt_v4f v) {
    return v.lane[0] + v.lane[1] + v.lane[2] + v.lane[3];
}
static inline rt_v4f rt_viotaf(long base) {
    rt_v4f v; int k; for (k = 0; k < 4; k++) v.lane[k] = (float)(base + k);
    return v;
}
static inline rt_v4f rt_vgatherf(const rt_mat *m, long i, long stride) {
    rt_v4f v; int k; for (k = 0; k < 4; k++) v.lane[k] = m->fdata[i + k * stride];
    return v;
}
static inline void rt_vscatterf(rt_mat *m, long i, long stride, rt_v4f v) {
    int k; for (k = 0; k < 4; k++) m->fdata[i + k * stride] = v.lane[k];
}
#endif
"""

PRINTING = r"""
/* ---- debug printing builtins ------------------------------------------- */
#include <stdio.h>
static inline void printInt(int x)     { printf("%d\n", x); }
static inline void printFloat(float x) { printf("%g\n", (double)x); }
static inline void printStats(void) {
    printf("allocs=%ld frees=%ld copies=%ld parallel_regions=%ld\n",
           rt_alloc_count, rt_free_count, rt_copy_count,
           rt_pool_parallel_regions);
}
"""

TASKS = r"""
/* ---- Cilk-style task runtime (paper VIII future work) ------------------ */
/* Each thread keeps its own list of the tasks it spawned; rt_sync joins
   exactly those (a frame-scoped sync can never join an ancestor running
   on another thread, so nested spawn/sync cannot deadlock).  Task threads
   perform an implicit sync before exiting, as Cilk functions do.  A
   global live-task cap makes saturated spawns run inline — a valid Cilk
   schedule (the "sequential elision").  Work-stealing deques are
   deliberately simplified away: the point demonstrated is that a task
   runtime is deliverable as a *pluggable extension* (§VIII). */
#include <pthread.h>

typedef void (*rt_task_fn)(void *env);

#define RT_MAX_LIVE_TASKS 64

typedef struct rt_task_node {
    pthread_t tid;
    struct rt_task_node *next;
} rt_task_node;

static __thread rt_task_node *rt_my_tasks = NULL;
static volatile long rt_live_tasks = 0;
static long rt_tasks_spawned = 0;
static long rt_tasks_inlined = 0;

typedef struct { rt_task_fn fn; void *env; } rt_task_arg;

static void rt_sync(void);

static void *rt_task_trampoline(void *p) {
    rt_task_arg a = *(rt_task_arg *)p;
    free(p);
    a.fn(a.env);
    rt_sync();  /* implicit sync at task exit */
    return NULL;
}

static void rt_spawn(rt_task_fn fn, void *env) {
    __sync_fetch_and_add(&rt_tasks_spawned, 1);
    if (__sync_add_and_fetch(&rt_live_tasks, 1) <= RT_MAX_LIVE_TASKS) {
        rt_task_arg *a = (rt_task_arg *)malloc(sizeof(rt_task_arg));
        rt_task_node *node = (rt_task_node *)malloc(sizeof(rt_task_node));
        a->fn = fn;
        a->env = env;
        if (pthread_create(&node->tid, NULL, rt_task_trampoline, a) == 0) {
            node->next = rt_my_tasks;
            rt_my_tasks = node;
            return;
        }
        free(a);
        free(node);
    }
    __sync_fetch_and_sub(&rt_live_tasks, 1);
    __sync_fetch_and_add(&rt_tasks_inlined, 1);
    fn(env);  /* saturation or creation failure: run inline */
}

static void rt_sync(void) {
    while (rt_my_tasks) {
        rt_task_node *node = rt_my_tasks;
        rt_my_tasks = node->next;
        pthread_join(node->tid, NULL);
        __sync_fetch_and_sub(&rt_live_tasks, 1);
        free(node);
    }
}
"""

# Feature -> (code, prerequisite features).  Order of FEATURES fixes the
# emission order so prerequisites always precede dependents.
FEATURES: dict[str, str] = {
    "counters": COUNTERS,
    "matrix": MATRIX,
    "refcount": REFCOUNT,
    "io": IO,
    "pool": POOL,
    "regions": REGIONS,
    "tasks": TASKS,
    "vector": VECTOR,
    "printing": PRINTING,
}

IMPLIES: dict[str, tuple[str, ...]] = {
    "matrix": ("counters",),
    "refcount": ("matrix", "counters"),
    "io": ("matrix", "refcount"),
    "pool": ("counters",),
    "regions": ("pool",),
    "tasks": ("counters",),
    "vector": ("matrix",),
    "printing": ("counters", "pool"),
}


def runtime_source(features: set[str]) -> str:
    """The runtime preamble for the requested feature set."""
    needed = set(features)
    changed = True
    while changed:
        changed = False
        for f in list(needed):
            for dep in IMPLIES.get(f, ()):
                if dep not in needed:
                    needed.add(dep)
                    changed = True
    parts = [HEADER]
    for name, code in FEATURES.items():
        if name in needed:
            parts.append(code)
    return "\n".join(parts)
