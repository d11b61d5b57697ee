/*
 * Native CDCL core behind repro.smt.native.NativeSatSolver.
 *
 * A line-for-line port of IncrementalSatSolver in sat.py: the same watch
 * order (kept watches stay in place, clauses satisfied at level 0 leave the
 * watch list), the same first-UIP clause layout, Luby restarts, phase
 * saving, level-0 simplification with activity seeding in add_clause, and
 * the same lazy (-activity, var) VSIDS heap rebuilt at the same threshold.
 * Given the same calls it returns the same models and the same conflict,
 * decision and clause counts as the Python core, which stays the reference.
 *
 * Build with -O2 -ffp-contract=off (no -ffast-math, no -march=native) so
 * the activity arithmetic rounds exactly like Python floats.  The library
 * holds no global state: distinct solvers may run on distinct threads.
 */
#include <setjmp.h>
#include <stdlib.h>
#include <string.h>

/* Return codes of k2_solve. */
#define R_UNSAT 0
#define R_SAT 1
#define R_ASSUMPTION_FAILED 2
#define R_TIMEOUT 3
/* Error codes shared by every entry point. */
#define E_ZERO_LIT (-2)
#define E_UNALLOCATED (-3)
#define E_NOMEM (-4)

typedef struct {
    int *data;
    int size, cap;
} vec;

typedef struct {
    double key; /* -activity */
    int var;
} hentry;

typedef struct {
    int nvars, capvars;
    signed char *val;   /* 1 true, -1 false, 0 unassigned */
    signed char *phase; /* saved polarity: 1 positive */
    int *level;
    int *reason; /* clause reference or -1 */
    double *act;
    double var_inc, var_decay;
    int *trail;
    int trail_size;
    vec trail_lim;
    int qhead;
    vec arena; /* clauses as [size, lit0, lit1, ...]; a reference is an offset */
    long long n_clauses, n_learned;
    vec *watches; /* indexed by LIDX(lit) */
    long long conflicts, decisions;
    int contradiction;
    hentry *heap;
    size_t hsize, hcap;
    char *seen;
    vec learnt, touched, tmp;
    int *mark; /* add_clause duplicate/tautology marks, by LIDX */
    int stamp;
    int bad_index;
    int broken;
    jmp_buf oom;
} solver;

#define LIDX(lit) ((lit) > 0 ? 2 * (lit) : -2 * (lit) + 1)
#define VAR(lit) ((lit) > 0 ? (lit) : -(lit))
#define LV(s, lit) ((lit) > 0 ? (s)->val[(lit)] : -(s)->val[-(lit)])

/* ------------------------------------------------------------------------ */
/* Allocation: failures unwind to the entry point, which marks the solver   */
/* broken and reports E_NOMEM.                                              */
/* ------------------------------------------------------------------------ */
static void *grow(solver *s, void *ptr, size_t bytes) {
    void *out = realloc(ptr, bytes ? bytes : 1);
    if (!out) longjmp(s->oom, 1);
    return out;
}

static void vec_push(solver *s, vec *v, int x) {
    if (v->size == v->cap) {
        int cap = v->cap ? 2 * v->cap : 4;
        v->data = grow(s, v->data, (size_t)cap * sizeof(int));
        v->cap = cap;
    }
    v->data[v->size++] = x;
}

/* ------------------------------------------------------------------------ */
/* Lazy VSIDS order: a binary min-heap over (-activity, var).               */
/* ------------------------------------------------------------------------ */
static int hless(hentry a, hentry b) {
    return a.key < b.key || (a.key == b.key && a.var < b.var);
}

static void sift_down(hentry *h, size_t n, size_t i) {
    hentry item = h[i];
    for (;;) {
        size_t child = 2 * i + 1;
        if (child >= n) break;
        if (child + 1 < n && hless(h[child + 1], h[child])) child++;
        if (!hless(h[child], item)) break;
        h[i] = h[child];
        i = child;
    }
    h[i] = item;
}

static void heap_push(solver *s, double key, int var) {
    if (s->hsize == s->hcap) {
        size_t cap = s->hcap ? 2 * s->hcap : 64;
        s->heap = grow(s, s->heap, cap * sizeof(hentry));
        s->hcap = cap;
    }
    hentry item = {key, var};
    size_t i = s->hsize++;
    while (i > 0) {
        size_t parent = (i - 1) / 2;
        if (!hless(item, s->heap[parent])) break;
        s->heap[i] = s->heap[parent];
        i = parent;
    }
    s->heap[i] = item;
}

static hentry heap_pop(solver *s) {
    hentry top = s->heap[0];
    s->hsize--;
    if (s->hsize > 0) {
        s->heap[0] = s->heap[s->hsize];
        sift_down(s->heap, s->hsize, 0);
    }
    return top;
}

static void rebuild_order(solver *s) {
    size_t n = 0;
    if (s->hcap < (size_t)s->nvars) {
        s->heap = grow(s, s->heap, (size_t)s->nvars * sizeof(hentry));
        s->hcap = (size_t)s->nvars;
    }
    for (int v = 1; v <= s->nvars; v++) {
        if (s->val[v] == 0) {
            s->heap[n].key = -s->act[v];
            s->heap[n].var = v;
            n++;
        }
    }
    s->hsize = n;
    for (size_t i = n / 2; i-- > 0;) sift_down(s->heap, n, i);
}

/* ------------------------------------------------------------------------ */
/* Variables and assignment                                                 */
/* ------------------------------------------------------------------------ */
static void reserve_vars(solver *s, int nvars) {
    if (nvars <= s->capvars) return;
    int cap = s->capvars ? s->capvars : 64;
    while (cap < nvars) cap *= 2;
    size_t n = (size_t)cap + 1;
    s->val = grow(s, s->val, n);
    s->phase = grow(s, s->phase, n);
    s->level = grow(s, s->level, n * sizeof(int));
    s->reason = grow(s, s->reason, n * sizeof(int));
    s->act = grow(s, s->act, n * sizeof(double));
    s->trail = grow(s, s->trail, n * sizeof(int));
    s->seen = grow(s, s->seen, n);
    s->mark = grow(s, s->mark, 2 * n * sizeof(int));
    s->watches = grow(s, s->watches, 2 * n * sizeof(vec));
    size_t old = (size_t)s->capvars + 1;
    if (s->capvars == 0) old = 0;
    memset(s->seen + old, 0, n - old);
    memset(s->mark + 2 * old, 0, 2 * (n - old) * sizeof(int));
    memset(s->watches + 2 * old, 0, 2 * (n - old) * sizeof(vec));
    s->capvars = cap;
}

static void new_vars(solver *s, int nvars) {
    reserve_vars(s, nvars);
    while (s->nvars < nvars) {
        int v = ++s->nvars;
        s->val[v] = 0;
        s->phase[v] = 0;
        s->level[v] = 0;
        s->reason[v] = -1;
        s->act[v] = 0.0;
        heap_push(s, 0.0, v);
    }
}

static int enqueue(solver *s, int lit, int reason) {
    int current = LV(s, lit);
    if (current) return current == 1;
    int v = VAR(lit);
    s->val[v] = lit > 0 ? 1 : -1;
    s->phase[v] = lit > 0;
    s->level[v] = s->trail_lim.size;
    s->reason[v] = reason;
    s->trail[s->trail_size++] = lit;
    return 1;
}

static void watch(solver *s, int lit, int cref) {
    vec_push(s, &s->watches[LIDX(lit)], cref);
}

/* Store a clause; mirrors IncrementalSatSolver._add_clause. */
static void store_clause(solver *s, const int *lits, int n, int learned) {
    if (n == 0) {
        s->contradiction = 1;
        return;
    }
    if (n == 1) {
        if (!enqueue(s, lits[0], -1)) s->contradiction = 1;
        return;
    }
    int cref = s->arena.size;
    vec_push(s, &s->arena, n);
    for (int k = 0; k < n; k++) vec_push(s, &s->arena, lits[k]);
    if (learned)
        s->n_learned++;
    else
        s->n_clauses++;
    watch(s, lits[0], cref);
    watch(s, lits[1], cref);
}

/* Mirrors IncrementalSatSolver.add_clause. */
static int add_clause(solver *s, const int *lits, int n) {
    if (s->contradiction) return 0;
    if (++s->stamp == 0x7fffffff) {
        memset(s->mark, 0, 2 * ((size_t)s->capvars + 1) * sizeof(int));
        s->stamp = 1;
    }
    int stamp = s->stamp;
    s->tmp.size = 0;
    for (int k = 0; k < n; k++) {
        int lit = lits[k];
        if (lit == 0 || lit > s->nvars || lit < -s->nvars) {
            s->bad_index = k;
            return lit == 0 ? E_ZERO_LIT : E_UNALLOCATED;
        }
        if (s->mark[LIDX(-lit)] == stamp) return 0; /* tautology */
        if (s->mark[LIDX(lit)] == stamp) continue;
        s->mark[LIDX(lit)] = stamp;
        int value = LV(s, lit);
        if (value == 1) return 0; /* satisfied at level 0 */
        if (value == -1) continue; /* falsified at level 0 */
        vec_push(s, &s->tmp, lit);
    }
    int size = s->tmp.size;
    for (int k = 0; k < size; k++) {
        int v = VAR(s->tmp.data[k]);
        s->act[v] += 1.0 / (double)(size > 1 ? size : 1);
        heap_push(s, -s->act[v], v);
    }
    store_clause(s, s->tmp.data, size, 0);
    return 0;
}

/* ------------------------------------------------------------------------ */
/* Unit propagation (two watched literals)                                  */
/* ------------------------------------------------------------------------ */
static int propagate(solver *s) {
    while (s->qhead < s->trail_size) {
        int false_lit = -s->trail[s->qhead++];
        vec *ws = &s->watches[LIDX(false_lit)];
        int *w = ws->data;
        int n = ws->size, i = 0, j = 0, conflict = -1;
        while (i < n) {
            int cref = w[i++];
            int *lits = s->arena.data + cref + 1;
            int size = lits[-1];
            if (lits[0] == false_lit) {
                lits[0] = lits[1];
                lits[1] = false_lit;
            }
            int first = lits[0];
            int first_value = LV(s, first);
            if (first_value == 1) {
                /* Satisfied at level 0: permanently true, drop the watch. */
                if (s->level[VAR(first)] > 0) w[j++] = cref;
                continue;
            }
            int found = 0;
            for (int k = 2; k < size; k++) {
                int candidate = lits[k];
                if (LV(s, candidate) != -1) {
                    lits[k] = lits[1];
                    lits[1] = candidate;
                    watch(s, candidate, cref);
                    found = 1;
                    break;
                }
            }
            if (found) continue;
            w[j++] = cref;
            if (first_value == -1) {
                while (i < n) w[j++] = w[i++];
                conflict = cref;
                break;
            }
            enqueue(s, first, cref);
        }
        ws->size = j;
        if (conflict >= 0) return conflict;
    }
    return -1;
}

/* ------------------------------------------------------------------------ */
/* Conflict analysis (first UIP)                                            */
/* ------------------------------------------------------------------------ */
static void bump(solver *s, int v) {
    s->act[v] += s->var_inc;
    if (s->act[v] > 1e100) {
        for (int u = 1; u <= s->nvars; u++) s->act[u] *= 1e-100;
        s->var_inc *= 1e-100;
        rebuild_order(s);
    } else {
        heap_push(s, -s->act[v], v);
    }
}

/* Leaves the learnt clause in s->learnt; returns the backjump level. */
static int analyze(solver *s, int conflict) {
    vec *learnt = &s->learnt;
    learnt->size = 0;
    s->touched.size = 0;
    vec_push(s, learnt, 0); /* slot for the UIP literal */
    int counter = 0, lit = 0, cref = conflict;
    int trail_index = s->trail_size - 1;
    int current_level = s->trail_lim.size;

    for (;;) {
        int size = cref >= 0 ? s->arena.data[cref] : 0;
        for (int k = 0; k < size; k++) {
            int other = s->arena.data[cref + 1 + k];
            if (lit != 0 && other == lit) continue;
            int v = VAR(other);
            if (!s->seen[v] && s->level[v] > 0) {
                s->seen[v] = 1;
                vec_push(s, &s->touched, v);
                bump(s, v);
                if (s->level[v] >= current_level)
                    counter++;
                else
                    vec_push(s, learnt, other);
            }
        }
        while (!s->seen[VAR(s->trail[trail_index])]) trail_index--;
        lit = s->trail[trail_index];
        trail_index--;
        s->seen[VAR(lit)] = 0;
        counter--;
        if (counter == 0) {
            learnt->data[0] = -lit;
            break;
        }
        cref = s->reason[VAR(lit)];
    }
    for (int k = 0; k < s->touched.size; k++) s->seen[s->touched.data[k]] = 0;

    if (learnt->size == 1) return 0;
    int backjump_level = 0;
    for (int k = 1; k < learnt->size; k++) {
        int level = s->level[VAR(learnt->data[k])];
        if (level > backjump_level) backjump_level = level;
    }
    for (int k = 1; k < learnt->size; k++) {
        if (s->level[VAR(learnt->data[k])] == backjump_level) {
            int swap = learnt->data[1];
            learnt->data[1] = learnt->data[k];
            learnt->data[k] = swap;
            break;
        }
    }
    return backjump_level;
}

static void backjump(solver *s, int target) {
    while (s->trail_lim.size > target) {
        int boundary = s->trail_lim.data[--s->trail_lim.size];
        for (int k = s->trail_size - 1; k >= boundary; k--) {
            int v = VAR(s->trail[k]);
            s->val[v] = 0;
            s->reason[v] = -1;
            heap_push(s, -s->act[v], v);
        }
        s->trail_size = boundary;
    }
    if (s->qhead > s->trail_size) s->qhead = s->trail_size;
}

static int pick_branch_variable(solver *s) {
    size_t limit = 8 * (size_t)s->nvars;
    if (limit < 4096) limit = 4096;
    if (s->hsize > limit) rebuild_order(s);
    while (s->hsize > 0) {
        hentry top = heap_pop(s);
        if (s->val[top.var] == 0) return top.var;
    }
    return 0;
}

static long long luby(long long index) {
    long long size = 1, seq = 0;
    while (size < index + 1) {
        seq++;
        size = 2 * size + 1;
    }
    while (size - 1 != index) {
        size = (size - 1) / 2;
        seq--;
        index %= size;
    }
    return 1LL << seq;
}

/* Mirrors IncrementalSatSolver._solve; the caller's backjump(0) follows. */
static int search(solver *s, const int *assumptions, int n_assumptions,
                  long long max_conflicts, unsigned char *model) {
    if (s->contradiction) return R_UNSAT;
    backjump(s, 0);
    if (propagate(s) >= 0) {
        s->contradiction = 1;
        return R_UNSAT;
    }
    long long restart_count = 0;
    long long until_restart = luby(restart_count) * 128;
    long long budget = max_conflicts < 0 ? -1 : s->conflicts + max_conflicts;

    for (;;) {
        int conflict = propagate(s);
        if (conflict >= 0) {
            s->conflicts++;
            if (budget >= 0 && s->conflicts > budget) return R_TIMEOUT;
            if (s->trail_lim.size == 0) {
                s->contradiction = 1;
                return R_UNSAT;
            }
            int backjump_level = analyze(s, conflict);
            backjump(s, backjump_level);
            if (s->learnt.size == 1) {
                if (!enqueue(s, s->learnt.data[0], -1)) s->contradiction = 1;
            } else {
                int cref = s->arena.size;
                store_clause(s, s->learnt.data, s->learnt.size, 1);
                enqueue(s, s->arena.data[cref + 1], cref);
            }
            s->var_inc /= s->var_decay;
            if (--until_restart <= 0) {
                restart_count++;
                until_restart = luby(restart_count) * 128;
                backjump(s, 0);
            }
            continue;
        }

        int level = s->trail_lim.size;
        if (level < n_assumptions) {
            int lit = assumptions[level];
            int value = LV(s, lit);
            if (value == -1) return R_ASSUMPTION_FAILED;
            vec_push(s, &s->trail_lim, s->trail_size);
            if (value == 0) enqueue(s, lit, -1);
            continue;
        }

        int v = pick_branch_variable(s);
        if (v == 0) {
            for (int u = 1; u <= s->nvars; u++) model[u] = s->val[u] == 1;
            return R_SAT;
        }
        s->decisions++;
        vec_push(s, &s->trail_lim, s->trail_size);
        enqueue(s, s->phase[v] ? v : -v, -1);
    }
}

/* ------------------------------------------------------------------------ */
/* Exported interface (see native.py)                                       */
/* ------------------------------------------------------------------------ */
void *k2_new(void) {
    solver *s = calloc(1, sizeof(solver));
    if (s) {
        s->var_inc = 1.0;
        s->var_decay = 0.95;
    }
    return s;
}

void k2_free(void *handle) {
    solver *s = handle;
    if (!s) return;
    for (int k = 0; s->watches && k < 2 * (s->capvars + 1); k++)
        free(s->watches[k].data);
    free(s->watches);
    free(s->val);
    free(s->phase);
    free(s->level);
    free(s->reason);
    free(s->act);
    free(s->trail);
    free(s->seen);
    free(s->mark);
    free(s->trail_lim.data);
    free(s->arena.data);
    free(s->heap);
    free(s->learnt.data);
    free(s->touched.data);
    free(s->tmp.data);
    free(s);
}

/* Allocate variables up to nvars, then add the [len, lits...] records of
 * buf in order.  Returns 0 or an error code; on E_ZERO_LIT/E_UNALLOCATED the
 * records before the bad one were added and k2_bad_index gives the position
 * of the offending literal within its clause. */
int k2_add(void *handle, const int *buf, int length, int nvars) {
    solver *s = handle;
    if (s->broken) return E_NOMEM;
    if (setjmp(s->oom)) {
        s->broken = 1;
        return E_NOMEM;
    }
    new_vars(s, nvars);
    for (int pos = 0; pos < length;) {
        int n = buf[pos];
        int code = add_clause(s, buf + pos + 1, n);
        if (code) return code;
        pos += n + 1;
    }
    return 0;
}

int k2_bad_index(void *handle) { return ((solver *)handle)->bad_index; }

/* Solve under assumptions; max_conflicts < 0 means no budget.  On R_SAT
 * model[v] is 1 for true variables (model holds nvars + 1 bytes).  Always
 * returns at decision level 0. */
int k2_solve(void *handle, const int *assumptions, int n_assumptions,
             long long max_conflicts, unsigned char *model) {
    solver *s = handle;
    if (s->broken) return E_NOMEM;
    if (setjmp(s->oom)) {
        s->broken = 1;
        return E_NOMEM;
    }
    int result = search(s, assumptions, n_assumptions, max_conflicts, model);
    backjump(s, 0);
    return result;
}

long long k2_conflicts(void *handle) { return ((solver *)handle)->conflicts; }

long long k2_decisions(void *handle) { return ((solver *)handle)->decisions; }

long long k2_num_clauses(void *handle) {
    solver *s = handle;
    return s->n_clauses + s->n_learned;
}
