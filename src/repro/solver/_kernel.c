/* The native closure kernel and the solve envelope around it.

   A transliteration of repro.solver.kernel.run_kernel, of
   repro.graph.cycles.find_chain_path and of the cycle collapse
   (ConstraintGraphBase.collapse_path and _absorb).  It executes the
   same worklist operations in the same order over the same state: the
   engine's `pending` deque, the graph's `parent` and `ranks` lists, its
   four lists of buckets and its insertion log (`journal`, three items
   per stored edge: bucket number, variable, item).  A bucket is a real
   set holding the same objects, inserted in the same sequence, or the
   shared empty frozenset EMPTY_BUCKET until its first insert, which
   stores a new set in its place; sets are iterated in CPython's own
   order, so cycle detection and every counter equal the Python
   kernel's.  The worklist holds unit sink and resolution entries and
   fan-outs for everything else.  Python is called back only for pairs
   that need decompose (_resolve_generic), flat plans (flat_plan),
   periodic sweeps (engine._sweep) and the trace sink's methods.

   The contract with repro.solver.engine: the engine decides which
   kernel closes a graph (a graph class whose collapse_path or _absorb
   is not the reference's runs on the Python kernel), and every state
   this code sees was built by the engine or checked by
   repro.resilience.checkpoint.restore.  On that state it equals its
   Python reference.  On anything else it raises TypeError, IndexError
   or KeyError, and never calls back into a reference: worklist entries
   and fan-outs are exact tuples, tags the module's own constants,
   indices exact ints within their list (a negative index is out of
   range), buckets sets or EMPTY_BUCKET.  Only validate() hands an
   invalid system to ConstraintSystem.validate, for its structured
   InvalidSystemError.

   Term and Var hash through the `_hash` slot each instance caches:
   bind() gives both classes a C tp_hash that reads it, so the sets
   hash terms without entering their Python __hash__, which stays the
   reference and the fallback.

   The envelope transliterates the rest of a batch solve: the system's
   validation, the random order's ranks, the final edge counts and both
   forms' least solutions (see "The solve envelope" below).

   repro.solver.native compiles this file on first import and calls
   bind() with the Python kernel module; the worklist tags, the log's
   bucket numbers, the empty bucket, the Term and Var classes and the
   constructors 0 and 1 come from it. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Py_T_OBJECT_EX and Py_READONLY are in Python.h from 3.12 on. */
#if PY_VERSION_HEX < 0x030C0000
#include <structmember.h>
#define Py_T_OBJECT_EX T_OBJECT_EX
#define Py_READONLY READONLY
#endif

/* CPython 3.10-3.12 export _PySet_NextEntry: it walks a set's table in
   the order the set iterator does, without an iterator object.  Other
   versions use the iterator protocol. */
#if PY_VERSION_HEX >= 0x030A0000 && PY_VERSION_HEX < 0x030D0000
#define FAST_SET_ITERATION 1
#endif

/* ------------------------------------------------------------------ */
/* Names bound from the Python kernel module by bind()                  */
/* ------------------------------------------------------------------ */

static PyObject *python_kernel;
static PyObject *TermType, *VarType;
static PyObject *OP_SOURCE_FAN, *OP_SOURCES_FAN, *OP_SUCC_FAN, *OP_PRED_FAN;
static PyObject *OP_RESOLVE, *OP_SINK, *OP_VAR_VAR, *OP_SOURCE;
static PyObject *ONE_CONSTRUCTOR, *ZERO_CONSTRUCTOR, *DECREASING;
static PyObject *SUCC_BUCKET, *PRED_BUCKET, *SOURCES_BUCKET, *SINKS_BUCKET;
static PyObject *EMPTY_BUCKET;

static struct {
    PyObject **slot;
    const char *name;
} bound_names[] = {
    {&TermType, "Term"},
    {&VarType, "Var"},
    {&OP_SOURCE_FAN, "OP_SOURCE_FAN"},
    {&OP_SOURCES_FAN, "OP_SOURCES_FAN"},
    {&OP_SUCC_FAN, "OP_SUCC_FAN"},
    {&OP_PRED_FAN, "OP_PRED_FAN"},
    {&OP_RESOLVE, "OP_RESOLVE"},
    {&OP_SINK, "OP_SINK"},
    {&OP_VAR_VAR, "OP_VAR_VAR"},
    {&OP_SOURCE, "OP_SOURCE"},
    {&ONE_CONSTRUCTOR, "ONE_CONSTRUCTOR"},
    {&ZERO_CONSTRUCTOR, "ZERO_CONSTRUCTOR"},
    {&DECREASING, "_DECREASING"},
    {&SUCC_BUCKET, "SUCC_BUCKET"},
    {&PRED_BUCKET, "PRED_BUCKET"},
    {&SOURCES_BUCKET, "SOURCES_BUCKET"},
    {&SINKS_BUCKET, "SINKS_BUCKET"},
    {&EMPTY_BUCKET, "EMPTY_BUCKET"},
    {NULL, NULL},
};

/* Interned attribute, method and event names. */
static PyObject *S_pending, *S_popleft, *S_appendleft, *S_append, *S_pop;
static PyObject *S_graph, *S_sink, *S_stats, *S_parent, *S_ranks;
static PyObject *S_succ_vars, *S_pred_vars, *S_sources, *S_sinks;
static PyObject *S_journal, *S_inductive, *S_online_cycles;
static PyObject *S_search_mode, *S_periodic;
static PyObject *S_since_sweep, *S_periodic_interval, *S_sweep;
static PyObject *S_work, *S_redundant, *S_self_edges, *S_resolutions;
static PyObject *S_cycle_searches, *S_cycle_search_visits;
static PyObject *S_constructor, *S_index, *S_plan, *S_flat_plan;
static PyObject *S_resolve_generic, *S_edge, *S_resolve, *S_search_start;
static PyObject *S_search_visit, *S_search_end;
static PyObject *S_added, *S_redundant_outcome, *S_self, *S_cycle;
static PyObject *S__vars, *S__constructors, *S__constraints, *S_validate;
static PyObject *S_name, *S_signature, *S_num_vars;
static PyObject *S_emit, *S_dead_records, *S_cycles_found;
static PyObject *S_vars_eliminated, *S_collapse;

static struct {
    PyObject **slot;
    const char *text;
} interned[] = {
    {&S_pending, "pending"},
    {&S_popleft, "popleft"},
    {&S_appendleft, "appendleft"},
    {&S_append, "append"},
    {&S_pop, "pop"},
    {&S_graph, "graph"},
    {&S_sink, "sink"},
    {&S_stats, "stats"},
    {&S_parent, "parent"},
    {&S_ranks, "ranks"},
    {&S_succ_vars, "succ_vars"},
    {&S_pred_vars, "pred_vars"},
    {&S_sources, "sources"},
    {&S_sinks, "sinks"},
    {&S_journal, "journal"},
    {&S_inductive, "inductive"},
    {&S_online_cycles, "online_cycles"},
    {&S_search_mode, "search_mode"},
    {&S_periodic, "_periodic"},
    {&S_since_sweep, "_since_sweep"},
    {&S_periodic_interval, "_periodic_interval"},
    {&S_sweep, "_sweep"},
    {&S_work, "work"},
    {&S_redundant, "redundant"},
    {&S_self_edges, "self_edges"},
    {&S_resolutions, "resolutions"},
    {&S_cycle_searches, "cycle_searches"},
    {&S_cycle_search_visits, "cycle_search_visits"},
    {&S_constructor, "constructor"},
    {&S_index, "index"},
    {&S_plan, "_plan"},
    {&S_flat_plan, "flat_plan"},
    {&S_resolve_generic, "_resolve_generic"},
    {&S_edge, "edge"},
    {&S_resolve, "resolve"},
    {&S_search_start, "search_start"},
    {&S_search_visit, "search_visit"},
    {&S_search_end, "search_end"},
    {&S_added, "added"},
    {&S_redundant_outcome, "redundant"},
    {&S_self, "self"},
    {&S_cycle, "cycle"},
    {&S__vars, "_vars"},
    {&S__constructors, "_constructors"},
    {&S__constraints, "_constraints"},
    {&S_validate, "validate"},
    {&S_name, "name"},
    {&S_signature, "signature"},
    {&S_num_vars, "num_vars"},
    {&S_emit, "emit"},
    {&S_dead_records, "dead_records"},
    {&S_cycles_found, "cycles_found"},
    {&S_vars_eliminated, "vars_eliminated"},
    {&S_collapse, "collapse"},
    {NULL, NULL},
};

/* ------------------------------------------------------------------ */
/* Kernel state: what run_kernel binds to locals                        */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject *engine;
    PyObject *pending, *popleft, *appendleft, *append, *pop;
    PyObject *sink; /* NULL: no sink */
    PyObject *stats;
    PyObject *graph, *emit;
    PyObject *parent, *ranks, *succ_vars, *pred_vars, *sources, *sinks;
    PyObject *journal; /* NULL: not journaling */
    int inductive, online, periodic, sf_decreasing;
    Py_ssize_t since_sweep, interval;
    Py_ssize_t work, redundant, self_edges, resolutions, dead_records;
    /* Chain-search scratch, allocated by the first search: marks[v] ==
       search means v was visited by the current search, came_from[v]
       is the vertex it was reached from.  A found chain is put in
       path[0 .. path_length), start first. */
    Py_ssize_t capacity;
    size_t search;
    size_t *marks;
    Py_ssize_t *came_from;
    Py_ssize_t *stack;
    Py_ssize_t stack_capacity;
    Py_ssize_t *path;
    Py_ssize_t path_length, path_capacity;
} Kernel;

/* ------------------------------------------------------------------ */
/* Indexing                                                             */
/* ------------------------------------------------------------------ */

/* An index: an exact int. */
static int
as_index(PyObject *object, Py_ssize_t *out)
{
    if (!PyLong_CheckExact(object)) {
        PyErr_Format(PyExc_TypeError, "an index must be an int, not %.200s",
                     Py_TYPE(object)->tp_name);
        return -1;
    }
    *out = PyLong_AsSsize_t(object);
    if (*out == -1 && PyErr_Occurred()) {
        if (PyErr_ExceptionMatches(PyExc_OverflowError)) {
            PyErr_SetString(PyExc_IndexError, "list index out of range");
        }
        return -1;
    }
    return 0;
}

/* list[i], borrowed; a negative i is out of range. */
static PyObject *
item_at(PyObject *list, Py_ssize_t i)
{
    if (i < 0 || i >= PyList_GET_SIZE(list)) {
        PyErr_SetString(PyExc_IndexError, "list index out of range");
        return NULL;
    }
    return PyList_GET_ITEM(list, i);
}

static int
index_at(PyObject *list, Py_ssize_t i, Py_ssize_t *out)
{
    PyObject *item = item_at(list, i);
    return item == NULL ? -1 : as_index(item, out);
}

/* An index into a list of `size` items. */
static int
index_within(PyObject *object, Py_ssize_t size, Py_ssize_t *out)
{
    if (as_index(object, out) < 0) {
        return -1;
    }
    if (*out < 0 || *out >= size) {
        PyErr_SetString(PyExc_IndexError, "list index out of range");
        return -1;
    }
    return 0;
}

/* 0 when `bucket` is a set or EMPTY_BUCKET, else -1 with a TypeError. */
static int
check_bucket(PyObject *bucket)
{
    if (PySet_CheckExact(bucket) || bucket == EMPTY_BUCKET) {
        return 0;
    }
    PyErr_Format(PyExc_TypeError, "a solver bucket must be a set, not %.200s",
                 Py_TYPE(bucket)->tp_name);
    return -1;
}

/* buckets[i], a set or EMPTY_BUCKET; a new reference. */
static PyObject *
bucket_at(PyObject *buckets, Py_ssize_t i)
{
    PyObject *bucket = item_at(buckets, i);
    if (bucket == NULL || check_bucket(bucket) < 0) {
        return NULL;
    }
    return Py_NewRef(bucket);
}

/* `bucket = buckets[i] = set()`: a bucket's first insert replaces
   EMPTY_BUCKET with a new set; a new reference. */
static PyObject *
new_bucket(PyObject *buckets, Py_ssize_t i)
{
    PyObject *bucket = PySet_New(NULL);
    if (bucket == NULL) {
        return NULL;
    }
    if (PyList_SetItem(buckets, i, Py_NewRef(bucket)) < 0) {
        Py_DECREF(bucket);
        return NULL;
    }
    return bucket;
}

/* bucket_at for an insert: a set, made by new_bucket when the bucket
   is EMPTY_BUCKET. */
static PyObject *
bucket_for_insert(PyObject *buckets, Py_ssize_t i)
{
    PyObject *bucket = bucket_at(buckets, i);
    if (bucket == EMPTY_BUCKET) {
        Py_SETREF(bucket, new_bucket(buckets, i));
    }
    return bucket;
}

/* journal += (bucket, var, item), when journaling */
static int
log_insertion(PyObject *journal, PyObject *bucket, PyObject *var,
              PyObject *item)
{
    if (journal == NULL) {
        return 0;
    }
    return PyList_Append(journal, bucket) < 0
        || PyList_Append(journal, var) < 0
        || PyList_Append(journal, item) < 0 ? -1 : 0;
}

/* ------------------------------------------------------------------ */
/* Set iteration in CPython's order                                     */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject *set;
    Py_ssize_t position;
    PyObject *iterator;
    PyObject *item;
} SetIter;

static int
set_iter_start(SetIter *it, PyObject *set)
{
    it->set = set;
    it->position = 0;
    it->iterator = NULL;
    it->item = NULL;
#ifndef FAST_SET_ITERATION
    it->iterator = PyObject_GetIter(set);
    if (it->iterator == NULL) {
        return -1;
    }
#endif
    return 0;
}

/* 1 with the next member (borrowed until the next call), 0 at the end,
   -1 on error. */
static int
set_iter_next(SetIter *it, PyObject **item)
{
#ifdef FAST_SET_ITERATION
    Py_hash_t hash;
    return _PySet_NextEntry(it->set, &it->position, item, &hash);
#else
    Py_CLEAR(it->item);
    it->item = PyIter_Next(it->iterator);
    if (it->item == NULL) {
        return PyErr_Occurred() ? -1 : 0;
    }
    *item = it->item;
    return 1;
#endif
}

static void
set_iter_stop(SetIter *it)
{
    Py_CLEAR(it->item);
    Py_CLEAR(it->iterator);
}

/* tuple(set) */
static PyObject *
set_tuple(PyObject *set)
{
#ifdef FAST_SET_ITERATION
    Py_ssize_t size = PySet_GET_SIZE(set), i = 0, position = 0;
    PyObject *tuple = PyTuple_New(size), *key;
    Py_hash_t hash;
    if (tuple == NULL) {
        return NULL;
    }
    if (PySet_GET_SIZE(set) != size) {
        /* Allocating the tuple ran code that changed the set. */
        Py_DECREF(tuple);
        return PySequence_Tuple(set);
    }
    while (i < size && _PySet_NextEntry(set, &position, &key, &hash)) {
        PyTuple_SET_ITEM(tuple, i, Py_NewRef(key));
        i++;
    }
    return tuple;
#else
    return PySequence_Tuple(set);
#endif
}

/* ------------------------------------------------------------------ */
/* Worklist, sink and counters                                          */
/* ------------------------------------------------------------------ */

static int
call_discard(PyObject *callable, PyObject *argument)
{
    PyObject *result = PyObject_CallOneArg(callable, argument);
    Py_XDECREF(result);
    return result == NULL ? -1 : 0;
}

/* method((tag, first, second)) for method in append/appendleft */
static int
emit(PyObject *method, PyObject *tag, PyObject *first, PyObject *second)
{
    PyObject *entry = PyTuple_Pack(3, tag, first, second);
    int rc;
    if (entry == NULL) {
        return -1;
    }
    rc = call_discard(method, entry);
    Py_DECREF(entry);
    return rc;
}

/* method((tag, first, (member,))): a fan-out of one */
static int
emit_one(PyObject *method, PyObject *tag, PyObject *first, PyObject *member)
{
    PyObject *members = PyTuple_Pack(1, member);
    int rc;
    if (members == NULL) {
        return -1;
    }
    rc = emit(method, tag, first, members);
    Py_DECREF(members);
    return rc;
}

/* method((tag, first, tuple(bucket))) when the bucket is not empty */
static int
emit_members(PyObject *method, PyObject *tag, PyObject *first,
             PyObject *bucket)
{
    PyObject *members;
    int rc;
    if (PySet_GET_SIZE(bucket) == 0) {
        return 0;
    }
    members = set_tuple(bucket);
    if (members == NULL) {
        return -1;
    }
    rc = emit(method, tag, first, members);
    Py_DECREF(members);
    return rc;
}

/* append((tag, first, tuple(buckets[i]))) when the bucket is not
   empty */
static int
emit_bucket(Kernel *k, PyObject *tag, PyObject *first, PyObject *buckets,
            Py_ssize_t i)
{
    PyObject *bucket = bucket_at(buckets, i);
    int rc;
    if (bucket == NULL) {
        return -1;
    }
    rc = emit_members(k->append, tag, first, bucket);
    Py_DECREF(bucket);
    return rc;
}

/* sink.<name>(*args) */
static int
sink_call(Kernel *k, PyObject *name, PyObject **args, size_t count)
{
    PyObject *stack[5], *result;
    stack[0] = k->sink;
    memcpy(&stack[1], args, count * sizeof(PyObject *));
    result = PyObject_VectorcallMethod(name, stack, count + 1, NULL);
    Py_XDECREF(result);
    return result == NULL ? -1 : 0;
}

static int
edge_event(Kernel *k, PyObject *kind, PyObject *source, PyObject *target,
           PyObject *outcome)
{
    PyObject *args[4] = {kind, source, target, outcome};
    return sink_call(k, S_edge, args, 4);
}

/* sink.<name>(*values) for small integer and bool arguments */
static int
sink_ints(Kernel *k, PyObject *name, size_t count, Py_ssize_t a,
          Py_ssize_t b, Py_ssize_t c, int first_is_bool)
{
    Py_ssize_t values[3] = {a, b, c};
    PyObject *args[3] = {NULL, NULL, NULL};
    size_t i;
    int rc = -1;
    for (i = 0; i < count; i++) {
        args[i] = (i == 0 && first_is_bool) ? PyBool_FromLong((long)a)
                                           : PyLong_FromSsize_t(values[i]);
        if (args[i] == NULL) {
            goto done;
        }
    }
    rc = sink_call(k, name, args, count);
done:
    for (i = 0; i < count; i++) {
        Py_XDECREF(args[i]);
    }
    return rc;
}

/* stats.<name> += count */
static int
add_count(PyObject *stats, PyObject *name, Py_ssize_t count)
{
    PyObject *old, *delta = NULL, *sum = NULL;
    int rc = -1;
    old = PyObject_GetAttr(stats, name);
    if (old != NULL && (delta = PyLong_FromSsize_t(count)) != NULL
            && (sum = PyNumber_InPlaceAdd(old, delta)) != NULL) {
        rc = PyObject_SetAttr(stats, name, sum);
    }
    Py_XDECREF(old);
    Py_XDECREF(delta);
    Py_XDECREF(sum);
    return rc;
}

/* Pending exceptions survive the cleanup code that runs after them, as
   in a Python `finally`; an exception raised by that code replaces
   them. */
#if PY_VERSION_HEX >= 0x030C0000
typedef struct { PyObject *exception; } SavedError;
static void save_error(SavedError *saved)
{
    saved->exception = PyErr_GetRaisedException();
}
static void restore_error(SavedError *saved)
{
    if (PyErr_Occurred()) {
        Py_XDECREF(saved->exception);
    }
    else {
        PyErr_SetRaisedException(saved->exception);
    }
}
#else
typedef struct { PyObject *type, *value, *traceback; } SavedError;
static void save_error(SavedError *saved)
{
    PyErr_Fetch(&saved->type, &saved->value, &saved->traceback);
}
static void restore_error(SavedError *saved)
{
    if (PyErr_Occurred()) {
        Py_XDECREF(saved->type);
        Py_XDECREF(saved->value);
        Py_XDECREF(saved->traceback);
    }
    else {
        PyErr_Restore(saved->type, saved->value, saved->traceback);
    }
}
#endif

/* ------------------------------------------------------------------ */
/* find and the chain search (repro.graph.cycles.find_chain_path)       */
/* ------------------------------------------------------------------ */

/* graph.find(var): the representative, with path compression. */
static int
find(Kernel *k, Py_ssize_t var, Py_ssize_t *out)
{
    PyObject *parent = k->parent, *root_object;
    Py_ssize_t root, next;
    if (index_at(parent, var, &root) < 0) {
        return -1;
    }
    if (root == var) {
        *out = root;
        return 0;
    }
    for (;;) {
        if (index_at(parent, root, &next) < 0) {
            return -1;
        }
        if (next == root) {
            break;
        }
        root = next;
    }
    root_object = item_at(parent, root);
    for (;;) {
        if (index_at(parent, var, &next) < 0) {
            return -1;
        }
        if (next == root) {
            break;
        }
        /* parent[var], var = root, parent[var] */
        if (PyList_SetItem(parent, var, Py_NewRef(root_object)) < 0) {
            return -1;
        }
        var = next;
    }
    *out = root;
    return 0;
}

/* `if parent[var] != var: var = find(var)` for the variable `object`:
   the representative's index and object (a new reference). */
static PyObject *
representative(Kernel *k, PyObject *object, Py_ssize_t *out)
{
    Py_ssize_t var, up;
    PyObject *item;
    if (as_index(object, &var) < 0 || index_at(k->parent, var, &up) < 0) {
        return NULL;
    }
    if (up == var) {
        *out = var;
        return Py_NewRef(object);
    }
    if (find(k, var, out) < 0) {
        return NULL;
    }
    item = item_at(k->parent, *out);
    return item == NULL ? NULL : Py_NewRef(item);
}

/* Make vertex v addressable in the search scratch. */
static int
reserve(Kernel *k, Py_ssize_t v)
{
    Py_ssize_t capacity, i;
    size_t *marks;
    Py_ssize_t *came_from;
    if (v < k->capacity) {
        return 0;
    }
    capacity = PyList_GET_SIZE(k->parent);
    if (capacity <= v) {
        capacity = v + 1;
    }
    marks = PyMem_Realloc(k->marks, (size_t)capacity * sizeof(size_t));
    if (marks == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    k->marks = marks;
    came_from = PyMem_Realloc(k->came_from,
                              (size_t)capacity * sizeof(Py_ssize_t));
    if (came_from == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    k->came_from = came_from;
    for (i = k->capacity; i < capacity; i++) {
        marks[i] = 0;
    }
    k->capacity = capacity;
    return 0;
}

static int
push(Kernel *k, Py_ssize_t *depth, Py_ssize_t v)
{
    if (*depth == k->stack_capacity) {
        Py_ssize_t capacity = k->stack_capacity ? 2 * k->stack_capacity : 64;
        Py_ssize_t *stack = PyMem_Realloc(
            k->stack, (size_t)capacity * sizeof(Py_ssize_t));
        if (stack == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        k->stack = stack;
        k->stack_capacity = capacity;
    }
    k->stack[(*depth)++] = v;
    return 0;
}

/* The path [start, ..., target] through came_from, into k->path. */
static int
reconstruct(Kernel *k, Py_ssize_t start, Py_ssize_t target)
{
    Py_ssize_t length = 1, node = target, i;
    while (node != start) {
        node = k->came_from[node];
        length++;
    }
    if (length > k->path_capacity) {
        Py_ssize_t *path = PyMem_Realloc(k->path,
                                         (size_t)length * sizeof *path);
        if (path == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        k->path = path;
        k->path_capacity = length;
    }
    node = target;
    for (i = length - 1; i >= 0; i--) {
        k->path[i] = node;
        if (i > 0) {
            node = k->came_from[node];
        }
    }
    k->path_length = length;
    return 0;
}

/* find_chain_path(adjacency, graph.find, graph.ranks.__getitem__, start,
   target, mode, stats, sink): 1 with the path in k->path, 0 when the
   restricted search finds no chain, -1 on error. */
static int
chain_path(Kernel *k, PyObject *adjacency, Py_ssize_t start,
           Py_ssize_t target, int decreasing)
{
    PyObject *bucket, *raw;
    Py_ssize_t depth = 0, visits = 0, current, current_rank, node;
    Py_ssize_t neighbour, neighbour_rank;
    int found = 0, more, empty;
    SetIter it;

    if (add_count(k->stats, S_cycle_searches, 1) < 0) {
        return -1;
    }
    if (k->sink != NULL
            && sink_ints(k, S_search_start, 2, start, target, 0, 0) < 0) {
        return -1;
    }
    if (start == target) {
        if (k->sink != NULL
                && sink_ints(k, S_search_end, 3, 1, 0, 1, 1) < 0) {
            return -1;
        }
        return reconstruct(k, start, start) < 0 ? -1 : 1;
    }
    bucket = bucket_at(adjacency, start);
    if (bucket == NULL) {
        return -1;
    }
    empty = PySet_GET_SIZE(bucket) == 0;
    Py_DECREF(bucket);
    if (empty) {
        if (add_count(k->stats, S_cycle_search_visits, 1) < 0) {
            return -1;
        }
        if (k->sink != NULL
                && (sink_ints(k, S_search_visit, 1, start, 0, 0, 0) < 0
                    || sink_ints(k, S_search_end, 3, 0, 1, 0, 1) < 0)) {
            return -1;
        }
        return 0;
    }
    if (reserve(k, start) < 0) {
        return -1;
    }
    k->search++;
    k->marks[start] = k->search;
    if (push(k, &depth, start) < 0) {
        return -1;
    }
    while (depth > 0 && !found) {
        current = k->stack[--depth];
        visits++;
        if (k->sink != NULL
                && sink_ints(k, S_search_visit, 1, current, 0, 0, 0) < 0) {
            return -1;
        }
        if (index_at(k->ranks, current, &current_rank) < 0) {
            return -1;
        }
        bucket = bucket_at(adjacency, current);
        if (bucket == NULL || set_iter_start(&it, bucket) < 0) {
            Py_XDECREF(bucket);
            return -1;
        }
        while ((more = set_iter_next(&it, &raw)) == 1) {
            if (as_index(raw, &node) < 0 || find(k, node, &neighbour) < 0
                    || reserve(k, neighbour) < 0) {
                more = -1;
                break;
            }
            if (k->marks[neighbour] == k->search || neighbour == current) {
                continue;
            }
            if (index_at(k->ranks, neighbour, &neighbour_rank) < 0) {
                more = -1;
                break;
            }
            if (decreasing ? neighbour_rank >= current_rank
                           : neighbour_rank <= current_rank) {
                continue;
            }
            k->marks[neighbour] = k->search;
            k->came_from[neighbour] = current;
            if (neighbour == target) {
                found = 1;
                break;
            }
            if (push(k, &depth, neighbour) < 0) {
                more = -1;
                break;
            }
        }
        set_iter_stop(&it);
        Py_DECREF(bucket);
        if (more < 0) {
            return -1;
        }
    }
    if (add_count(k->stats, S_cycle_search_visits, visits) < 0) {
        return -1;
    }
    if (!found) {
        if (k->sink != NULL
                && sink_ints(k, S_search_end, 3, 0, visits, 0, 1) < 0) {
            return -1;
        }
        return 0;
    }
    if (reconstruct(k, start, target) < 0
            || (k->sink != NULL
                && sink_ints(k, S_search_end, 3, 1, visits, k->path_length,
                             1) < 0)) {
        return -1;
    }
    return 1;
}

/* ------------------------------------------------------------------ */
/* The handlers                                                         */
/* ------------------------------------------------------------------ */

/* One source insertion `term <= var` of a source fan-out. */
static int
source_member(Kernel *k, PyObject *term, PyObject *var_object)
{
    PyObject *var, *bucket = NULL, *sink_term;
    Py_ssize_t v, size;
    SetIter it;
    int rc = -1, more;

    k->work++;
    var = representative(k, var_object, &v);
    if (var == NULL || (bucket = bucket_for_insert(k->sources, v)) == NULL) {
        goto done;
    }
    /* Single-probe redundancy check: `add` reports a duplicate through
       an unchanged size. */
    size = PySet_GET_SIZE(bucket);
    if (PySet_Add(bucket, term) < 0) {
        goto done;
    }
    if (PySet_GET_SIZE(bucket) == size) {
        k->redundant++;
        if (k->sink != NULL && edge_event(k, OP_SOURCE, term, var,
                                          S_redundant_outcome) < 0) {
            goto done;
        }
        rc = 0;
        goto done;
    }
    if (log_insertion(k->journal, SOURCES_BUCKET, var, term) < 0) {
        goto done;
    }
    if (k->sink != NULL && edge_event(k, OP_SOURCE, term, var, S_added) < 0) {
        goto done;
    }
    if (emit_bucket(k, OP_SOURCE_FAN, term, k->succ_vars, v) < 0) {
        goto done;
    }
    Py_CLEAR(bucket);
    if ((bucket = bucket_at(k->sinks, v)) == NULL
            || set_iter_start(&it, bucket) < 0) {
        goto done;
    }
    while ((more = set_iter_next(&it, &sink_term)) == 1) {
        if (emit(k->append, OP_RESOLVE, term, sink_term) < 0) {
            more = -1;
            break;
        }
    }
    set_iter_stop(&it);
    rc = more;
done:
    Py_XDECREF(var);
    Py_XDECREF(bucket);
    return rc;
}

/* ConstraintGraphBase._absorb(absorbed, witness): forward `absorbed`
   into `witness`, count its log records as dead, re-emit its buckets
   (sources, successors and predecessors as fan-outs, sinks as unit
   operations) and reset them to EMPTY_BUCKET. */
static int
absorb(Kernel *k, Py_ssize_t absorbed, PyObject *witness)
{
    /* in _absorb's order: sources, sinks, successors, predecessors */
    PyObject *lists[4] = {k->sources, k->sinks, k->succ_vars, k->pred_vars};
    PyObject *buckets[4] = {NULL, NULL, NULL, NULL}, *term;
    SetIter it;
    int i, rc = -1, more;

    if (PyList_SetItem(k->parent, absorbed, Py_NewRef(witness)) < 0
            || add_count(k->stats, S_vars_eliminated, 1) < 0) {
        return -1;
    }
    for (i = 0; i < 4; i++) {
        if ((buckets[i] = bucket_at(lists[i], absorbed)) == NULL) {
            goto done;
        }
        k->dead_records += PySet_GET_SIZE(buckets[i]);
    }
    if (emit_members(k->emit, OP_SOURCES_FAN, witness, buckets[0]) < 0
            || set_iter_start(&it, buckets[1]) < 0) {
        goto done;
    }
    while ((more = set_iter_next(&it, &term)) == 1) {
        if (emit(k->emit, OP_SINK, witness, term) < 0) {
            more = -1;
            break;
        }
    }
    set_iter_stop(&it);
    if (more < 0
            || emit_members(k->emit, OP_SUCC_FAN, witness, buckets[2]) < 0
            || emit_members(k->emit, OP_PRED_FAN, witness, buckets[3]) < 0) {
        goto done;
    }
    for (i = 0; i < 4; i++) {
        if (PyList_SetItem(lists[i], absorbed, Py_NewRef(EMPTY_BUCKET)) < 0) {
            goto done;
        }
    }
    rc = 0;
done:
    for (i = 0; i < 4; i++) {
        Py_XDECREF(buckets[i]);
    }
    return rc;
}

/* ConstraintGraphBase.collapse_path(k->path): collapse the distinct
   representatives on the path onto the lowest-ranked one. */
static int
collapse_path(Kernel *k)
{
    Py_ssize_t count = 0, i, node, rank, witness = 0, witness_rank = 0;
    PyObject *witness_object = NULL, *nodes = NULL, *item;
    int rc = -1;

    /* The path's representatives, first occurrences only, in order;
       they overwrite the path. */
    k->search++;
    for (i = 0; i < k->path_length; i++) {
        if (find(k, k->path[i], &node) < 0 || reserve(k, node) < 0) {
            return -1;
        }
        if (k->marks[node] != k->search) {
            k->marks[node] = k->search;
            k->path[count++] = node;
        }
    }
    /* witness = min(nodes, key=ranks.__getitem__) */
    for (i = 0; i < count; i++) {
        if (index_at(k->ranks, k->path[i], &rank) < 0) {
            return -1;
        }
        if (i == 0 || rank < witness_rank) {
            witness = k->path[i];
            witness_rank = rank;
        }
    }
    if (add_count(k->stats, S_cycles_found, 1) < 0
            || (witness_object = PyLong_FromSsize_t(witness)) == NULL) {
        return -1;
    }
    if (k->sink != NULL && count > 1) {
        PyObject *args[2];
        if ((nodes = PyTuple_New(count)) == NULL) {
            goto done;
        }
        for (i = 0; i < count; i++) {
            if ((item = PyLong_FromSsize_t(k->path[i])) == NULL) {
                goto done;
            }
            PyTuple_SET_ITEM(nodes, i, item);
        }
        args[0] = witness_object;
        args[1] = nodes;
        if (sink_call(k, S_collapse, args, 2) < 0) {
            goto done;
        }
    }
    for (i = 0; i < count; i++) {
        if (k->path[i] != witness
                && absorb(k, k->path[i], witness_object) < 0) {
            goto done;
        }
    }
    rc = 0;
done:
    Py_XDECREF(nodes);
    Py_DECREF(witness_object);
    return rc;
}

/* Collapse the chain in k->path, then the sink's "cycle" event. */
static int
collapse(Kernel *k, PyObject **left, PyObject **right, Py_ssize_t l,
         int refind)
{
    Py_ssize_t witness;
    PyObject *item;
    if (collapse_path(k) < 0) {
        return -1;
    }
    if (k->sink == NULL) {
        return 0;
    }
    if (refind) {
        /* The path held both endpoints, so they are one vertex now. */
        if (find(k, l, &witness) < 0
                || (item = item_at(k->parent, witness)) == NULL) {
            return -1;
        }
        Py_SETREF(*left, Py_NewRef(item));
        Py_SETREF(*right, Py_NewRef(item));
    }
    return edge_event(k, OP_VAR_VAR, *left, *right, S_cycle);
}

/* A successor edge `left -> right` stored at `left`. */
static int
successor_edge(Kernel *k, Py_ssize_t l, Py_ssize_t r, PyObject **left,
               PyObject **right)
{
    PyObject *bucket;
    int rc = -1, present, found;

    if ((bucket = bucket_at(k->succ_vars, l)) == NULL) {
        return -1;
    }
    present = PySet_Contains(bucket, *right);
    if (present < 0) {
        goto done;
    }
    if (present) {
        k->redundant++;
        rc = k->sink == NULL ? 0 : edge_event(k, OP_VAR_VAR, *left, *right,
                                              S_redundant_outcome);
        goto done;
    }
    if (k->online) {
        /* IF searches predecessor chains left -> right, SF successor
           chains right -> left; either closes a cycle with the new
           edge. */
        found = k->inductive
            ? chain_path(k, k->pred_vars, l, r, 1)
            : chain_path(k, k->succ_vars, r, l, k->sf_decreasing);
        if (found != 0) {
            rc = found < 0 ? -1 : collapse(k, left, right, l, !k->inductive);
            goto done;
        }
    }
    if (bucket == EMPTY_BUCKET) {
        Py_SETREF(bucket, new_bucket(k->succ_vars, l));
    }
    if (bucket == NULL
            || PySet_Add(bucket, *right) < 0
            || log_insertion(k->journal, SUCC_BUCKET, *left, *right) < 0
            || (k->sink != NULL
                && edge_event(k, OP_VAR_VAR, *left, *right, S_added) < 0)
            || (k->inductive
                && emit_bucket(k, OP_PRED_FAN, *right, k->pred_vars, l) < 0)
            || emit_bucket(k, OP_SOURCES_FAN, *right, k->sources, l) < 0) {
        goto done;
    }
    rc = 0;
done:
    Py_XDECREF(bucket);
    return rc;
}

/* An inductive predecessor edge `left -> right` stored at `right`. */
static int
predecessor_edge(Kernel *k, Py_ssize_t l, Py_ssize_t r, PyObject **left,
                 PyObject **right)
{
    PyObject *bucket, *term;
    SetIter it;
    int rc = -1, present, more, found;

    if ((bucket = bucket_at(k->pred_vars, r)) == NULL) {
        return -1;
    }
    present = PySet_Contains(bucket, *left);
    if (present < 0) {
        goto done;
    }
    if (present) {
        k->redundant++;
        rc = k->sink == NULL ? 0 : edge_event(k, OP_VAR_VAR, *left, *right,
                                              S_redundant_outcome);
        goto done;
    }
    if (k->online) {
        found = chain_path(k, k->succ_vars, r, l, 1);
        if (found != 0) {
            rc = found < 0 ? -1 : collapse(k, left, right, l, 0);
            goto done;
        }
    }
    if (bucket == EMPTY_BUCKET) {
        Py_SETREF(bucket, new_bucket(k->pred_vars, r));
    }
    if (bucket == NULL
            || PySet_Add(bucket, *left) < 0
            || log_insertion(k->journal, PRED_BUCKET, *right, *left) < 0
            || (k->sink != NULL
                && edge_event(k, OP_VAR_VAR, *left, *right, S_added) < 0)
            || emit_bucket(k, OP_SUCC_FAN, *left, k->succ_vars, r) < 0) {
        goto done;
    }
    Py_SETREF(bucket, bucket_at(k->sinks, r));
    if (bucket == NULL || set_iter_start(&it, bucket) < 0) {
        goto done;
    }
    while ((more = set_iter_next(&it, &term)) == 1) {
        if (emit(k->append, OP_SINK, *left, term) < 0) {
            more = -1;
            break;
        }
    }
    set_iter_stop(&it);
    rc = more;
done:
    Py_XDECREF(bucket);
    return rc;
}

/* One var-var insertion `left <= right` of a var-var fan-out. */
static int
var_var_member(Kernel *k, PyObject *left_object, PyObject *right_object)
{
    PyObject *left, *right = NULL, *result;
    Py_ssize_t l, r, left_rank, right_rank;
    int rc = -1;

    k->work++;
    left = representative(k, left_object, &l);
    if (left == NULL
            || (right = representative(k, right_object, &r)) == NULL) {
        goto done;
    }
    if (l == r) {
        k->self_edges++;
        if (k->sink != NULL
                && edge_event(k, OP_VAR_VAR, left, right, S_self) < 0) {
            goto done;
        }
    }
    else {
        int stored_at_left = 1;
        if (k->inductive) {
            if (index_at(k->ranks, l, &left_rank) < 0
                    || index_at(k->ranks, r, &right_rank) < 0) {
                goto done;
            }
            stored_at_left = left_rank > right_rank;
        }
        if (stored_at_left
                ? successor_edge(k, l, r, &left, &right) < 0
                : predecessor_edge(k, l, r, &left, &right) < 0) {
            goto done;
        }
    }
    if (k->periodic) {
        k->since_sweep++;
        if (k->since_sweep >= k->interval) {
            k->since_sweep = 0;
            result = PyObject_CallMethodNoArgs(k->engine, S_sweep);
            if (result == NULL) {
                goto done;
            }
            Py_DECREF(result);
        }
    }
    rc = 0;
done:
    Py_XDECREF(left);
    Py_XDECREF(right);
    return rc;
}

/* One sink insertion `var <= term`. */
static int
sink_entry(Kernel *k, PyObject *var_object, PyObject *term)
{
    PyObject *var, *bucket = NULL, *member;
    Py_ssize_t v, size;
    SetIter it;
    int rc = -1, more;

    k->work++;
    var = representative(k, var_object, &v);
    if (var == NULL || (bucket = bucket_for_insert(k->sinks, v)) == NULL) {
        goto done;
    }
    size = PySet_GET_SIZE(bucket);
    if (PySet_Add(bucket, term) < 0) {
        goto done;
    }
    if (PySet_GET_SIZE(bucket) == size) {
        k->redundant++;
        rc = k->sink == NULL ? 0 : edge_event(k, OP_SINK, var, term,
                                              S_redundant_outcome);
        goto done;
    }
    if (log_insertion(k->journal, SINKS_BUCKET, var, term) < 0
            || (k->sink != NULL
                && edge_event(k, OP_SINK, var, term, S_added) < 0)) {
        goto done;
    }
    /* Passed back to the variable predecessors (IF only: SF never
       stores any) and resolved against the sources. */
    Py_SETREF(bucket, bucket_at(k->pred_vars, v));
    if (bucket == NULL || set_iter_start(&it, bucket) < 0) {
        goto done;
    }
    while ((more = set_iter_next(&it, &member)) == 1) {
        if (emit(k->append, OP_SINK, member, term) < 0) {
            more = -1;
            break;
        }
    }
    set_iter_stop(&it);
    if (more < 0) {
        goto done;
    }
    Py_SETREF(bucket, bucket_at(k->sources, v));
    if (bucket == NULL || set_iter_start(&it, bucket) < 0) {
        goto done;
    }
    while ((more = set_iter_next(&it, &member)) == 1) {
        if (emit(k->append, OP_RESOLVE, member, term) < 0) {
            more = -1;
            break;
        }
    }
    set_iter_stop(&it);
    rc = more;
done:
    Py_XDECREF(var);
    Py_XDECREF(bucket);
    return rc;
}

/* term._plan, computed by flat_plan and cached on first use; a new
   reference. */
static PyObject *
plan_of(PyObject *term)
{
    PyObject *plan = PyObject_GetAttr(term, S_plan), *flat_plan;
    if (plan != Py_None) {
        return plan;
    }
    Py_DECREF(plan);
    flat_plan = PyObject_GetAttr(python_kernel, S_flat_plan);
    if (flat_plan == NULL) {
        return NULL;
    }
    plan = PyObject_CallOneArg(flat_plan, term);
    Py_DECREF(flat_plan);
    if (plan != NULL && PyObject_SetAttr(term, S_plan, plan) < 0) {
        Py_CLEAR(plan);
    }
    return plan;
}

/* `value.constructor is constant` */
static int
constructor_is(PyObject *value, PyObject *constant)
{
    PyObject *constructor = PyObject_GetAttr(value, S_constructor);
    if (constructor == NULL) {
        return -1;
    }
    Py_DECREF(constructor);
    return constructor == constant;
}

/* Whether `plan` has flat_plan's shape: a pair of tuples. */
static int
check_plan(PyObject *plan)
{
    if (PyTuple_CheckExact(plan) && PyTuple_GET_SIZE(plan) == 2
            && PyTuple_CheckExact(PyTuple_GET_ITEM(plan, 0))
            && PyTuple_CheckExact(PyTuple_GET_ITEM(plan, 1))) {
        return 0;
    }
    PyErr_SetString(PyExc_TypeError,
                    "a flat plan must be a pair of tuples");
    return -1;
}

/* The operations of two flat plans, as decompose emits them.  1 when
   the pair resolved; 0 on a clash, after taking back what the pair
   emitted; -1 on error. */
static int
resolve_plans(Kernel *k, PyObject *left_plan, PyObject *right_plan)
{
    PyObject *parts[3], *low, *high, *low_ctor = NULL, *high_ctor;
    Py_ssize_t count, i, emitted = 0;
    int covariant, is, clash = 0, equal;

    if (check_plan(left_plan) < 0 || check_plan(right_plan) < 0) {
        return -1;
    }
    /* Borrowed from the plans, which the caller holds. */
    parts[0] = PyTuple_GET_ITEM(left_plan, 0);
    parts[1] = PyTuple_GET_ITEM(left_plan, 1);
    parts[2] = PyTuple_GET_ITEM(right_plan, 1);
    count = PyTuple_GET_SIZE(parts[0]);
    for (i = 1; i < 3; i++) {
        if (PyTuple_GET_SIZE(parts[i]) < count) {
            count = PyTuple_GET_SIZE(parts[i]);
        }
    }
    for (i = 0; i < count && !clash; i++) {
        covariant = PyObject_IsTrue(PyTuple_GET_ITEM(parts[0], i));
        if (covariant < 0) {
            return -1;
        }
        low = PyTuple_GET_ITEM(parts[covariant ? 1 : 2], i);
        high = PyTuple_GET_ITEM(parts[covariant ? 2 : 1], i);
        if (PyLong_CheckExact(low)) {
            if (PyLong_CheckExact(high)) {
                if (emit_one(k->append, OP_SUCC_FAN, low, high) < 0) {
                    return -1;
                }
            }
            else {
                if ((is = constructor_is(high, ONE_CONSTRUCTOR)) < 0) {
                    return -1;
                }
                if (is) {
                    continue;
                }
                if (emit(k->append, OP_SINK, low, high) < 0) {
                    return -1;
                }
            }
        }
        else {
            if ((is = constructor_is(low, ZERO_CONSTRUCTOR)) < 0) {
                return -1;
            }
            if (is) {
                continue;
            }
            if (PyLong_CheckExact(high)) {
                if (emit_one(k->append, OP_SOURCE_FAN, low, high) < 0) {
                    return -1;
                }
            }
            else {
                if ((is = constructor_is(high, ONE_CONSTRUCTOR)) < 0) {
                    return -1;
                }
                if (is) {
                    continue;
                }
                low_ctor = PyObject_GetAttr(low, S_constructor);
                high_ctor = low_ctor == NULL
                    ? NULL : PyObject_GetAttr(high, S_constructor);
                equal = high_ctor == NULL
                    ? -1 : PyObject_RichCompareBool(low_ctor, high_ctor,
                                                    Py_EQ);
                Py_CLEAR(low_ctor);
                Py_XDECREF(high_ctor);
                if (equal < 0) {
                    return -1;
                }
                /* Different constructors clash; the same nullary
                   constructor resolves to nothing. */
                clash = !equal;
                continue;
            }
        }
        emitted++;
    }
    if (clash) {
        /* Take back what the pair emitted; decompose resolves it again
           and reports the clash. */
        for (i = 0; i < emitted; i++) {
            PyObject *taken = PyObject_CallNoArgs(k->pop);
            if (taken == NULL) {
                return -1;
            }
            Py_DECREF(taken);
        }
    }
    return !clash;
}

/* `var.index` */
static PyObject *
index_of(PyObject *var)
{
    return PyObject_GetAttr(var, S_index);
}

/* The resolution rules R for one pair. */
static int
resolve_entry(Kernel *k, PyObject *first, PyObject *second)
{
    PyObject *left_type = (PyObject *)Py_TYPE(first);
    PyObject *right_type = (PyObject *)Py_TYPE(second);
    PyObject *a = NULL, *b = NULL, *resolve_generic, *args[3], *result;
    int rc = -1, is;

    k->resolutions++;
    if (k->sink != NULL) {
        PyObject *pair[2] = {first, second};
        if (sink_call(k, S_resolve, pair, 2) < 0) {
            return -1;
        }
    }
    if (left_type == TermType && right_type == TermType) {
        int equal;
        a = PyObject_GetAttr(first, S_constructor);
        b = a == NULL ? NULL : PyObject_GetAttr(second, S_constructor);
        equal = b == NULL ? -1 : PyObject_RichCompareBool(a, b, Py_EQ);
        Py_CLEAR(a);
        Py_CLEAR(b);
        if (equal < 0) {
            return -1;
        }
        if (equal) {
            a = plan_of(first);
            b = a == NULL ? NULL : plan_of(second);
            if (b == NULL) {
                goto done;
            }
            if (a != Py_False && b != Py_False) {
                is = resolve_plans(k, a, b);
                if (is != 0) {
                    rc = is < 0 ? -1 : 0;
                    goto done;
                }
            }
            Py_CLEAR(a);
            Py_CLEAR(b);
        }
    }
    else if (left_type == VarType) {
        if (right_type == VarType) {
            a = index_of(first);
            b = a == NULL ? NULL : index_of(second);
            rc = b == NULL ? -1 : emit_one(k->append, OP_SUCC_FAN, a, b);
            goto done;
        }
        if (right_type == TermType) {
            if ((is = constructor_is(second, ONE_CONSTRUCTOR)) < 0) {
                return -1;
            }
            if (!is) {
                a = index_of(first);
                rc = a == NULL ? -1 : emit(k->append, OP_SINK, a, second);
                goto done;
            }
            return 0;
        }
    }
    else if (right_type == VarType && left_type == TermType) {
        if ((is = constructor_is(first, ZERO_CONSTRUCTOR)) < 0) {
            return -1;
        }
        if (!is) {
            b = index_of(second);
            rc = b == NULL ? -1 : emit_one(k->append, OP_SOURCE_FAN, first, b);
            goto done;
        }
        return 0;
    }
    resolve_generic = PyObject_GetAttr(python_kernel, S_resolve_generic);
    if (resolve_generic == NULL) {
        goto done;
    }
    args[0] = k->engine;
    args[1] = first;
    args[2] = second;
    result = PyObject_Vectorcall(resolve_generic, args, 3, NULL);
    Py_DECREF(resolve_generic);
    Py_XDECREF(result);
    rc = result == NULL ? -1 : 0;
done:
    Py_XDECREF(a);
    Py_XDECREF(b);
    return rc;
}

/* ------------------------------------------------------------------ */
/* run_kernel                                                           */
/* ------------------------------------------------------------------ */

enum {
    K_SOURCE_FAN, K_SOURCES_FAN, K_RESOLVE, K_SUCC_FAN, K_PRED_FAN,
    K_SINK, K_UNKNOWN
};

/* The handler of a tag: one of the module's own constants, which
   checkpoint restore maps unpickled tags back to. */
static int
tag_kind(PyObject *tag)
{
    PyObject *tags[K_UNKNOWN] = {
        OP_SOURCE_FAN, OP_SOURCES_FAN, OP_RESOLVE, OP_SUCC_FAN,
        OP_PRED_FAN, OP_SINK,
    };
    int kind;
    for (kind = 0; kind < K_UNKNOWN; kind++) {
        if (tag == tags[kind]) {
            return kind;
        }
    }
    return K_UNKNOWN;
}

static PyObject *
list_attribute(PyObject *object, PyObject *name)
{
    PyObject *value = PyObject_GetAttr(object, name);
    if (value != NULL && !PyList_Check(value)) {
        PyErr_Format(PyExc_TypeError, "%U must be a list, not %.200s", name,
                     Py_TYPE(value)->tp_name);
        Py_CLEAR(value);
    }
    return value;
}

/* A list attribute that may be None (NULL in *out). */
static int
optional_list_attribute(PyObject *object, PyObject *name, PyObject **out)
{
    PyObject *value = PyObject_GetAttr(object, name);
    if (value == NULL) {
        return -1;
    }
    if (value == Py_None) {
        Py_DECREF(value);
        *out = NULL;
        return 0;
    }
    Py_DECREF(value);
    *out = list_attribute(object, name);
    return *out == NULL ? -1 : 0;
}

static int
truth_attribute(PyObject *object, PyObject *name, int *out)
{
    PyObject *value = PyObject_GetAttr(object, name);
    if (value == NULL) {
        return -1;
    }
    *out = PyObject_IsTrue(value);
    Py_DECREF(value);
    return *out < 0 ? -1 : 0;
}

static int
size_attribute(PyObject *object, PyObject *name, Py_ssize_t *out)
{
    PyObject *value = PyObject_GetAttr(object, name);
    if (value == NULL) {
        return -1;
    }
    *out = PyNumber_AsSsize_t(value, PyExc_OverflowError);
    Py_DECREF(value);
    return *out == -1 && PyErr_Occurred() ? -1 : 0;
}

/* Bind the engine's and the graph's state, as run_kernel's locals. */
static int
kernel_load(Kernel *k, PyObject *engine)
{
    PyObject *graph = NULL, *mode = NULL;
    int rc = -1;
    k->engine = engine;
    if ((k->pending = PyObject_GetAttr(engine, S_pending)) == NULL
            || (k->popleft = PyObject_GetAttr(k->pending, S_popleft)) == NULL
            || (k->appendleft = PyObject_GetAttr(k->pending,
                                                 S_appendleft)) == NULL
            || (k->append = PyObject_GetAttr(k->pending, S_append)) == NULL
            || (k->pop = PyObject_GetAttr(k->pending, S_pop)) == NULL
            || (k->graph = graph = PyObject_GetAttr(engine, S_graph)) == NULL
            || (k->sink = PyObject_GetAttr(engine, S_sink)) == NULL
            || (k->stats = PyObject_GetAttr(engine, S_stats)) == NULL
            || (k->parent = list_attribute(graph, S_parent)) == NULL
            || (k->ranks = list_attribute(graph, S_ranks)) == NULL
            || (k->succ_vars = list_attribute(graph, S_succ_vars)) == NULL
            || (k->pred_vars = list_attribute(graph, S_pred_vars)) == NULL
            || (k->sources = list_attribute(graph, S_sources)) == NULL
            || (k->sinks = list_attribute(graph, S_sinks)) == NULL
            || optional_list_attribute(graph, S_journal, &k->journal) < 0
            || truth_attribute(graph, S_inductive, &k->inductive) < 0
            || truth_attribute(graph, S_online_cycles, &k->online) < 0
            || (k->emit = PyObject_GetAttr(graph, S_emit)) == NULL
            || (mode = PyObject_GetAttr(graph, S_search_mode)) == NULL
            || truth_attribute(engine, S_periodic, &k->periodic) < 0
            || size_attribute(engine, S_since_sweep, &k->since_sweep) < 0
            || size_attribute(engine, S_periodic_interval, &k->interval) < 0) {
        goto done;
    }
    if (k->sink == Py_None) {
        Py_CLEAR(k->sink);
    }
    k->sf_decreasing = mode == DECREASING;
    rc = 0;
done:
    Py_XDECREF(mode);
    return rc;
}

static void
kernel_release(Kernel *k)
{
    Py_XDECREF(k->pending);
    Py_XDECREF(k->popleft);
    Py_XDECREF(k->appendleft);
    Py_XDECREF(k->append);
    Py_XDECREF(k->pop);
    Py_XDECREF(k->sink);
    Py_XDECREF(k->stats);
    Py_XDECREF(k->graph);
    Py_XDECREF(k->emit);
    Py_XDECREF(k->parent);
    Py_XDECREF(k->ranks);
    Py_XDECREF(k->succ_vars);
    Py_XDECREF(k->pred_vars);
    Py_XDECREF(k->sources);
    Py_XDECREF(k->sinks);
    Py_XDECREF(k->journal);
    PyMem_Free(k->marks);
    PyMem_Free(k->came_from);
    PyMem_Free(k->stack);
    PyMem_Free(k->path);
}

/* Add the counters to engine.stats and the dead records to the
   graph's, and store the sweep countdown. */
static int
kernel_flush(Kernel *k)
{
    PyObject *since_sweep;
    int rc;
    if (add_count(k->stats, S_work, k->work) < 0
            || add_count(k->stats, S_redundant, k->redundant) < 0
            || add_count(k->stats, S_self_edges, k->self_edges) < 0
            || add_count(k->stats, S_resolutions, k->resolutions) < 0
            || (k->dead_records > 0
                && add_count(k->graph, S_dead_records,
                             k->dead_records) < 0)) {
        return -1;
    }
    since_sweep = PyLong_FromSsize_t(k->since_sweep);
    if (since_sweep == NULL) {
        return -1;
    }
    rc = PyObject_SetAttr(k->engine, S_since_sweep, since_sweep);
    Py_DECREF(since_sweep);
    return rc;
}

/* Split a fan-out at `room`: the members that fit stay in *members,
   the rest go back to the head of the worklist. */
static int
take_fan_out(Kernel *k, PyObject *tag, PyObject *first, PyObject **members,
             Py_ssize_t *room)
{
    Py_ssize_t count;
    PyObject *part;
    int rc;
    if (!PyTuple_CheckExact(*members)) {
        PyErr_Format(PyExc_TypeError,
                     "fan-out members must be a tuple, not %.200s",
                     Py_TYPE(*members)->tp_name);
        return -1;
    }
    count = PyTuple_GET_SIZE(*members);
    if (count > *room) {
        part = PyTuple_GetSlice(*members, *room, count);
        if (part == NULL) {
            return -1;
        }
        rc = emit(k->appendleft, tag, first, part);
        Py_DECREF(part);
        if (rc < 0) {
            return -1;
        }
        part = PyTuple_GetSlice(*members, 0, *room);
        if (part == NULL) {
            return -1;
        }
        Py_SETREF(*members, part);
        count = *room;
    }
    *room -= count;
    return 0;
}

/* Put back the members after `done` of an interrupted fan-out. */
static int
put_back(Kernel *k, PyObject *tag, PyObject *first, PyObject *members,
         Py_ssize_t done)
{
    Py_ssize_t count = PyTuple_GET_SIZE(members);
    PyObject *rest;
    int rc;
    if (done + 1 >= count) {
        return 0;
    }
    rest = PyTuple_GetSlice(members, done + 1, count);
    if (rest == NULL) {
        return -1;
    }
    rc = emit(k->appendleft, tag, first, rest);
    Py_DECREF(rest);
    return rc;
}

/* Unpack a worklist entry, a 3-tuple `(tag, first, second)`, into new
   references. */
static int
unpack(PyObject *entry, PyObject **tag, PyObject **first, PyObject **second)
{
    if (!PyTuple_CheckExact(entry) || PyTuple_GET_SIZE(entry) != 3) {
        PyErr_SetString(PyExc_TypeError,
                        "a worklist entry must be a (tag, first, second) "
                        "tuple");
        return -1;
    }
    *tag = Py_NewRef(PyTuple_GET_ITEM(entry, 0));
    *first = Py_NewRef(PyTuple_GET_ITEM(entry, 1));
    *second = Py_NewRef(PyTuple_GET_ITEM(entry, 2));
    return 0;
}

/* Entries between two checks for signals (a KeyboardInterrupt). */
#define SIGNAL_STRIDE 1024

PyDoc_STRVAR(run_kernel_doc,
"run_kernel(engine, limit)\n--\n\n"
"Execute up to ``limit`` atomic operations; return how many ran.\n\n"
"The native twin of :func:`repro.solver.kernel.run_kernel`, with the\n"
"same operations, order, counters, sink calls and exceptions.");

static PyObject *
run_kernel(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Kernel k;
    Py_ssize_t limit, room, pending, count;
    PyObject *entry = NULL, *tag = NULL, *first = NULL, *second = NULL;
    /* The fan-out being executed and its current member, so that an
       exception can put the members after it back. */
    PyObject *members = NULL;
    Py_ssize_t member = 0;
    unsigned int ticks = 0;
    int kind, failed = 0;
    SavedError saved;

    (void)module;
    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError,
                     "run_kernel expected 2 arguments, got %zd", nargs);
        return NULL;
    }
    if (python_kernel == NULL) {
        PyErr_SetString(PyExc_RuntimeError,
                        "the native kernel was not bound to the Python kernel");
        return NULL;
    }
    limit = PyNumber_AsSsize_t(args[1], PyExc_OverflowError);
    if (limit == -1 && PyErr_Occurred()) {
        return NULL;
    }
    memset(&k, 0, sizeof k);
    if (kernel_load(&k, args[0]) < 0) {
        kernel_release(&k);
        return NULL;
    }
    room = limit;
    while (room > 0) {
        if (++ticks % SIGNAL_STRIDE == 0 && PyErr_CheckSignals() < 0) {
            goto error;
        }
        pending = PyObject_Size(k.pending);
        if (pending < 0) {
            goto error;
        }
        if (pending == 0) {
            break;
        }
        Py_CLEAR(tag);
        Py_CLEAR(first);
        Py_CLEAR(second);
        entry = PyObject_CallNoArgs(k.popleft);
        if (entry == NULL || unpack(entry, &tag, &first, &second) < 0) {
            Py_XDECREF(entry);
            goto error;
        }
        Py_DECREF(entry);
        kind = tag_kind(tag);
        switch (kind) {
        case K_SOURCE_FAN:
        case K_SOURCES_FAN:
        case K_SUCC_FAN:
        case K_PRED_FAN:
            /* Sources `c(...) <= X` and var-var `X <= Y`. */
            if (take_fan_out(&k, tag, first, &second, &room) < 0) {
                goto error;
            }
            members = Py_NewRef(second);
            count = PyTuple_GET_SIZE(members);
            for (member = 0; member < count; member++) {
                PyObject *x = PyTuple_GET_ITEM(members, member);
                int rc;
                switch (kind) {
                case K_SOURCE_FAN:
                    rc = source_member(&k, first, x);
                    break;
                case K_SOURCES_FAN:
                    rc = source_member(&k, x, first);
                    break;
                case K_SUCC_FAN:
                    rc = var_var_member(&k, first, x);
                    break;
                default:
                    rc = var_var_member(&k, x, first);
                    break;
                }
                if (rc < 0) {
                    goto error;
                }
            }
            Py_CLEAR(members);
            break;
        case K_RESOLVE:
            /* The resolution rules R. */
            room--;
            if (resolve_entry(&k, first, second) < 0) {
                goto error;
            }
            break;
        case K_SINK:
            /* `X <= c(...)` */
            room--;
            if (sink_entry(&k, first, second) < 0) {
                goto error;
            }
            break;
        default:
            PyErr_Format(PyExc_KeyError, "unknown worklist operation %R",
                         tag);
            goto error;
        }
    }
    goto finally;

error:
    failed = 1;
    if (members != NULL) {
        /* The current member raised; the members after it have not
           started. */
        save_error(&saved);
        put_back(&k, tag, first, members, member);
        restore_error(&saved);
    }
finally:
    if (failed) {
        save_error(&saved);
        kernel_flush(&k);
        restore_error(&saved);
    }
    else if (kernel_flush(&k) < 0) {
        failed = 1;
    }
    Py_XDECREF(members);
    Py_XDECREF(tag);
    Py_XDECREF(first);
    Py_XDECREF(second);
    kernel_release(&k);
    return failed ? NULL : PyLong_FromSsize_t(limit - room);
}

/* ------------------------------------------------------------------ */
/* The solve envelope                                                   */
/* ------------------------------------------------------------------ */

/* What SolverEngine.run does around run_kernel: validation, the random
   order, the final edge counts and the least solution.  Each function
   produces exactly the state its Python reference produces.  validate
   hands a system it does not pass to ConstraintSystem.validate, which
   raises the structured InvalidSystemError for it; the other steps
   raise TypeError, IndexError or KeyError on a graph the engine does
   not build, where the reference would raise, loop or read it by
   Python's generic semantics. */

/* What validate_walk returns to hand the system to its reference. */
#define HAND_OVER 1

/* The offset of a __slots__ member of a class, or -1. */
static Py_ssize_t
slot_offset(PyObject *type, const char *name)
{
    PyMemberDef *member = ((PyTypeObject *)type)->tp_members;
    for (; member != NULL && member->name != NULL; member++) {
        if (strcmp(member->name, name) == 0
                && member->type == Py_T_OBJECT_EX
                && !(member->flags & Py_READONLY)) {
            return member->offset;
        }
    }
    return -1;
}

static PyObject *ConstructorType;
static Py_ssize_t var_index_offset, term_args_offset, term_ctor_offset;

/* The object in a __slots__ member (borrowed), or NULL when the member
   is unset or the offset unknown. */
static PyObject *
slot_value(PyObject *object, Py_ssize_t offset)
{
    return offset < 0 ? NULL : *(PyObject **)((char *)object + offset);
}

/* Constructors already checked by one validation, by address. */
#define CONSTRUCTOR_CACHE 64

typedef struct {
    PyObject *constructor;
    Py_ssize_t arity;
} CheckedConstructor;

/* Whether `ctor` is a plain Constructor whose name is unregistered or
   registered with an identical signature: 1 with its arity, 0 to hand
   over, -1 on error. */
static int
constructor_ok(PyObject *registered, PyObject *ctor, Py_ssize_t *arity)
{
    PyObject *name, *signature, *known, *known_signature = NULL;
    Py_ssize_t i;
    int ok = 0;
    if (Py_TYPE(ctor) != (PyTypeObject *)ConstructorType) {
        return 0;
    }
    name = PyObject_GetAttr(ctor, S_name);
    if (name == NULL) {
        return -1;
    }
    signature = PyObject_GetAttr(ctor, S_signature);
    if (signature == NULL) {
        Py_DECREF(name);
        return -1;
    }
    if (!PyUnicode_CheckExact(name) || !PyTuple_CheckExact(signature)) {
        goto done;
    }
    known = PyDict_GetItemWithError(registered, name);
    if (known == NULL) {
        if (PyErr_Occurred()) {
            ok = -1;
            goto done;
        }
    }
    else if (known != ctor) {
        /* `known.signature != ctor.signature` with only identical
           variances counting as equal; anything else is handed over. */
        known_signature = PyObject_GetAttr(known, S_signature);
        if (known_signature == NULL) {
            ok = -1;
            goto done;
        }
        if (!PyTuple_CheckExact(known_signature)
                || PyTuple_GET_SIZE(known_signature)
                   != PyTuple_GET_SIZE(signature)) {
            goto done;
        }
        for (i = 0; i < PyTuple_GET_SIZE(signature); i++) {
            if (PyTuple_GET_ITEM(signature, i)
                    != PyTuple_GET_ITEM(known_signature, i)) {
                goto done;
            }
        }
    }
    *arity = PyTuple_GET_SIZE(signature);
    ok = 1;
done:
    Py_DECREF(name);
    Py_DECREF(signature);
    Py_XDECREF(known_signature);
    return ok;
}

/* Room for `needed` entries on a stack of borrowed references. */
static int
grow_stack(PyObject ***stack, Py_ssize_t *capacity, Py_ssize_t needed)
{
    Py_ssize_t size = 2 * needed + 16;
    PyObject **grown = PyMem_Realloc(*stack, size * sizeof **stack);
    if (grown == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    *stack = grown;
    *capacity = size;
    return 0;
}

/* ConstraintSystem.validate's walk: 0 when every constraint is valid,
   HAND_OVER at the first node it does not pass, -1 on error.  Only
   plain Var and Term objects pass; the walk reads slots, tuples and a
   str-keyed dict, so no Python code runs and borrowed references stay
   valid throughout. */
static int
validate_walk(PyObject *system)
{
    PyObject *vars = NULL, *registered = NULL, *constraints = NULL;
    PyObject *pair, *node, *ctor, *args, *index_object;
    PyObject **stack = NULL;
    CheckedConstructor checked[CONSTRUCTOR_CACHE];
    Py_ssize_t depth = 0, capacity = 0, num_vars, position, index, arity, i;
    size_t slot;
    int rc = -1, ok;

    memset(checked, 0, sizeof checked);
    if ((vars = PyObject_GetAttr(system, S__vars)) == NULL
            || (registered = PyObject_GetAttr(system,
                                              S__constructors)) == NULL
            || (constraints = PyObject_GetAttr(system,
                                               S__constraints)) == NULL) {
        goto done;
    }
    rc = HAND_OVER;
    if (!PyList_CheckExact(vars) || !PyDict_CheckExact(registered)
            || !PyList_CheckExact(constraints)) {
        goto done;
    }
    num_vars = PyList_GET_SIZE(vars);
    for (position = 0; position < PyList_GET_SIZE(constraints); position++) {
        pair = PyList_GET_ITEM(constraints, position);
        if (!PyTuple_CheckExact(pair) || PyTuple_GET_SIZE(pair) != 2) {
            goto done;
        }
        if (capacity < 2 && grow_stack(&stack, &capacity, 2) < 0) {
            rc = -1;
            goto done;
        }
        stack[0] = PyTuple_GET_ITEM(pair, 0);
        stack[1] = PyTuple_GET_ITEM(pair, 1);
        depth = 2;
        while (depth > 0) {
            node = stack[--depth];
            if (Py_TYPE(node) == (PyTypeObject *)VarType) {
                index_object = slot_value(node, var_index_offset);
                if (index_object == NULL || !PyLong_CheckExact(index_object)) {
                    goto done;
                }
                index = PyLong_AsSsize_t(index_object);
                if (index == -1 && PyErr_Occurred()) {
                    PyErr_Clear();
                    goto done;
                }
                if (index < 0 || index >= num_vars) {
                    goto done;
                }
            }
            else if (Py_TYPE(node) == (PyTypeObject *)TermType) {
                ctor = slot_value(node, term_ctor_offset);
                args = slot_value(node, term_args_offset);
                if (ctor == NULL || args == NULL || !PyTuple_CheckExact(args)) {
                    goto done;
                }
                slot = ((size_t)ctor >> 4) % CONSTRUCTOR_CACHE;
                if (checked[slot].constructor == ctor) {
                    arity = checked[slot].arity;
                }
                else {
                    ok = constructor_ok(registered, ctor, &arity);
                    if (ok <= 0) {
                        rc = ok < 0 ? -1 : HAND_OVER;
                        goto done;
                    }
                    checked[slot].constructor = ctor;
                    checked[slot].arity = arity;
                }
                if (PyTuple_GET_SIZE(args) != arity) {
                    goto done;
                }
                if (depth + arity > capacity
                        && grow_stack(&stack, &capacity, depth + arity) < 0) {
                    rc = -1;
                    goto done;
                }
                for (i = 0; i < arity; i++) {
                    stack[depth++] = PyTuple_GET_ITEM(args, i);
                }
            }
            else {
                goto done;
            }
        }
    }
    rc = 0;
done:
    PyMem_Free(stack);
    Py_XDECREF(vars);
    Py_XDECREF(registered);
    Py_XDECREF(constraints);
    return rc;
}

PyDoc_STRVAR(validate_doc,
"validate(system)\n--\n\n"
"Check every constraint as :meth:`ConstraintSystem.validate` does;\n"
"when one fails, call that method, which raises the same\n"
":class:`InvalidSystemError` for it.");

static PyObject *
validate(PyObject *module, PyObject *system)
{
    int rc = validate_walk(system);
    (void)module;
    if (rc < 0) {
        return NULL;
    }
    if (rc == HAND_OVER) {
        return PyObject_CallMethodNoArgs(system, S_validate);
    }
    Py_RETURN_NONE;
}

/* Words of the Mersenne Twister, drawn in batches through
   getrandbits(32 * count): its little-endian 32-bit words are the
   generator's next `count` outputs, in order. */
typedef struct {
    PyObject *getrandbits;
    PyObject *bytes;
    Py_ssize_t next, count;
} Words;

static int
words_refill(Words *w, Py_ssize_t count)
{
    PyObject *bits, *value;
    Py_CLEAR(w->bytes);
    bits = PyLong_FromSsize_t(32 * count);
    if (bits == NULL) {
        return -1;
    }
    value = PyObject_CallOneArg(w->getrandbits, bits);
    Py_DECREF(bits);
    if (value == NULL) {
        return -1;
    }
    w->bytes = PyObject_CallMethod(value, "to_bytes", "ns", 4 * count,
                                   "little");
    Py_DECREF(value);
    if (w->bytes == NULL) {
        return -1;
    }
    if (!PyBytes_Check(w->bytes) || PyBytes_GET_SIZE(w->bytes) != 4 * count) {
        PyErr_SetString(PyExc_TypeError, "getrandbits gave no usable bits");
        return -1;
    }
    w->next = 0;
    w->count = count;
    return 0;
}

static int
words_next(Words *w, Py_ssize_t refill, uint32_t *out)
{
    const unsigned char *b;
    if (w->next == w->count && words_refill(w, refill) < 0) {
        return -1;
    }
    b = (const unsigned char *)PyBytes_AS_STRING(w->bytes) + 4 * w->next++;
    *out = (uint32_t)b[0] | (uint32_t)b[1] << 8 | (uint32_t)b[2] << 16
           | (uint32_t)b[3] << 24;
    return 0;
}

PyDoc_STRVAR(random_ranks_doc,
"random_ranks(getrandbits, num_vars)\n--\n\n"
"The ranks :func:`repro.graph.order.shuffled_ranks` computes, with\n"
"``getrandbits`` the method of the ``random.Random(seed)`` it\n"
"shuffles with: the same Fisher-Yates swaps, each index drawn as\n"
"``Random._randbelow`` draws it (the top ``k`` bits of a 32-bit word,\n"
"again while too large).  ``num_vars`` is at most ``2**31``.");

static PyObject *
random_ranks(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Words w = {NULL, NULL, 0, 0};
    Py_ssize_t n, i, m, rank, *positions = NULL, swap;
    PyObject *ranks = NULL, *value;
    uint32_t word;
    int k;

    (void)module;
    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError,
                     "random_ranks expected 2 arguments, got %zd", nargs);
        return NULL;
    }
    n = PyNumber_AsSsize_t(args[1], PyExc_OverflowError);
    if (n == -1 && PyErr_Occurred()) {
        return NULL;
    }
    if (n < 0) {
        n = 0; /* as list(range(n)) */
    }
    if ((uint64_t)n > ((uint64_t)1 << 31)) {
        PyErr_SetString(PyExc_ValueError,
                        "random_ranks needs num_vars <= 2**31");
        return NULL;
    }
    w.getrandbits = args[0];
    positions = PyMem_Malloc((n > 0 ? n : 1) * sizeof *positions);
    if (positions == NULL) {
        return PyErr_NoMemory();
    }
    for (i = 0; i < n; i++) {
        positions[i] = i;
    }
    /* for i in reversed(range(1, n)): j = randbelow(i + 1); swap */
    for (i = n - 1; i >= 1; i--) {
        m = i + 1;
        for (k = 0; ((uint64_t)m >> k) != 0; k++) {
        }
        do {
            /* A first batch covers the expected draws (under 2 per
               swap) most of the time; a refill covers the rest. */
            if (words_next(&w, w.bytes == NULL ? i + i / 2 + 16 : i / 2 + 16,
                           &word) < 0) {
                goto error;
            }
            rank = (Py_ssize_t)(word >> (32 - k));
        } while (rank >= m);
        swap = positions[i];
        positions[i] = positions[rank];
        positions[rank] = swap;
    }
    ranks = PyList_New(n);
    if (ranks == NULL) {
        goto error;
    }
    for (rank = 0; rank < n; rank++) {
        value = PyLong_FromSsize_t(rank);
        if (value == NULL) {
            goto error;
        }
        PyList_SET_ITEM(ranks, positions[rank], value);
    }
    Py_XDECREF(w.bytes);
    PyMem_Free(positions);
    return ranks;
error:
    Py_XDECREF(ranks);
    Py_XDECREF(w.bytes);
    PyMem_Free(positions);
    return NULL;
}

/* A graph's forwarding pointers, read into C: `up` holds the values of
   the `parent` list, which find updates alongside. */
typedef struct {
    PyObject *graph;
    PyObject *parent;
    Py_ssize_t size;     /* len(parent) */
    Py_ssize_t num_vars; /* graph.num_vars */
    Py_ssize_t *up;
} Forest;

/* Read `parent`, a list of indices into itself, and `num_vars`, an int
   within it: 0, or -1 with an exception. */
static int
forest_load(Forest *f, PyObject *graph)
{
    PyObject *num_vars;
    Py_ssize_t i;
    int rc;
    memset(f, 0, sizeof *f);
    f->graph = graph;
    if ((f->parent = PyObject_GetAttr(graph, S_parent)) == NULL
            || (num_vars = PyObject_GetAttr(graph, S_num_vars)) == NULL) {
        return -1;
    }
    if (!PyList_CheckExact(f->parent)) {
        Py_DECREF(num_vars);
        PyErr_Format(PyExc_TypeError, "parent must be a list, not %.200s",
                     Py_TYPE(f->parent)->tp_name);
        return -1;
    }
    f->size = PyList_GET_SIZE(f->parent);
    rc = as_index(num_vars, &f->num_vars);
    Py_DECREF(num_vars);
    if (rc < 0) {
        return -1;
    }
    if (f->num_vars < 0 || f->num_vars > f->size) {
        PyErr_SetString(PyExc_IndexError,
                        "num_vars is not within the parent list");
        return -1;
    }
    f->up = PyMem_Malloc((f->size > 0 ? f->size : 1) * sizeof *f->up);
    if (f->up == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (i = 0; i < f->size; i++) {
        if (index_within(PyList_GET_ITEM(f->parent, i), f->size,
                         &f->up[i]) < 0) {
            return -1;
        }
    }
    return 0;
}

static void
forest_release(Forest *f)
{
    Py_XDECREF(f->parent);
    PyMem_Free(f->up);
}

/* graph.find(v) for an index within parent, compressing the path as it
   does: the representative, or -1 with an IndexError when the pointers
   from v go round a cycle (on which the Python find never returns). */
static Py_ssize_t
forest_find(Forest *f, Py_ssize_t v)
{
    Py_ssize_t *up = f->up, root = up[v], next, steps = 0;
    PyObject *root_object;
    if (root == v) {
        return v;
    }
    while (up[root] != root) {
        root = up[root];
        if (++steps > f->size) {
            PyErr_Format(PyExc_IndexError,
                         "variable %zd reaches no representative", v);
            return -1;
        }
    }
    root_object = PyList_GET_ITEM(f->parent, root);
    while (up[v] != root) {
        next = up[v];
        up[v] = root;
        /* parent[v] = root; the old item is an int, whose release runs
           no code. */
        PyList_SetItem(f->parent, v, Py_NewRef(root_object));
        v = next;
    }
    return root;
}

/* `raw if parent[raw] == raw else find(raw)` for a bucket member: 0 with
   the index in *out, or -1. */
static int
forest_canonical(Forest *f, PyObject *raw, Py_ssize_t *out)
{
    Py_ssize_t v;
    if (index_within(raw, f->size, &v) < 0) {
        return -1;
    }
    *out = f->up[v] == v ? v : forest_find(f, v);
    return *out < 0 ? -1 : 0;
}

/* graph.<name>, a list with an item per variable: a new reference. */
static PyObject *
forest_list(Forest *f, PyObject *name)
{
    PyObject *items = PyObject_GetAttr(f->graph, name);
    if (items == NULL) {
        return NULL;
    }
    if (!PyList_CheckExact(items)) {
        PyErr_Format(PyExc_TypeError, "%U must be a list, not %.200s", name,
                     Py_TYPE(items)->tp_name);
        Py_DECREF(items);
        return NULL;
    }
    if (PyList_GET_SIZE(items) < f->num_vars) {
        PyErr_Format(PyExc_IndexError, "%U has fewer than num_vars items",
                     name);
        Py_DECREF(items);
        return NULL;
    }
    return items;
}

/* buckets[rep], a set or EMPTY_BUCKET (borrowed). */
static PyObject *
set_at(PyObject *buckets, Py_ssize_t rep)
{
    PyObject *bucket = PyList_GET_ITEM(buckets, rep);
    return check_bucket(bucket) < 0 ? NULL : bucket;
}

/* frozenset(bucket), which is the bucket itself when it is
   EMPTY_BUCKET (a frozenset); a new reference. */
static PyObject *
freeze(PyObject *bucket)
{
    return PyFrozenSet_CheckExact(bucket) ? Py_NewRef(bucket)
                                          : PyFrozenSet_New(bucket);
}

/* ConstraintGraphBase.finalize_statistics' counts: 0 or -1. */
static int
final_counts(Forest *f, Py_ssize_t *var_var, Py_ssize_t *source_edges,
             Py_ssize_t *sink_edges)
{
    PyObject *lists[4] = {NULL, NULL, NULL, NULL};
    PyObject *names[4] = {S_succ_vars, S_pred_vars, S_sources, S_sinks};
    PyObject *bucket, *raw;
    size_t *marks = NULL, stamp = 0;
    Py_ssize_t rep, canonical;
    SetIter it;
    int rc = -1, i, more;

    for (i = 0; i < 4; i++) {
        if ((lists[i] = forest_list(f, names[i])) == NULL) {
            goto done;
        }
    }
    marks = PyMem_Calloc(f->size > 0 ? f->size : 1, sizeof *marks);
    if (marks == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    *var_var = *source_edges = *sink_edges = 0;
    for (rep = 0; rep < f->num_vars; rep++) {
        if (f->up[rep] != rep) {
            continue;
        }
        for (i = 0; i < 4; i++) {
            if (set_at(lists[i], rep) == NULL) {
                goto done;
            }
        }
        /* len(canonical_bucket(rep, adjacency)) */
        for (i = 0; i < 2; i++) {
            bucket = PyList_GET_ITEM(lists[i], rep);
            if (PySet_GET_SIZE(bucket) == 0) {
                continue;
            }
            stamp++;
            if (set_iter_start(&it, bucket) < 0) {
                goto done;
            }
            while ((more = set_iter_next(&it, &raw)) > 0) {
                if (forest_canonical(f, raw, &canonical) < 0) {
                    more = -1;
                    break;
                }
                if (canonical != rep && marks[canonical] != stamp) {
                    marks[canonical] = stamp;
                    (*var_var)++;
                }
            }
            set_iter_stop(&it);
            if (more < 0) {
                goto done;
            }
        }
        *source_edges += PySet_GET_SIZE(PyList_GET_ITEM(lists[2], rep));
        *sink_edges += PySet_GET_SIZE(PyList_GET_ITEM(lists[3], rep));
    }
    rc = 0;
done:
    for (i = 0; i < 4; i++) {
        Py_XDECREF(lists[i]);
    }
    PyMem_Free(marks);
    return rc;
}

PyDoc_STRVAR(finalize_statistics_doc,
"finalize_statistics(graph)\n--\n\n"
":meth:`ConstraintGraphBase.finalize_statistics` for ``graph``: the\n"
"same final edge counts, and ``parent`` compressed as its ``find``\n"
"calls compress it.");

static PyObject *
finalize_statistics(PyObject *module, PyObject *graph)
{
    Forest f;
    Py_ssize_t var_var = 0, source_edges = 0, sink_edges = 0;
    PyObject *stats;
    int rc = forest_load(&f, graph);
    (void)module;
    if (rc == 0) {
        rc = final_counts(&f, &var_var, &source_edges, &sink_edges);
    }
    forest_release(&f);
    if (rc < 0 || (stats = PyObject_GetAttr(graph, S_stats)) == NULL) {
        return NULL;
    }
    Py_SETREF(stats, PyObject_CallMethod(stats, "finalize_edges", "nnn",
                                         var_var, source_edges, sink_edges));
    return stats;
}

/* StandardGraph.compute_least_solution: every representative's source
   bucket, frozen. */
static int
least_standard(Forest *f, PyObject *solution)
{
    PyObject *sources, *own, *value;
    Py_ssize_t rep;
    int rc = 0;
    if ((sources = forest_list(f, S_sources)) == NULL) {
        return -1;
    }
    for (rep = 0; rep < f->num_vars && rc == 0; rep++) {
        if (f->up[rep] != rep) {
            continue;
        }
        if ((own = set_at(sources, rep)) == NULL
                || (value = freeze(own)) == NULL) {
            rc = -1;
        }
        else {
            rc = PyDict_SetItem(solution, PyList_GET_ITEM(f->parent, rep),
                                value);
            Py_DECREF(value);
        }
    }
    Py_DECREF(sources);
    return rc;
}

typedef struct {
    Py_ssize_t rank, rep;
} Ranked;

/* reps.sort(key=ranks.__getitem__): reps start in increasing order and
   the sort is stable, so ties go by rep. */
static int
by_rank(const void *a, const void *b)
{
    const Ranked *x = a, *y = b;
    if (x->rank != y->rank) {
        return x->rank < y->rank ? -1 : 1;
    }
    return x->rep < y->rep ? -1 : x->rep > y->rep;
}

/* The representatives in increasing rank: a new array of *count, or
   NULL with an exception. */
static Ranked *
ranked_reps(Forest *f, Py_ssize_t *count)
{
    PyObject *ranks = forest_list(f, S_ranks);
    Ranked *reps = NULL;
    Py_ssize_t rep;
    if (ranks == NULL) {
        return NULL;
    }
    reps = PyMem_Malloc((f->num_vars > 0 ? f->num_vars : 1) * sizeof *reps);
    if (reps == NULL) {
        PyErr_NoMemory();
        goto fail;
    }
    *count = 0;
    for (rep = 0; rep < f->num_vars; rep++) {
        if (f->up[rep] != rep) {
            continue;
        }
        if (as_index(PyList_GET_ITEM(ranks, rep), &reps[*count].rank) < 0) {
            goto fail;
        }
        reps[*count].rep = rep;
        (*count)++;
    }
    Py_DECREF(ranks);
    qsort(reps, *count, sizeof *reps, by_rank);
    return reps;
fail:
    Py_DECREF(ranks);
    PyMem_Free(reps);
    return NULL;
}

/* canonical_bucket(rep, raw): a new set built as the Python set
   comprehension builds it, so that it iterates in the same order; NULL
   with an exception. */
static PyObject *
canonical_set(Forest *f, Py_ssize_t rep, PyObject *raw_bucket)
{
    PyObject *out = PySet_New(NULL), *raw;
    Py_ssize_t canonical;
    SetIter it;
    int more;
    if (out == NULL) {
        return NULL;
    }
    if (set_iter_start(&it, raw_bucket) < 0) {
        Py_DECREF(out);
        return NULL;
    }
    while ((more = set_iter_next(&it, &raw)) > 0) {
        if (forest_canonical(f, raw, &canonical) < 0
                || PySet_Add(out, PyList_GET_ITEM(f->parent,
                                                  canonical)) < 0) {
            more = -1;
            break;
        }
    }
    set_iter_stop(&it);
    if (more < 0
            || PySet_Discard(out, PyList_GET_ITEM(f->parent, rep)) < 0) {
        Py_CLEAR(out);
    }
    return out;
}

/* LS(rep) by equation (1), as InductiveGraph.compute_least_solution
   evaluates it: a new reference, or NULL with an exception. */
static PyObject *
least_of(Forest *f, Py_ssize_t rep, PyObject *raw_preds, PyObject *own,
         PyObject **solved)
{
    PyObject *preds = NULL, *merged = NULL, *value = NULL, *pred, *sum;
    Py_ssize_t index;
    SetIter it;
    int more = 0;
    if (PySet_GET_SIZE(raw_preds) > 0) {
        preds = canonical_set(f, rep, raw_preds);
        if (preds == NULL) {
            return NULL;
        }
    }
    if (preds == NULL || PySet_GET_SIZE(preds) == 0) {
        value = freeze(own);
        goto done;
    }
    if (PySet_GET_SIZE(own) > 0 || PySet_GET_SIZE(preds) > 1) {
        merged = PySet_New(own);
        if (merged == NULL) {
            goto done;
        }
    }
    if (set_iter_start(&it, preds) < 0) {
        goto done;
    }
    while ((more = set_iter_next(&it, &pred)) > 0) {
        /* preds holds representatives from parent, solved before rep
           unless the graph is not in inductive form: then the Python
           sweep's solution[pred] raises KeyError. */
        index = PyLong_AsSsize_t(pred);
        if (solved[index] == NULL) {
            PyErr_SetObject(PyExc_KeyError, pred);
            more = -1;
            break;
        }
        if (merged == NULL) {
            /* LS(rep) is its one predecessor's: share the frozenset. */
            value = Py_NewRef(solved[index]);
            break;
        }
        /* merged.update(solution[pred]) */
        sum = PyNumber_InPlaceOr(merged, solved[index]);
        if (sum == NULL) {
            more = -1;
            break;
        }
        Py_DECREF(sum);
    }
    set_iter_stop(&it);
    if (more >= 0 && value == NULL) {
        value = PyFrozenSet_New(merged);
    }
done:
    Py_XDECREF(preds);
    Py_XDECREF(merged);
    if (PyErr_Occurred()) {
        Py_CLEAR(value);
    }
    return value;
}

/* InductiveGraph.compute_least_solution: equation (1) in rank order. */
static int
least_inductive(Forest *f, PyObject *solution)
{
    PyObject *pred_vars = NULL, *sources = NULL, *raw_preds, *own, *value;
    PyObject **solved = NULL;
    Ranked *reps = NULL;
    Py_ssize_t count = 0, i, rep;
    int rc = -1;
    if ((pred_vars = forest_list(f, S_pred_vars)) == NULL
            || (sources = forest_list(f, S_sources)) == NULL
            || (reps = ranked_reps(f, &count)) == NULL) {
        goto done;
    }
    solved = PyMem_Calloc(f->size > 0 ? f->size : 1, sizeof *solved);
    if (solved == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (i = 0; i < count; i++) {
        rep = reps[i].rep;
        if ((raw_preds = set_at(pred_vars, rep)) == NULL
                || (own = set_at(sources, rep)) == NULL
                || (value = least_of(f, rep, raw_preds, own, solved)) == NULL) {
            goto done;
        }
        rc = PyDict_SetItem(solution, PyList_GET_ITEM(f->parent, rep), value);
        /* The dict keeps value alive. */
        solved[rep] = value;
        Py_DECREF(value);
        if (rc < 0) {
            goto done;
        }
    }
    rc = 0;
done:
    Py_XDECREF(pred_vars);
    Py_XDECREF(sources);
    PyMem_Free(reps);
    PyMem_Free(solved);
    return rc;
}

PyDoc_STRVAR(compute_least_solution_doc,
"compute_least_solution(graph)\n--\n\n"
"``graph.compute_least_solution()`` for either form: the same dict,\n"
"in the same order, of frozensets built, shared and iterating as the\n"
"Python sweep builds them.");

static PyObject *
compute_least_solution(PyObject *module, PyObject *graph)
{
    Forest f;
    PyObject *solution = NULL;
    int rc, inductive;
    (void)module;
    rc = forest_load(&f, graph);
    if (rc == 0) {
        rc = truth_attribute(graph, S_inductive, &inductive);
    }
    if (rc == 0) {
        solution = PyDict_New();
        if (solution == NULL) {
            rc = -1;
        }
        else {
            rc = inductive ? least_inductive(&f, solution)
                           : least_standard(&f, solution);
        }
    }
    forest_release(&f);
    if (rc < 0) {
        Py_CLEAR(solution);
    }
    return solution;
}

/* ------------------------------------------------------------------ */
/* Expression hashes                                                    */
/* ------------------------------------------------------------------ */

/* Term and Var cache their hash in a `_hash` slot, which their Python
   __hash__ returns.  These tp_hash functions read the slot instead;
   an instance whose slot is unset or not an int in hash range goes to
   the class's previous tp_hash, the one that calls __hash__.  Term also
   gets a C `==` for equal-hash terms, which sets compare when a
   structurally equal copy of a stored term arrives. */
static Py_ssize_t term_hash_offset = -1, var_hash_offset = -1;
static Py_ssize_t term_label_offset = -1;
static hashfunc term_python_hash, var_python_hash;
static richcmpfunc term_python_richcompare;

static Py_hash_t
cached_hash(PyObject *self, Py_ssize_t offset, hashfunc fallback)
{
    PyObject *value = slot_value(self, offset);
    Py_hash_t hash;
    if (value != NULL && PyLong_CheckExact(value)) {
        hash = PyLong_AsSsize_t(value);
        if (hash != -1) {
            return hash;
        }
        PyErr_Clear();
    }
    return fallback(self);
}

static Py_hash_t
term_hash(PyObject *self)
{
    return cached_hash(self, term_hash_offset, term_python_hash);
}

static Py_hash_t
var_hash(PyObject *self)
{
    return cached_hash(self, var_hash_offset, var_python_hash);
}

/* Term.__eq__, `other._hash == self._hash and other.constructor ==
   self.constructor and other.label == self.label and other.args ==
   self.args`, for two plain terms whose constructors are the same
   plain Constructor and whose labels are the same None, str or int
   (each equal to itself, as `==` finds without running code).  Any
   other comparison goes to the class's previous tp_richcompare, the
   one that calls __eq__. */
static PyObject *
term_richcompare(PyObject *self, PyObject *other, int op)
{
    Py_ssize_t offsets[4] = {term_hash_offset, term_ctor_offset,
                             term_label_offset, term_args_offset};
    PyObject *mine[4], *theirs[4], *label;
    int i, equal;
    if (op != Py_EQ || Py_TYPE(self) != (PyTypeObject *)TermType
            || Py_TYPE(other) != (PyTypeObject *)TermType) {
        return term_python_richcompare(self, other, op);
    }
    for (i = 0; i < 4; i++) {
        mine[i] = slot_value(self, offsets[i]);
        theirs[i] = slot_value(other, offsets[i]);
        if (mine[i] == NULL || theirs[i] == NULL) {
            return term_python_richcompare(self, other, op);
        }
    }
    if (!PyLong_CheckExact(mine[0]) || !PyLong_CheckExact(theirs[0])) {
        return term_python_richcompare(self, other, op);
    }
    equal = PyObject_RichCompareBool(theirs[0], mine[0], Py_EQ);
    if (equal <= 0) {
        return equal < 0 ? NULL : Py_NewRef(Py_False);
    }
    label = mine[2];
    if (theirs[1] != mine[1]
            || Py_TYPE(mine[1]) != (PyTypeObject *)ConstructorType
            || theirs[2] != label
            || !(label == Py_None || PyUnicode_CheckExact(label)
                 || PyLong_CheckExact(label))
            || !PyTuple_CheckExact(mine[3]) || !PyTuple_CheckExact(theirs[3])) {
        return term_python_richcompare(self, other, op);
    }
    equal = PyObject_RichCompareBool(theirs[3], mine[3], Py_EQ);
    return equal < 0 ? NULL : PyBool_FromLong(equal);
}

/* Give a class the tp_hash `native`, keeping its own as *fallback;
   nothing when the class has no `_hash` slot. */
static void
install_hash(PyObject *type, Py_ssize_t offset, hashfunc native,
             hashfunc *fallback)
{
    PyTypeObject *cls = (PyTypeObject *)type;
    if (offset < 0 || cls->tp_hash == native) {
        return;
    }
    *fallback = cls->tp_hash;
    cls->tp_hash = native;
}

PyDoc_STRVAR(has_native_hash_doc,
"has_native_hash(cls)\n--\n\n"
"Whether ``cls`` hashes through the kernel's C ``tp_hash``, which\n"
"reads the ``_hash`` slot (``bind`` gives it to ``Term`` and ``Var``).");

static PyObject *
has_native_hash(PyObject *module, PyObject *cls)
{
    hashfunc hash;
    (void)module;
    if (!PyType_Check(cls)) {
        PyErr_Format(PyExc_TypeError, "expected a class, not %.200s",
                     Py_TYPE(cls)->tp_name);
        return NULL;
    }
    hash = ((PyTypeObject *)cls)->tp_hash;
    return PyBool_FromLong(hash == term_hash || hash == var_hash);
}

/* ------------------------------------------------------------------ */
/* Module                                                               */
/* ------------------------------------------------------------------ */

PyDoc_STRVAR(bind_doc,
"bind(kernel)\n--\n\n"
"Take the worklist tags, the empty bucket, ``Term``, ``Var``, the\n"
"constructors 0 and 1 and the decreasing search mode from the Python\n"
"kernel module, which also serves ``flat_plan`` and\n"
"``_resolve_generic`` at each call.  Give ``Term`` and ``Var`` the C\n"
"hash.");

static PyObject *
bind(PyObject *module, PyObject *kernel)
{
    PyObject *value;
    int i;
    (void)module;
    for (i = 0; bound_names[i].slot != NULL; i++) {
        value = PyObject_GetAttrString(kernel, bound_names[i].name);
        if (value == NULL) {
            return NULL;
        }
        Py_XSETREF(*bound_names[i].slot, value);
    }
    if (!PyType_Check(TermType) || !PyType_Check(VarType)) {
        PyErr_SetString(PyExc_TypeError, "Term and Var must be classes");
        return NULL;
    }
    Py_XSETREF(ConstructorType, Py_NewRef((PyObject *)Py_TYPE(ONE_CONSTRUCTOR)));
    var_index_offset = slot_offset(VarType, "index");
    term_args_offset = slot_offset(TermType, "args");
    term_ctor_offset = slot_offset(TermType, "constructor");
    term_hash_offset = slot_offset(TermType, "_hash");
    var_hash_offset = slot_offset(VarType, "_hash");
    install_hash(TermType, term_hash_offset, term_hash, &term_python_hash);
    install_hash(VarType, var_hash_offset, var_hash, &var_python_hash);
    term_label_offset = slot_offset(TermType, "label");
    if (term_hash_offset >= 0 && term_ctor_offset >= 0
            && term_label_offset >= 0 && term_args_offset >= 0
            && ((PyTypeObject *)TermType)->tp_richcompare != term_richcompare) {
        term_python_richcompare = ((PyTypeObject *)TermType)->tp_richcompare;
        ((PyTypeObject *)TermType)->tp_richcompare = term_richcompare;
    }
    Py_XSETREF(python_kernel, Py_NewRef(kernel));
    Py_RETURN_NONE;
}

static PyMethodDef kernel_methods[] = {
    {"run_kernel", (PyCFunction)(void (*)(void))run_kernel, METH_FASTCALL,
     run_kernel_doc},
    {"bind", bind, METH_O, bind_doc},
    {"has_native_hash", has_native_hash, METH_O, has_native_hash_doc},
    {"validate", validate, METH_O, validate_doc},
    {"random_ranks", (PyCFunction)(void (*)(void))random_ranks,
     METH_FASTCALL, random_ranks_doc},
    {"finalize_statistics", finalize_statistics, METH_O,
     finalize_statistics_doc},
    {"compute_least_solution", compute_least_solution, METH_O,
     compute_least_solution_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    "_kernel",
    "The native closure kernel (see repro.solver.native).",
    -1,
    kernel_methods,
    NULL,
    NULL,
    NULL,
    NULL,
};

PyMODINIT_FUNC
PyInit__kernel(void)
{
    int i;
    for (i = 0; interned[i].slot != NULL; i++) {
        if (*interned[i].slot == NULL) {
            *interned[i].slot = PyUnicode_InternFromString(interned[i].text);
            if (*interned[i].slot == NULL) {
                return NULL;
            }
        }
    }
    return PyModule_Create(&kernel_module);
}
