/* The snapshot codec of graph.read_snapshot and graph.write_snapshot, the
 * row installer of graph.HeteroGraph._add_rows, the query loops of
 * kernels.propagate_step and ranker.to_ranked_list, and the community move
 * pass of kernels.local_move_pass, compiled as a CPython extension;
 * kernels.snapshot_codec builds and loads it.
 *
 * scan(path, kind_by_value, relation_by_value) reads a snapshot a line at a
 * time and returns (node ids, node kinds, sources, relations, rows): the node
 * lines' ids and kinds in line order, then what graph._read_rows gathers, by
 * the same rule for where a run of edge lines ends. write(path, kind, out,
 * value) writes the bytes graph._snapshot_text gives for the graph whose node
 * kinds are ``kind`` and rows ``out``, ``value`` naming each kind and relation.
 *
 * Each takes only input that it handles as the Python codec does, bit for
 * bit: every line a well-formed E or N line of printable ASCII ending in \n,
 * with no % that the encoder did not write and every weight a finite float;
 * every id printable ASCII and every weight a positive finite float. On
 * anything else scan returns None and write False, having written nothing,
 * so that the Python codec runs and raises its own messages. Weights are
 * parsed and formatted by the functions float() and format(w, ".17g") call.
 * Neither holds a whole file or text: scan reads a line at a time and write
 * writes a row at a time.
 *
 * add_rows(kind, out, rows, signature) pulls (source, relation, row) items
 * from the iterator rows and installs each into out[relation], as the row of
 * source or added to it, while it takes them: an exact 3-tuple whose row is
 * an exact dict, empty (it adds nothing) or with every weight a float w with
 * 0 < w < inf, whose source is a str node of the relation's source kind in
 * signature and every target a str node of its target kind, and no target
 * already in source's row. It returns (rows installed, (the first item it
 * does not take,)), which graph._add_rows_python then adds or raises on
 * before add_rows goes on with the same iterator, or (rows installed, None)
 * at the end. An error that the iterator raises comes back in place of the
 * 1-tuple, so that the rows installed before it are counted. It writes
 * nothing but the rows it installs.
 *
 * scatter and top are the two array loops of a ranker query.
 * scatter(scores, src, dst, wgt, n) is kernels.propagate_step's scatter: it
 * makes a vector of n zeros with numpy.zeros, adds wgt[e] * scores[src[e]]
 * into slot dst[e] for each edge e in edge order, the sums np.bincount(dst,
 * weights=wgt * scores[src], minlength=n) gives, and returns that vector,
 * which no one else holds. top(scores, cutoff, nodes) is
 * ranker.to_ranked_list's cut: the positions of the cutoff highest positive
 * scores (all of them for None), highest first and equal scores by position,
 * mapped through nodes unless it is None, and their scores, as two lists.
 * Each takes, by the same rule as the codec, only input that it handles as
 * the NumPy lines do, bit for bit: exact numpy.ndarray vectors, 1-d and
 * C-contiguous, of native float64 (scores, wgt) and int64 (src, dst, nodes);
 * src, dst and wgt of one length, and nodes of scores'; every src below
 * len(scores) and every dst below n, none negative; n an exact int of at
 * least 0; products and sums that raise no floating-point flag (NumPy's
 * multiply warns or raises on one, as its error state says) and leave no NaN
 * (its payload is the hardware's choice); a cutoff that is None or an index
 * of at least 0. On anything else each returns None, so that the NumPy line
 * runs and gives its own result or error; neither writes its input. The
 * multiply-add is two binary64 roundings, as NumPy's multiply and then
 * bincount's add: this file is built with -ffp-contract=off, so no fused
 * multiply-add is formed, and a platform that evaluates doubles in wider
 * registers fails the check below, and so runs every caller's Python line.
 *
 * move_pass(order, labels, ..., eps) is kernels.local_move_pass's pass: it
 * writes the final labels into labels, leaves the module arrays as the moves
 * leave them and returns (moves, summed cost change), each bit equal to
 * kernels._python_move_pass's, which is written apart so that each checks
 * the other; log2 is libm's, as CPython's math.log2. It takes, by scatter's
 * rule, exact int64 (order, labels, nbr_ptr, nbr_idx) and float64 vectors,
 * labels and the module arrays writable, and three floats; on anything else
 * (another dtype, a strided view, read-only labels) it returns None, having
 * written nothing, and the Python pass runs. It writes only labels and the
 * module arrays. The caller checks every length and index first, as
 * kernels._check_move_input does; the pass runs without the GIL. */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <fenv.h>
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>

#if FLT_EVAL_METHOD != 0
#error "doubles must be evaluated as binary64 for results equal to NumPy's and Python's"
#endif

/* --- work arrays ---------------------------------------------------------- */

/* A zeroed work array of size bytes, mapped from the system and given back
 * by unmap; NULL with an error set when there is no memory. The writer takes
 * its work arrays so, one phase at a time, rather than from the C allocator,
 * whose heap kept them resident once freed: with them taken from it, a
 * `build` of a 20000-job corpus peaked 2.7 MB above the Python writer's
 * (glibc 2.36, 2-vCPU VM), and mapped, 0.1 MB. */
static void *map(size_t size)
{
    void *p = mmap(NULL, size ? size : 1, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                   -1, 0);
    if (p == MAP_FAILED) {
        PyErr_NoMemory();
        return NULL;
    }
    return p;
}

static void unmap(void *p, size_t size)
{
    if (p != NULL)
        munmap(p, size ? size : 1);
}

/* --- a table from byte strings to objects, for ids and weight texts ------- */

/* A slot of a table: value, and the bytes it is found by, which are key (a
 * bytes object) or, where key is NULL, the snapshot token of value, an id. */
typedef struct {
    uint64_t hash;
    PyObject *key;    /* an owned reference, or NULL */
    PyObject *value;  /* an owned reference; NULL in an empty slot */
} Slot;

typedef struct {
    Slot *slots;
    size_t mask;      /* the slot count less one; the count is a power of two */
    size_t used;
} Table;

static uint64_t hash_bytes(const char *s, Py_ssize_t len)
{
    uint64_t h = 14695981039346656037ULL;  /* FNV-1a */
    for (Py_ssize_t i = 0; i < len; i++) {
        h ^= (unsigned char)s[i];
        h *= 1099511628211ULL;
    }
    return h;
}

static int table_init(Table *t)
{
    t->mask = 255;
    t->used = 0;
    t->slots = PyMem_Calloc(t->mask + 1, sizeof(Slot));
    if (t->slots == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    return 0;
}

static void table_free(Table *t)
{
    if (t->slots == NULL)
        return;
    for (size_t i = 0; i <= t->mask; i++)
        if (t->slots[i].value != NULL) {
            Py_XDECREF(t->slots[i].key);
            Py_DECREF(t->slots[i].value);
        }
    PyMem_Free(t->slots);
    t->slots = NULL;
}

/* Whether token is the snapshot token of id, an ASCII string: each space
 * written '%20' and each '%' written '%25'. */
static int encodes(PyObject *id, const char *token, Py_ssize_t len)
{
    const Py_UCS1 *c = PyUnicode_1BYTE_DATA(id);
    Py_ssize_t n = PyUnicode_GET_LENGTH(id), j = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        if (c[i] == ' ' || c[i] == '%') {
            if (len - j < 3 || token[j] != '%' || token[j + 1] != '2'
                    || token[j + 2] != (c[i] == ' ' ? '0' : '5'))
                return 0;
            j += 3;
        } else if (j == len || token[j++] != (char)c[i]) {
            return 0;
        }
    }
    return j == len;
}

/* The slot holding the bytes text, or the empty slot where they go. */
static Slot *table_find(Table *t, const char *text, Py_ssize_t len, uint64_t hash)
{
    for (size_t i = (size_t)hash & t->mask;; i = (i + 1) & t->mask) {
        Slot *s = &t->slots[i];
        if (s->value == NULL)
            return s;
        if (s->hash != hash)
            continue;
        if (s->key == NULL ? encodes(s->value, text, len)
                : PyBytes_GET_SIZE(s->key) == len
                  && memcmp(PyBytes_AS_STRING(s->key), text, len) == 0)
            return s;
    }
}

/* Fills the empty slot s with key (NULL for an id) and value, references the
 * table takes over; -1 with an error set when there is no memory. The table
 * stays at most two thirds full, as a dict does. */
static int table_put(Table *t, Slot *s, uint64_t hash, PyObject *key, PyObject *value)
{
    s->hash = hash;
    s->key = key;
    s->value = value;
    if (3 * ++t->used <= 2 * t->mask)
        return 0;
    size_t mask = 2 * t->mask + 1;
    Slot *grown = PyMem_Calloc(mask + 1, sizeof(Slot));
    if (grown == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (size_t i = 0; i <= t->mask; i++)
        if (t->slots[i].value != NULL) {
            size_t j = (size_t)t->slots[i].hash & mask;
            while (grown[j].value != NULL)
                j = (j + 1) & mask;
            grown[j] = t->slots[i];
        }
    PyMem_Free(t->slots);
    t->slots = grown;
    t->mask = mask;
    return 0;
}

/* --- kinds and relations by their values ---------------------------------- */

typedef struct {
    const char *text;
    Py_ssize_t len;
} Text;

typedef struct {
    PyObject *member;
    Text value;
} Named;

#define MAX_NAMED 16

/* The entries of a dict from value texts to members (by_value) or from
 * members to value texts; -1 with an error set when one is not such. */
static int read_named(PyObject *dict, int by_value, Named *named, int *count)
{
    PyObject *key, *item;
    Py_ssize_t pos = 0;
    *count = 0;
    while (PyDict_Next(dict, &pos, &key, &item)) {
        PyObject *text = by_value ? key : item;
        if (*count == MAX_NAMED || !PyUnicode_Check(text)) {
            PyErr_SetString(PyExc_TypeError, "snapshot codec: bad kind or relation values");
            return -1;
        }
        named[*count].member = by_value ? item : key;
        named[*count].value.text = PyUnicode_AsUTF8AndSize(text, &named[*count].value.len);
        if (named[*count].value.text == NULL)
            return -1;
        ++*count;
    }
    return 0;
}

static PyObject *member_of(const Named *named, int count, const char *text, Py_ssize_t len)
{
    for (int i = 0; i < count; i++)
        if (named[i].value.len == len && memcmp(named[i].value.text, text, len) == 0)
            return named[i].member;
    return NULL;
}

static const Text *value_of(const Named *named, int count, PyObject *member)
{
    for (int i = 0; i < count; i++)
        if (named[i].member == member)
            return &named[i].value;
    return NULL;
}

/* --- scan ----------------------------------------------------------------- */

/* The id that a token encodes, '%20' a space and '%25' a '%'; NULL with no
 * error set when a '%' starts neither. */
static PyObject *decode_id(const char *token, Py_ssize_t len)
{
    Py_ssize_t escapes = 0;
    for (Py_ssize_t i = 0; i < len; i++)
        if (token[i] == '%') {
            if (len - i < 3 || token[i + 1] != '2' || (token[i + 2] != '0' && token[i + 2] != '5'))
                return NULL;
            escapes++;
            i += 2;
        }
    PyObject *id = PyUnicode_New(len - 2 * escapes, 127);
    if (id == NULL)
        return NULL;
    Py_UCS1 *out = PyUnicode_1BYTE_DATA(id);
    for (Py_ssize_t i = 0; i < len; i++) {
        if (token[i] == '%') {
            *out++ = token[i + 2] == '0' ? ' ' : '%';
            i += 2;
        } else {
            *out++ = (Py_UCS1)token[i];
        }
    }
    return id;
}

/* The id of a token, decoded once per distinct token (a borrowed reference);
 * NULL, with no error set when the token is not one the encoder writes. */
static PyObject *read_id(Table *ids, const char *token, Py_ssize_t len)
{
    uint64_t hash = hash_bytes(token, len);
    Slot *s = table_find(ids, token, len, hash);
    if (s->value != NULL)
        return s->value;
    PyObject *id = decode_id(token, len);
    if (id == NULL || table_put(ids, s, hash, NULL, id) < 0)
        return NULL;
    return id;
}

/* The weight a NUL-terminated text holds, parsed once per distinct text (a
 * borrowed reference); NULL, with no error set, unless it is a finite float
 * as float() reads one without '_'. */
static PyObject *read_weight(Table *weights, const char *text, Py_ssize_t len)
{
    uint64_t hash = hash_bytes(text, len);
    Slot *s = table_find(weights, text, len, hash);
    if (s->value != NULL)
        return s->value;
    if (memchr(text, '_', len) != NULL)
        return NULL;
    double w = PyOS_string_to_double(text, NULL, NULL);
    if (w == -1.0 && PyErr_Occurred()) {
        if (PyErr_ExceptionMatches(PyExc_ValueError))
            PyErr_Clear();
        return NULL;
    }
    if (!Py_IS_FINITE(w))
        return NULL;
    PyObject *key = PyBytes_FromStringAndSize(text, len);
    PyObject *weight = key ? PyFloat_FromDouble(w) : NULL;
    if (weight == NULL) {
        Py_XDECREF(key);
        return NULL;
    }
    if (table_put(weights, s, hash, key, weight) < 0)
        return NULL;
    return weight;
}

static PyObject *codec_scan(PyObject *self, PyObject *args)
{
    PyObject *path, *kind_by_value, *rel_by_value, *fspath;
    Named kinds[MAX_NAMED], rels[MAX_NAMED];
    int n_kinds, n_rels;
    if (!PyArg_ParseTuple(args, "OO!O!:scan", &path, &PyDict_Type, &kind_by_value,
                          &PyDict_Type, &rel_by_value)
            || read_named(kind_by_value, 1, kinds, &n_kinds) < 0
            || read_named(rel_by_value, 1, rels, &n_rels) < 0)
        return NULL;
    if (!PyUnicode_FSConverter(path, &fspath)) {
        PyErr_Clear();
        Py_RETURN_NONE;
    }
    FILE *f = fopen(PyBytes_AS_STRING(fspath), "rb");
    Py_DECREF(fspath);
    if (f == NULL)
        Py_RETURN_NONE;

    PyObject *lists[5] = {PyList_New(0), PyList_New(0), PyList_New(0), PyList_New(0),
                          PyList_New(0)};
    PyObject *node_ids = lists[0], *node_kinds = lists[1], *sources = lists[2],
             *relations = lists[3], *rows = lists[4];
    PyObject *result = NULL;
    Table ids = {NULL, 0, 0}, weights = {NULL, 0, 0};
    char *line = NULL;
    size_t cap = 0;
    ssize_t n;
    /* the run at hand, borrowed; a node line ends it */
    PyObject *source = NULL, *relation = NULL, *row = NULL;
    for (int i = 0; i < 5; i++)
        if (lists[i] == NULL)
            goto done;
    if (table_init(&ids) < 0 || table_init(&weights) < 0)
        goto done;
    while ((n = getline(&line, &cap, f)) > 0) {
        const char *field[5];
        Py_ssize_t len[5];
        int fields = 0;
        if (n == 1 || line[n - 1] != '\n')
            goto bail;
        line[--n] = '\0';
        const char *start = line;
        for (ssize_t i = 0; i <= n; i++) {
            if (i == n || line[i] == ' ') {
                if (fields == 5 || line + i == start)
                    goto bail;
                field[fields] = start;
                len[fields++] = line + i - start;
                start = line + i + 1;
            } else if ((unsigned char)line[i] < 0x21 || (unsigned char)line[i] > 0x7e) {
                goto bail;
            }
        }
        if (fields == 5 && len[0] == 1 && field[0][0] == 'E') {
            PyObject *rel = member_of(rels, n_rels, field[2], len[2]);
            if (rel == NULL)
                goto bail;
            PyObject *src = read_id(&ids, field[1], len[1]);
            PyObject *dst = src ? read_id(&ids, field[3], len[3]) : NULL;
            /* the weight is the last field, so it ends where the line did */
            PyObject *weight = dst ? read_weight(&weights, field[4], len[4]) : NULL;
            if (weight == NULL)
                goto bail;
            if (row != NULL && src == source && rel == relation) {
                Py_ssize_t size = PyDict_GET_SIZE(row);
                if (PyDict_SetDefault(row, dst, weight) == NULL)
                    goto done;
                if (PyDict_GET_SIZE(row) > size)
                    continue;
                /* a target the run already holds starts a new run */
            }
            row = PyDict_New();
            if (row == NULL)
                goto done;
            int failed = PyList_Append(rows, row);
            Py_DECREF(row);  /* rows keeps it */
            if (failed || PyList_Append(sources, src) < 0 || PyList_Append(relations, rel) < 0
                    || PyDict_SetItem(row, dst, weight) < 0)
                goto done;
            source = src;
            relation = rel;
        } else if (fields == 3 && len[0] == 1 && field[0][0] == 'N') {
            PyObject *kind = member_of(kinds, n_kinds, field[2], len[2]);
            PyObject *id = kind ? read_id(&ids, field[1], len[1]) : NULL;
            if (id == NULL)
                goto bail;
            if (PyList_Append(node_ids, id) < 0 || PyList_Append(node_kinds, kind) < 0)
                goto done;
            row = NULL;
        } else {
            goto bail;
        }
    }
    if (ferror(f) || !feof(f))  /* a read error, or no memory for a line */
        goto bail;
    result = PyTuple_Pack(5, node_ids, node_kinds, sources, relations, rows);
    goto done;
bail:
    if (!PyErr_Occurred())
        result = Py_NewRef(Py_None);
done:
    free(line);
    fclose(f);
    table_free(&ids);
    table_free(&weights);
    for (int i = 0; i < 5; i++)
        Py_XDECREF(lists[i]);
    return result;
}

/* --- write ---------------------------------------------------------------- */

/* A node's line, tagged with its kind, or the head of a row's lines, tagged
 * with its relation; code is the id's token and obj the id or the row. */
typedef struct {
    Text code;
    const Text *tag;
    PyObject *obj;
} Line;

/* Text order, as Python compares ASCII strings. */
static int compare_text(const Text *a, const Text *b)
{
    int c = memcmp(a->text, b->text, a->len < b->len ? a->len : b->len);
    return c ? c : (a->len > b->len) - (a->len < b->len);
}

/* The order of "{code} {tag} " texts. A code holds no byte below '!', so a
 * code that is a prefix of another sorts first there, as it does here. */
static int compare_lines(const void *x, const void *y)
{
    const Line *a = x, *b = y;
    int c = compare_text(&a->code, &b->code);
    return c ? c : compare_text(a->tag, b->tag);
}

typedef struct {
    Text code;
    Text weight;
} Entry;

static int compare_entries(const void *x, const void *y)
{
    return compare_text(&((const Entry *)x)->code, &((const Entry *)y)->code);
}

typedef struct {
    FILE *f;
    char *buf;
    size_t used, cap;
} Out;

static void emit(Out *out, const char *text, size_t len)
{
    if (out->used + len > out->cap) {
        fwrite(out->buf, 1, out->used, out->f);
        out->used = 0;
        if (len > out->cap) {
            fwrite(text, 1, len, out->f);
            return;
        }
    }
    memcpy(out->buf + out->used, text, len);
    out->used += len;
}

static void emit_line(Out *out, char lead, const Text *code, const Text *tag, const Entry *entry)
{
    char head[2] = {lead, ' '};
    emit(out, head, 2);
    emit(out, code->text, code->len);
    emit(out, " ", 1);
    emit(out, tag->text, tag->len);
    if (entry != NULL) {
        emit(out, " ", 1);
        emit(out, entry->code.text, entry->code.len);
        emit(out, " ", 1);
        emit(out, entry->weight.text, entry->weight.len);
    }
    emit(out, "\n", 1);
}

/* The formatted text of a weight, a positive finite float, formatted once per
 * distinct value; NULL, with no error set, when the weight is not such. */
static PyObject *weight_text(Table *texts, PyObject *weight)
{
    if (!PyFloat_CheckExact(weight))
        return NULL;
    double w = PyFloat_AS_DOUBLE(weight);
    if (!(w > 0.0 && Py_IS_FINITE(w)))
        return NULL;
    uint64_t hash = hash_bytes((const char *)&w, sizeof w);
    Slot *s = table_find(texts, (const char *)&w, sizeof w, hash);
    if (s->value != NULL)
        return s->value;
    char *formatted = PyOS_double_to_string(w, 'g', 17, 0, NULL);
    if (formatted == NULL)
        return NULL;
    PyObject *text = PyBytes_FromString(formatted);
    PyMem_Free(formatted);
    PyObject *key = text ? PyBytes_FromStringAndSize((const char *)&w, sizeof w) : NULL;
    if (key == NULL) {
        Py_XDECREF(text);
        return NULL;
    }
    if (table_put(texts, s, hash, key, text) < 0)
        return NULL;
    return text;
}

/* The length of the snapshot token of id, a printable ASCII string. */
static Py_ssize_t token_len(PyObject *id)
{
    const Py_UCS1 *c = PyUnicode_1BYTE_DATA(id);
    Py_ssize_t len = PyUnicode_GET_LENGTH(id), n = len;
    for (Py_ssize_t i = 0; i < len; i++)
        n += 2 * (c[i] == ' ' || c[i] == '%');
    return n;
}

/* Writes the snapshot token of id, a printable ASCII string, at *at, which
 * it moves past the token, and returns the token. */
static Text encode_id(PyObject *id, char **at)
{
    const Py_UCS1 *c = PyUnicode_1BYTE_DATA(id);
    char *start = *at, *out = *at;
    for (Py_ssize_t i = 0; i < PyUnicode_GET_LENGTH(id); i++) {
        if (c[i] == ' ' || c[i] == '%') {
            memcpy(out, c[i] == ' ' ? "%20" : "%25", 3);
            out += 3;
        } else {
            *out++ = (char)c[i];
        }
    }
    *at = out;
    return (Text){start, out - start};
}

/* Whether obj is a node of the graph whose node kinds are kind; -1 with an
 * error set when the lookup fails. */
static int is_node(PyObject *kind, PyObject *obj)
{
    return PyUnicode_CheckExact(obj) ? PyDict_Contains(kind, obj) : 0;
}

static PyObject *codec_write(PyObject *self, PyObject *args)
{
    PyObject *path, *kind, *out, *value, *fspath = NULL, *id, *item, *rel, *rel_rows, *source,
             *row;
    Named values[MAX_NAMED];
    int n_values;
    if (!PyArg_ParseTuple(args, "OO!O!O!:write", &path, &PyDict_Type, &kind, &PyDict_Type, &out,
                          &PyDict_Type, &value)
            || read_named(value, 0, values, &n_values) < 0)
        return NULL;
    Py_ssize_t n_nodes = PyDict_GET_SIZE(kind), n_heads = 0, max_row = 0, node_chars = 0,
               head_chars = 0, max_row_chars = 0, pos, h, i;
    /* the work arrays, each mapped only while its lines are written */
    Line *lines = NULL;
    Entry *entries = NULL;
    char *chars = NULL, *row_chars = NULL;
    size_t lines_size = 0, chars_size = 0;
    Table texts = {NULL, 0, 0};
    Out dest = {NULL, NULL, 0, 1 << 16};
    PyObject *result = NULL;
    if (table_init(&texts) < 0)
        goto done;

    /* every id printable ASCII with a kind, every row's source and targets
     * nodes, every weight formatted, before the file is opened */
    for (pos = 0; PyDict_Next(kind, &pos, &id, &item);) {
        if (!PyUnicode_CheckExact(id) || !PyUnicode_IS_ASCII(id) || PyUnicode_GET_LENGTH(id) == 0
                || value_of(values, n_values, item) == NULL)
            goto bail;
        const Py_UCS1 *c = PyUnicode_1BYTE_DATA(id);
        for (i = 0; i < PyUnicode_GET_LENGTH(id); i++)
            if (c[i] < 0x20 || c[i] > 0x7e)
                goto bail;
        node_chars += token_len(id);
    }
    for (pos = 0; PyDict_Next(out, &pos, &rel, &rel_rows);) {
        if (!PyDict_CheckExact(rel_rows) || value_of(values, n_values, rel) == NULL)
            goto bail;
        for (Py_ssize_t rpos = 0; PyDict_Next(rel_rows, &rpos, &source, &row);) {
            if (is_node(kind, source) != 1 || !PyDict_CheckExact(row))
                goto bail;
            n_heads++;
            head_chars += token_len(source);
            Py_ssize_t row_chars_len = 0;
            for (Py_ssize_t epos = 0; PyDict_Next(row, &epos, &id, &item);) {
                if (is_node(kind, id) != 1 || weight_text(&texts, item) == NULL)
                    goto bail;
                row_chars_len += token_len(id);
            }
            if (PyDict_GET_SIZE(row) > max_row)
                max_row = PyDict_GET_SIZE(row);
            if (row_chars_len > max_row_chars)
                max_row_chars = row_chars_len;
        }
    }

    if (!PyUnicode_FSConverter(path, &fspath)) {
        PyErr_Clear();
        goto bail;
    }
    if ((dest.buf = map(dest.cap)) == NULL)
        goto done;
    dest.f = fopen(PyBytes_AS_STRING(fspath), "wb");
    if (dest.f == NULL)
        goto bail;

    /* the edge lines: rows in head order, each row's lines sorted, which
     * puts every line in order */
    lines_size = (size_t)n_heads * sizeof(Line);
    chars_size = (size_t)head_chars;
    if ((lines = map(lines_size)) == NULL || (chars = map(chars_size)) == NULL
            || (entries = map((size_t)max_row * sizeof(Entry))) == NULL
            || (row_chars = map((size_t)max_row_chars)) == NULL)
        goto done;
    char *at = chars;
    h = 0;
    for (pos = 0; PyDict_Next(out, &pos, &rel, &rel_rows);)
        for (Py_ssize_t rpos = 0; PyDict_Next(rel_rows, &rpos, &source, &row); h++) {
            if (h == n_heads || at - chars + token_len(source) > head_chars)
                goto changed;
            lines[h] = (Line){encode_id(source, &at), value_of(values, n_values, rel), row};
        }
    if (h != n_heads)
        goto changed;
    qsort(lines, (size_t)n_heads, sizeof(Line), compare_lines);
    for (h = 0; h < n_heads; h++) {
        Py_ssize_t n = 0;
        char *row_at = row_chars;
        for (Py_ssize_t epos = 0; PyDict_Next(lines[h].obj, &epos, &id, &item); n++) {
            PyObject *text = weight_text(&texts, item);
            if (text == NULL || n == max_row || !PyUnicode_CheckExact(id)
                    || row_at - row_chars + token_len(id) > max_row_chars)
                goto changed;
            entries[n].code = encode_id(id, &row_at);
            entries[n].weight = (Text){PyBytes_AS_STRING(text), PyBytes_GET_SIZE(text)};
        }
        qsort(entries, (size_t)n, sizeof(Entry), compare_entries);
        for (Py_ssize_t e = 0; e < n; e++)
            emit_line(&dest, 'E', &lines[h].code, lines[h].tag, &entries[e]);
    }
    unmap(lines, lines_size);
    unmap(chars, chars_size);
    lines = NULL;
    chars = NULL;

    /* the node lines */
    lines_size = (size_t)n_nodes * sizeof(Line);
    chars_size = (size_t)node_chars;
    if ((lines = map(lines_size)) == NULL || (chars = map(chars_size)) == NULL)
        goto done;
    at = chars;
    i = 0;
    for (pos = 0; PyDict_Next(kind, &pos, &id, &item); i++) {
        if (i == n_nodes || at - chars + token_len(id) > node_chars)
            goto changed;
        lines[i] = (Line){encode_id(id, &at), value_of(values, n_values, item), id};
    }
    qsort(lines, (size_t)n_nodes, sizeof(Line), compare_lines);
    for (i = 0; i < n_nodes; i++)
        emit_line(&dest, 'N', &lines[i].code, lines[i].tag, NULL);
    if (n_nodes == 0)
        emit(&dest, "\n", 1);
    fwrite(dest.buf, 1, dest.used, dest.f);
    /* a write that fails leaves the file to the Python writer, which writes
     * it again and raises the error */
    int failed = ferror(dest.f);
    failed |= fclose(dest.f);
    dest.f = NULL;
    result = Py_NewRef(failed ? Py_False : Py_True);
    goto done;
changed:
    /* only a graph changed since the checks above gets here */
    if (!PyErr_Occurred())
        PyErr_SetString(PyExc_RuntimeError, "snapshot write: the graph changed while written");
    goto done;
bail:
    if (!PyErr_Occurred())
        result = Py_NewRef(Py_False);
done:
    if (dest.f != NULL)
        fclose(dest.f);
    Py_XDECREF(fspath);
    unmap(lines, lines_size);
    unmap(chars, chars_size);
    unmap(entries, (size_t)max_row * sizeof(Entry));
    unmap(row_chars, (size_t)max_row_chars);
    unmap(dest.buf, dest.cap);
    table_free(&texts);
    return result;
}

/* --- add_rows ------------------------------------------------------------- */

/* Whether row, an exact dict, goes in as source's row of a relation from
 * src_kind to dst_kind nodes, by the rule in the header, old being source's
 * row so far (NULL for none); a lookup that fails leaves its error set. */
static int takes(PyObject *kind, PyObject *source, PyObject *row, PyObject *old,
                 PyObject *src_kind, PyObject *dst_kind)
{
    PyObject *target, *weight;
    if (!PyUnicode_CheckExact(source) || PyDict_GetItemWithError(kind, source) != src_kind)
        return 0;
    for (Py_ssize_t pos = 0; PyDict_Next(row, &pos, &target, &weight);) {
        if (!PyFloat_CheckExact(weight) || !(PyFloat_AS_DOUBLE(weight) > 0.0)
                || !Py_IS_FINITE(PyFloat_AS_DOUBLE(weight)) || !PyUnicode_CheckExact(target)
                || PyDict_GetItemWithError(kind, target) != dst_kind
                || (old != NULL && PyDict_Contains(old, target) != 0))
            return 0;
    }
    return 1;
}

/* The error that the iterator raised, taken off the error indicator, its
 * traceback attached; an error set when that fails. */
static PyObject *take_error(void)
{
#if PY_VERSION_HEX >= 0x030C0000
    return PyErr_GetRaisedException();
#else
    PyObject *type, *value, *tb;
    PyErr_Fetch(&type, &value, &tb);
    PyErr_NormalizeException(&type, &value, &tb);
    if (tb != NULL && value != NULL)
        PyException_SetTraceback(value, tb);
    Py_XDECREF(type);
    Py_XDECREF(tb);
    return value;
#endif
}

static PyObject *codec_add_rows(PyObject *self, PyObject *args)
{
    PyObject *kind, *out, *rows, *signature, *item;
    if (!PyArg_ParseTuple(args, "O!O!OO!:add_rows", &PyDict_Type, &kind, &PyDict_Type, &out,
                          &rows, &PyDict_Type, &signature))
        return NULL;
    if (!PyIter_Check(rows)) {
        PyErr_SetString(PyExc_TypeError, "add_rows: rows must be an iterator");
        return NULL;
    }
    /* the relation at hand, its rows and its kinds: strong references, as the
     * iterator may run code (a generator adds nodes between rows) */
    PyObject *relation = NULL, *rel_rows = NULL, *src_kind = NULL, *dst_kind = NULL;
    PyObject *rest = NULL;  /* the item not taken, then a 1-tuple of it; or an error */
    Py_ssize_t installed = 0;
    while ((item = PyIter_Next(rows)) != NULL) {
        if (!PyTuple_CheckExact(item) || PyTuple_GET_SIZE(item) != 3) {
            rest = item;
            break;
        }
        PyObject *source = PyTuple_GET_ITEM(item, 0), *rel = PyTuple_GET_ITEM(item, 1),
                 *row = PyTuple_GET_ITEM(item, 2);
        if (rel != relation) {
            PyObject *kinds = PyDict_GetItemWithError(signature, rel), *found = NULL;
            if (kinds != NULL && PyTuple_CheckExact(kinds) && PyTuple_GET_SIZE(kinds) == 2) {
                Py_XSETREF(src_kind, Py_NewRef(PyTuple_GET_ITEM(kinds, 0)));
                Py_XSETREF(dst_kind, Py_NewRef(PyTuple_GET_ITEM(kinds, 1)));
                found = PyDict_GetItemWithError(out, rel);
            }
            if (found == NULL || !PyDict_CheckExact(found)) {
                PyErr_Clear();
                rest = item;
                break;
            }
            Py_XSETREF(relation, Py_NewRef(rel));
            Py_XSETREF(rel_rows, Py_NewRef(found));
        }
        if (!PyDict_CheckExact(row)) {
            rest = item;
            break;
        }
        if (PyDict_GET_SIZE(row) == 0) {  /* an empty row adds nothing */
            Py_DECREF(item);
            continue;
        }
        /* source's row so far, held, as a lookup may run code */
        PyObject *old = PyUnicode_CheckExact(source)
                        ? Py_XNewRef(PyDict_GetItemWithError(rel_rows, source)) : NULL;
        if (PyErr_Occurred() || (old != NULL && !PyDict_CheckExact(old))
                || !takes(kind, source, row, old, src_kind, dst_kind)) {
            PyErr_Clear();
            Py_XDECREF(old);
            rest = item;
            break;
        }
        int failed = old == NULL ? PyDict_SetItem(rel_rows, source, row) : PyDict_Update(old, row);
        Py_XDECREF(old);
        Py_DECREF(item);
        if (failed)
            break;
        installed++;
    }
    if (rest != NULL)
        Py_SETREF(rest, PyTuple_Pack(1, rest));
    /* an error that the iterator or an install raised comes back in place of
     * the rest, so that the rows installed before it are counted */
    if (rest == NULL && PyErr_Occurred())
        rest = take_error();
    Py_XDECREF(relation);
    Py_XDECREF(rel_rows);
    Py_XDECREF(src_kind);
    Py_XDECREF(dst_kind);
    PyObject *result = Py_BuildValue("(nO)", installed, rest ? rest : Py_None);
    Py_XDECREF(rest);
    return result;
}

/* --- scatter and top ------------------------------------------------------ */

/* numpy.ndarray and numpy.zeros, looked up at the first call that needs them */
static PyObject *ndarray, *zeros;

/* Whether obj is an exact numpy.ndarray holding a 1-d C-contiguous vector of
 * native 8-byte items of type code, 'd' (float64) or 'q' (int64), writable if
 * asked; its buffer is then held in view. Otherwise 0, with no error set and
 * no buffer held, or -1 with an error set when numpy cannot be found. */
static int vector(PyObject *obj, char code, int writable, Py_buffer *view)
{
    if (ndarray == NULL) {
        PyObject *numpy = PyImport_ImportModule("numpy");
        if (numpy == NULL)
            return -1;
        Py_XSETREF(zeros, PyObject_GetAttrString(numpy, "zeros"));
        ndarray = zeros ? PyObject_GetAttrString(numpy, "ndarray") : NULL;
        Py_DECREF(numpy);
        if (ndarray == NULL)
            return -1;
    }
    if ((PyObject *)Py_TYPE(obj) != ndarray)
        return 0;
    int flags = PyBUF_C_CONTIGUOUS | PyBUF_FORMAT | (writable ? PyBUF_WRITABLE : 0);
    if (PyObject_GetBuffer(obj, view, flags) < 0) {
        PyErr_Clear();
        return 0;
    }
    const char *f = view->format;
    /* int64 is 'l' where a C long holds 8 bytes, else 'q' */
    if (view->ndim == 1 && view->itemsize == 8 && f != NULL && f[0] != '\0' && f[1] == '\0'
            && (f[0] == code || (code == 'q' && f[0] == 'l')))
        return 1;
    PyBuffer_Release(view);
    return 0;
}

static PyObject *codec_scatter(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    static const char codes[4] = {'d', 'q', 'q', 'd'};  /* scores, src, dst, wgt */
    Py_buffer view[4], sums;
    int held = 0, got = 1;
    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError, "scatter takes 5 arguments (scores, src, dst, wgt, n)");
        return NULL;
    }
    /* n: an exact int, neither negative nor past Py_ssize_t */
    Py_ssize_t n = PyLong_CheckExact(args[4]) ? PyLong_AsSsize_t(args[4]) : -1;
    if (n < 0) {
        PyErr_Clear();
        Py_RETURN_NONE;
    }
    while (held < 4 && (got = vector(args[held], codes[held], 0, &view[held])) == 1)
        held++;
    int taken = held == 4 && view[2].len == view[1].len && view[3].len == view[1].len;
    PyObject *out = taken ? PyObject_CallOneArg(zeros, args[4]) : NULL;
    taken = out != NULL && PyObject_GetBuffer(out, &sums, PyBUF_WRITABLE) == 0;
    if (taken) {
        double *sum = sums.buf;
        const double *scores = view[0].buf, *wgt = view[3].buf;
        const int64_t *src = view[1].buf, *dst = view[2].buf;
        uint64_t n_scores = (uint64_t)(view[0].len / 8);
        Py_ssize_t m = view[1].len / 8;
        /* NumPy's multiply warns or raises, as its error state says, on a
         * product that raises a floating-point flag, so a scatter whose
         * products or sums raise one goes back to it (bincount's sums raise
         * no warning, so that is more than needed), and so does one that
         * leaves a NaN, whose payload the hardware and the operand order
         * choose. A negative index turns into one past every length. */
        feclearexcept(FE_ALL_EXCEPT);
        for (Py_ssize_t e = 0; taken && e < m; e++) {
            uint64_t from = (uint64_t)src[e], to = (uint64_t)dst[e];
            if (from >= n_scores || to >= (uint64_t)n) {
                taken = 0;
                break;
            }
            sum[to] += wgt[e] * scores[from];
        }
        if (taken && fetestexcept(FE_DIVBYZERO | FE_INVALID | FE_OVERFLOW | FE_UNDERFLOW))
            taken = 0;
        for (Py_ssize_t i = 0; taken && i < n; i++)
            taken = sum[i] == sum[i];
        PyBuffer_Release(&sums);
    }
    while (held > 0)
        PyBuffer_Release(&view[--held]);
    if (got < 0)
        return NULL;
    if (taken)
        return out;
    /* numpy.zeros may have raised: the NumPy line then raises its own error */
    Py_XDECREF(out);
    PyErr_Clear();
    Py_RETURN_NONE;
}

typedef struct {
    double score;
    Py_ssize_t pos;
} Hit;

/* the order of a ranked list: higher score first, then lower position */
static int compare_hits(const void *x, const void *y)
{
    const Hit *a = x, *b = y;
    if (a->score != b->score)
        return a->score > b->score ? -1 : 1;
    return (a->pos > b->pos) - (a->pos < b->pos);
}

/* A cutoff up to this is kept in order while the scores are read; a higher
 * one sorts every hit. */
#define SHORT_LIST 64

static PyObject *codec_top(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer scores_view, nodes_view;
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "top takes 3 arguments (scores, cutoff, nodes)");
        return NULL;
    }
    int got = vector(args[0], 'd', 0, &scores_view);
    if (got <= 0)
        return got < 0 ? NULL : Py_NewRef(Py_None);
    const double *scores = scores_view.buf;
    Py_ssize_t n = scores_view.len / 8, cutoff = n;
    const int64_t *nodes = NULL;
    PyObject *result = NULL;
    Hit *hits = NULL, shortlist[SHORT_LIST];
    int has_nodes = args[2] != Py_None;
    if (has_nodes) {
        got = vector(args[2], 'q', 0, &nodes_view);
        if (got <= 0 || nodes_view.len != scores_view.len) {
            if (got > 0)
                PyBuffer_Release(&nodes_view);
            PyBuffer_Release(&scores_view);
            return got < 0 ? NULL : Py_NewRef(Py_None);
        }
        nodes = nodes_view.buf;
    }
    if (args[1] != Py_None) {
        /* as a slice reads its stop: an index, clamped to Py_ssize_t */
        Py_ssize_t c = PyNumber_AsSsize_t(args[1], NULL);
        if ((c == -1 && PyErr_Occurred()) || c < 0) {
            PyErr_Clear();
            result = Py_NewRef(Py_None);
            goto done;
        }
        if (c < cutoff)
            cutoff = c;
    }
    Py_ssize_t count = 0;
    if (cutoff <= SHORT_LIST) {
        hits = shortlist;
        for (Py_ssize_t i = 0; cutoff > 0 && i < n; i++) {
            double s = scores[i];
            if (!(s > 0.0))  /* also true for NaN */
                continue;
            Py_ssize_t j;
            if (count < cutoff)
                j = count++;
            else if (s > hits[cutoff - 1].score)
                j = cutoff - 1;
            else
                continue;
            /* a hit of equal score read earlier has the lower position */
            for (; j > 0 && hits[j - 1].score < s; j--)
                hits[j] = hits[j - 1];
            hits[j] = (Hit){s, i};
        }
    }
    else {
        hits = PyMem_Malloc((size_t)n * sizeof(Hit));
        if (hits == NULL) {
            PyErr_NoMemory();
            goto done;
        }
        for (Py_ssize_t i = 0; i < n; i++)
            if (scores[i] > 0.0)
                hits[count++] = (Hit){scores[i], i};
        qsort(hits, (size_t)count, sizeof(Hit), compare_hits);
        if (count > cutoff)
            count = cutoff;
    }
    PyObject *at = PyList_New(count), *values = PyList_New(count);
    for (Py_ssize_t k = 0; at != NULL && values != NULL && k < count; k++) {
        PyObject *pos = PyLong_FromLongLong(has_nodes ? nodes[hits[k].pos] : hits[k].pos);
        PyObject *score = PyFloat_FromDouble(hits[k].score);
        if (pos == NULL || score == NULL) {
            Py_XDECREF(pos);
            Py_XDECREF(score);
            Py_CLEAR(at);
            break;
        }
        PyList_SET_ITEM(at, k, pos);
        PyList_SET_ITEM(values, k, score);
    }
    if (at != NULL && values != NULL)
        result = PyTuple_Pack(2, at, values);
    Py_XDECREF(at);
    Py_XDECREF(values);
done:
    if (hits != shortlist)
        PyMem_Free(hits);
    if (has_nodes)
        PyBuffer_Release(&nodes_view);
    PyBuffer_Release(&scores_view);
    return result;
}

/* --- move_pass ------------------------------------------------------------ */

static double plogp(double x)
{
    return x > 0.0 ? x * log2(x) : 0.0;
}

/* Returns the number of moves and sets *delta_sum, or returns -1 when the
 * work arrays cannot be allocated. */
static int64_t local_move_pass(
    int64_t n_units, int64_t n_order, const int64_t *order, int64_t *labels,
    const double *visit, const double *tele, const double *size,
    const int64_t *nbr_ptr, const int64_t *nbr_idx, const double *nbr_out, const double *nbr_in,
    int64_t n_modules, double *mod_visit, double *mod_tele, double *mod_size,
    double *mod_cross, double *mod_exit, double exit_sum, double n_orig, double eps,
    double *delta_sum)
{
    /* the queue never holds more than n_order + n_units entries: an appended
     * unit is queued again only after one of its entries from order is popped */
    int64_t cap = n_order + n_units;
    double *conn_out = malloc(sizeof(double) * (size_t)(n_units + 1));
    double *conn_in = malloc(sizeof(double) * (size_t)(n_units + 1));
    double *mod_pq = malloc(sizeof(double) * (size_t)(n_modules + 1));
    double *mod_pqv = malloc(sizeof(double) * (size_t)(n_modules + 1));
    int64_t *mark = calloc((size_t)(n_units + 1), sizeof(int64_t));
    int64_t *cand = malloc(sizeof(int64_t) * (size_t)(n_units + 1));
    int64_t *queue = malloc(sizeof(int64_t) * (size_t)(cap + 1));
    unsigned char *queued = calloc((size_t)(n_units + 1), 1);
    int64_t moves = -1;
    if (!conn_out || !conn_in || !mod_pq || !mod_pqv || !mark || !cand || !queue || !queued)
        goto done;

    /* each module's old code terms, kept up to date by every move */
    for (int64_t m = 0; m < n_modules; m++) {
        mod_pq[m] = plogp(mod_exit[m]);
        mod_pqv[m] = plogp(mod_exit[m] + mod_visit[m]);
    }
    double plogp_exit = plogp(exit_sum);
    for (int64_t i = 0; i < n_order; i++) {
        queue[i] = order[i];
        queued[order[i]] = 1;
    }
    int64_t head = 0, count = n_order;
    double delta = 0.0;
    int64_t visits = 0;
    moves = 0;
    while (count > 0) {
        int64_t u = queue[head];
        head = head + 1 == cap ? 0 : head + 1;
        count--;
        queued[u] = 0;
        visits++;
        int64_t a = labels[u];
        int64_t ncand = 0;
        double sout = 0.0; /* the unit's own exit flow */
        for (int64_t e = nbr_ptr[u]; e < nbr_ptr[u + 1]; e++) {
            int64_t m = labels[nbr_idx[e]];
            if (mark[m] != visits) {
                mark[m] = visits;
                conn_out[m] = 0.0;
                conn_in[m] = 0.0;
                cand[ncand++] = m;
            }
            double w_out = nbr_out[e];
            conn_out[m] += w_out;
            conn_in[m] += nbr_in[e];
            sout += w_out;
        }
        if (ncand == 0)
            continue;
        double tele_u = tele[u], size_u = size[u], visit_u = visit[u];
        double ca_out = mark[a] == visits ? conn_out[a] : 0.0;
        double ca_in = mark[a] == visits ? conn_in[a] : 0.0;
        double t_a = mod_tele[a] - tele_u;
        double s_a = mod_size[a] - size_u;
        double v_a = mod_visit[a] - visit_u;
        double x_a = mod_cross[a] - (sout - ca_out) + ca_in;
        double q_a_new = t_a * (n_orig - s_a) / n_orig + x_a;
        double q_a_old = mod_exit[a];
        double pq_a = plogp(q_a_new);
        double pqv_a = plogp(q_a_new + v_a);
        double base_a = (pq_a - mod_pq[a]) * -2.0 + (pqv_a - mod_pqv[a]);
        double best_dl = -eps;
        int64_t best = -1;
        double best_q_b = 0.0, best_x_b = 0.0, best_exit = 0.0;
        double best_pq_exit = 0.0, best_pq_b = 0.0, best_pqv_b = 0.0;
        for (int64_t ci = 0; ci < ncand; ci++) {
            int64_t b = cand[ci];
            if (b == a)
                continue;
            double q_b_old = mod_exit[b];
            double t_b = mod_tele[b] + tele_u;
            double s_b = mod_size[b] + size_u;
            double v_b = mod_visit[b] + visit_u;
            double x_b = mod_cross[b] - conn_in[b] + (sout - conn_out[b]);
            double q_b_new = t_b * (n_orig - s_b) / n_orig + x_b;
            double exit_new = exit_sum - q_a_old - q_b_old + q_a_new + q_b_new;
            double pq_exit = plogp(exit_new);
            double pq_b = plogp(q_b_new);
            double pqv_b = plogp(q_b_new + v_b);
            double dl = (pq_exit - plogp_exit - 2.0 * (pq_b - mod_pq[b])
                         + (pqv_b - mod_pqv[b]) + base_a);
            /* equal gains resolve to the lowest module id */
            if (dl < best_dl || (dl == best_dl && b < best)) {
                best_dl = dl;
                best = b;
                best_q_b = q_b_new;
                best_x_b = x_b;
                best_exit = exit_new;
                best_pq_exit = pq_exit;
                best_pq_b = pq_b;
                best_pqv_b = pqv_b;
            }
        }
        if (best >= 0) {
            labels[u] = best;
            mod_tele[a] = t_a;
            mod_size[a] = s_a;
            mod_visit[a] = v_a;
            mod_cross[a] = x_a;
            mod_exit[a] = q_a_new;
            mod_pq[a] = pq_a;
            mod_pqv[a] = pqv_a;
            mod_tele[best] += tele_u;
            mod_size[best] += size_u;
            mod_visit[best] += visit_u;
            mod_cross[best] = best_x_b;
            mod_exit[best] = best_q_b;
            plogp_exit = best_pq_exit;
            mod_pq[best] = best_pq_b;
            mod_pqv[best] = best_pqv_b;
            exit_sum = best_exit;
            moves++;
            delta += best_dl;
            for (int64_t e = nbr_ptr[u]; e < nbr_ptr[u + 1]; e++) {
                int64_t v = nbr_idx[e];
                if (!queued[v] && labels[v] != best) {
                    int64_t tail = head + count;
                    queued[v] = 1;
                    queue[tail >= cap ? tail - cap : tail] = v;
                    count++;
                }
            }
        }
    }
    *delta_sum = delta;
done:
    free(conn_out);
    free(conn_in);
    free(mod_pq);
    free(mod_pqv);
    free(mark);
    free(cand);
    free(queue);
    free(queued);
    return moves;
}

static PyObject *codec_move_pass(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    /* order, labels, visit, tele, size, nbr_ptr, nbr_idx, nbr_out, nbr_in and
     * the five module arrays, of which labels and the module arrays are written */
    static const char codes[] = "qqdddqqddddddd";
    Py_buffer v[14];
    int held = 0, got = 1;
    if (nargs != 17) {
        PyErr_SetString(PyExc_TypeError, "move_pass takes 17 arguments (14 vectors, exit_sum, "
                        "n_orig, eps)");
        return NULL;
    }
    while (held < 14
           && (got = vector(args[held], codes[held], held == 1 || held >= 9, &v[held])) == 1)
        held++;
    int taken = held == 14 && PyFloat_CheckExact(args[14]) && PyFloat_CheckExact(args[15])
                && PyFloat_CheckExact(args[16]);
    int64_t moves = 0;
    double delta = 0.0;
    if (taken) {  /* the caller has checked every length and index */
        Py_BEGIN_ALLOW_THREADS
        moves = local_move_pass(v[1].len / 8, v[0].len / 8, v[0].buf, v[1].buf, v[2].buf,
                                v[3].buf, v[4].buf, v[5].buf, v[6].buf, v[7].buf, v[8].buf,
                                v[9].len / 8, v[9].buf, v[10].buf, v[11].buf, v[12].buf,
                                v[13].buf, PyFloat_AS_DOUBLE(args[14]),
                                PyFloat_AS_DOUBLE(args[15]), PyFloat_AS_DOUBLE(args[16]), &delta);
        Py_END_ALLOW_THREADS
    }
    while (held > 0)
        PyBuffer_Release(&v[--held]);
    if (got < 0)
        return NULL;
    if (!taken)
        Py_RETURN_NONE;
    if (moves < 0)
        return PyErr_Format(PyExc_MemoryError, "move pass: no memory for its work arrays");
    return Py_BuildValue("(Ld)", (long long)moves, delta);
}

static PyMethodDef methods[] = {
    {"scan", codec_scan, METH_VARARGS,
     "scan(path, kind_by_value, relation_by_value): a snapshot's node ids, node kinds,\n"
     "sources, relations and rows, or None"},
    {"write", codec_write, METH_VARARGS,
     "write(path, kind, out, value): write a graph's snapshot; False, having written\n"
     "nothing, when the Python writer must"},
    {"add_rows", codec_add_rows, METH_VARARGS,
     "add_rows(kind, out, rows, signature): install the rows of the iterator rows up to\n"
     "one it does not take; (rows installed, (that row,) or an error raised or None)"},
    {"scatter", (PyCFunction)(void (*)(void))codec_scatter, METH_FASTCALL,
     "scatter(scores, src, dst, wgt, n): a new vector of n zeros, plus wgt[e] * scores[src[e]]\n"
     "at dst[e] in edge order; None when the NumPy line must"},
    {"top", (PyCFunction)(void (*)(void))codec_top, METH_FASTCALL,
     "top(scores, cutoff, nodes): the cutoff highest positive scores' positions (through\n"
     "nodes) and scores, highest first, ties by position; None when the NumPy line must"},
    {"move_pass", (PyCFunction)(void (*)(void))codec_move_pass, METH_FASTCALL,
     "move_pass(order, labels, ..., exit_sum, n_orig, eps): the community move pass;\n"
     "(moves, delta), or None, having written nothing, when the Python pass must"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_snapshot", NULL, -1, methods};

PyMODINIT_FUNC PyInit__snapshot(void)
{
    return PyModule_Create(&module);
}
