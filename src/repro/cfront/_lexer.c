/* The native lexer: a transliteration of repro.cfront.lexer.

   Lexer.tokens() matches one master regular expression per lexeme.
   tokenize() here scans the same alternatives in the same order, each
   as the regular expression matches it: whitespace, newlines,
   identifiers and keywords, numbers, both comment styles, the
   punctuators in the order of tokens.PUNCTUATORS (longest first),
   string and character literals, and preprocessor directives.  It
   returns the same list of tokens.Token named tuples, or raises the
   same LexError with the same message, line and column.

   Positions count code points, so the source is read through
   PyUnicode_READ and any str kind (UCS1, UCS2, UCS4) lexes alike.

   repro.cfront.native compiles this file on first import and calls
   bind() with the tokens module and the LexError class; the token
   kinds, the Token class, KEYWORDS and PUNCTUATORS come from them. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

/* ------------------------------------------------------------------ */
/* Names bound from the tokens module by bind()                         */
/* ------------------------------------------------------------------ */

static PyTypeObject *TokenType;
static PyObject *LexErrorType;
static PyObject *KIND_IDENT, *KIND_KEYWORD, *KIND_INT, *KIND_FLOAT;
static PyObject *KIND_CHAR, *KIND_STRING, *KIND_PUNCT, *KIND_EOF;
static PyObject *KEYWORDS, *PUNCTUATORS;

static struct {
    PyObject **slot;
    const char *name;
} bound_names[] = {
    {&KIND_IDENT, "IDENT"},
    {&KIND_KEYWORD, "KEYWORD"},
    {&KIND_INT, "INT_CONST"},
    {&KIND_FLOAT, "FLOAT_CONST"},
    {&KIND_CHAR, "CHAR_CONST"},
    {&KIND_STRING, "STRING_CONST"},
    {&KIND_PUNCT, "PUNCT"},
    {&KIND_EOF, "EOF"},
    {&KEYWORDS, "KEYWORDS"},
    {&PUNCTUATORS, "PUNCTUATORS"},
    {NULL, NULL},
};

/* The punctuators by first character, each list in PUNCTUATORS order,
   so the first that matches is the one the regular expression's
   alternation takes.  Every punctuator is ASCII and at most
   MAX_PUNCT characters long (bind() checks). */
#define MAX_PUNCT 3
#define MAX_PER_FIRST 8
typedef struct {
    Py_ssize_t length;
    Py_UCS4 chars[MAX_PUNCT];
    PyObject *text;           /* the PUNCTUATORS item, a token's text */
} Punct;
static Punct puncts[128][MAX_PER_FIRST];
static int punct_counts[128];

static const char UNTERMINATED_COMMENT[] = "unterminated block comment";
static const char UNTERMINATED_STRING[] = "unterminated string literal";
static const char UNTERMINATED_CHAR[] = "unterminated character literal";

/* ------------------------------------------------------------------ */
/* Character classes of the master pattern                              */
/* ------------------------------------------------------------------ */

#define IS_SPACE(c) ((c) == ' ' || (c) == '\t' || (c) == '\r')
#define IS_DIGIT(c) ((c) >= '0' && (c) <= '9')
#define IS_ALPHA(c) \
    (((c) >= 'a' && (c) <= 'z') || ((c) >= 'A' && (c) <= 'Z') || (c) == '_')
#define IS_ALNUM(c) (IS_ALPHA(c) || IS_DIGIT(c))
#define IS_HEX(c) \
    (IS_DIGIT(c) || ((c) >= 'a' && (c) <= 'f') || ((c) >= 'A' && (c) <= 'F'))
#define IS_SUFFIX(c) \
    ((c) == 'u' || (c) == 'U' || (c) == 'l' || (c) == 'L' || (c) == 'f' \
     || (c) == 'F')

/* ------------------------------------------------------------------ */
/* Tokens and errors                                                    */
/* ------------------------------------------------------------------ */

/* Append Token(kind, text, line, column) to out; steals text.
   *line_object caches line as an int, made once per line that has a
   token. */
static int
emit(PyObject *out, PyObject *kind, PyObject *text, PyObject **line_object,
     Py_ssize_t line, Py_ssize_t column)
{
    PyObject *token, *column_object;
    int status;

    if (text == NULL) {
        return -1;
    }
    if (*line_object == NULL
            && (*line_object = PyLong_FromSsize_t(line)) == NULL) {
        Py_DECREF(text);
        return -1;
    }
    column_object = PyLong_FromSsize_t(column);
    if (column_object == NULL) {
        Py_DECREF(text);
        return -1;
    }
#if PY_VERSION_HEX < 0x030E0000
    /* What tuple.__new__(Token, items) does, without the items tuple:
       Token is a tuple subclass without instance slots (bind() checks),
       and a new instance's items are NULL until set. */
    token = TokenType->tp_alloc(TokenType, 4);
    if (token == NULL) {
        Py_DECREF(text);
        Py_DECREF(column_object);
        return -1;
    }
    PyTuple_SET_ITEM(token, 0, Py_NewRef(kind));
    PyTuple_SET_ITEM(token, 1, text);
    PyTuple_SET_ITEM(token, 2, Py_NewRef(*line_object));
    PyTuple_SET_ITEM(token, 3, column_object);
#else
    /* From 3.14 on a tuple caches its hash in a field that tp_alloc
       leaves unset, so tuple.__new__ makes the instance. */
    {
        PyObject *items = PyTuple_Pack(4, kind, text, *line_object,
                                       column_object);
        Py_DECREF(text);
        Py_DECREF(column_object);
        if (items == NULL) {
            return -1;
        }
        token = PyObject_CallMethod((PyObject *)&PyTuple_Type, "__new__",
                                    "OO", (PyObject *)TokenType, items);
        Py_DECREF(items);
        if (token == NULL) {
            return -1;
        }
    }
#endif
    /* Its items are a str and ints, so it is never part of a cycle:
       the collector need not scan it, as it stops scanning tuples of
       atoms. */
    PyObject_GC_UnTrack(token);
    status = PyList_Append(out, token);
    Py_DECREF(token);
    return status;
}

/* Raise LexError(message, line, column); steals message. */
static void
lex_error(PyObject *message, Py_ssize_t line, Py_ssize_t column)
{
    PyObject *error;

    if (message == NULL) {
        return;
    }
    error = PyObject_CallFunction(LexErrorType, "Onn", message, line,
                                  column);
    Py_DECREF(message);
    if (error != NULL) {
        PyErr_SetObject((PyObject *)Py_TYPE(error), error);
        Py_DECREF(error);
    }
}

/* ------------------------------------------------------------------ */
/* tokenize                                                             */
/* ------------------------------------------------------------------ */

PyDoc_STRVAR(tokenize_doc,
"tokenize(source, filename='<input>')\n--\n\n"
"Lex ``source`` into a list of ``Token`` tuples ending in one EOF\n"
"token, as ``Lexer(source, filename).tokens()`` does, or raise its\n"
"``LexError``.");

static PyObject *
tokenize(PyObject *module, PyObject *args, PyObject *kwargs)
{
    static char *keywords[] = {"source", "filename", NULL};
    PyObject *source, *filename = NULL;
    PyObject *out = NULL, *line_object = NULL, *text;
    const void *data;
    int kind;
    Py_ssize_t length, pos = 0, end, line = 1, line_start = 0, column;
    Py_ssize_t newlines, last_newline;
    Py_UCS4 c, d;
    (void)module;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "U|O:tokenize", keywords,
                                     &source, &filename)) {
        return NULL;
    }
    if (TokenType == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "tokenize before bind()");
        return NULL;
    }
#if PY_VERSION_HEX < 0x030C0000
    if (PyUnicode_READY(source) < 0) {
        return NULL;
    }
#endif
    kind = PyUnicode_KIND(source);
    data = PyUnicode_DATA(source);
    length = PyUnicode_GET_LENGTH(source);
#define AT(i) PyUnicode_READ(kind, data, (i))
#define NEXT_IS(i, ch) ((i) < length && AT(i) == (ch))
#define EMIT(token_kind, text, column)                                  \
    emit(out, (token_kind), (text), &line_object, line, (column))
#define NEW_LINE(n, start)                                              \
    do {                                                                \
        line += (n);                                                    \
        line_start = (start);                                           \
        Py_CLEAR(line_object);                                          \
    } while (0)

    out = PyList_New(0);
    if (out == NULL) {
        return NULL;
    }
    while (pos < length) {
        c = AT(pos);
        column = pos - line_start + 1;
        if (IS_SPACE(c)) {
            for (pos++; pos < length && IS_SPACE(AT(pos)); pos++) {
            }
            continue;
        }
        if (c == '\n') {
            NEW_LINE(1, pos + 1);
            pos++;
            continue;
        }
        if (IS_ALPHA(c)) {
            int found;
            for (end = pos + 1; end < length && IS_ALNUM(AT(end)); end++) {
            }
            text = PyUnicode_Substring(source, pos, end);
            if (text == NULL) {
                goto error;
            }
            found = PySet_Contains(KEYWORDS, text);
            if (found < 0) {
                Py_DECREF(text);
                goto error;
            }
            if (EMIT(found ? KIND_KEYWORD : KIND_IDENT, text, column) < 0) {
                goto error;
            }
            pos = end;
            continue;
        }
        if (IS_DIGIT(c) || (c == '.' && pos + 1 < length
                            && IS_DIGIT(AT(pos + 1)))) {
            /* 0[xX][0-9a-fA-F]*[uUlLfF]*
               | (?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]*)?
                 [uUlLfF]*
               _number_kind: a float has a fraction, an exponent or an
               f suffix (hex digits swallow every f before a suffix). */
            int is_float = 0;
            if (c == '0' && (NEXT_IS(pos + 1, 'x') || NEXT_IS(pos + 1, 'X'))) {
                for (end = pos + 2; end < length && IS_HEX(AT(end)); end++) {
                }
            }
            else {
                for (end = pos; end < length && IS_DIGIT(AT(end)); end++) {
                }
                if (NEXT_IS(end, '.')) {
                    is_float = 1;
                    for (end++; end < length && IS_DIGIT(AT(end)); end++) {
                    }
                }
                if (NEXT_IS(end, 'e') || NEXT_IS(end, 'E')) {
                    is_float = 1;
                    end++;
                    if (NEXT_IS(end, '+') || NEXT_IS(end, '-')) {
                        end++;
                    }
                    for (; end < length && IS_DIGIT(AT(end)); end++) {
                    }
                }
            }
            for (; end < length; end++) {
                d = AT(end);
                if (!IS_SUFFIX(d)) {
                    break;
                }
                if (d == 'f' || d == 'F') {
                    is_float = 1;
                }
            }
            if (EMIT(is_float ? KIND_FLOAT : KIND_INT,
                     PyUnicode_Substring(source, pos, end), column) < 0) {
                goto error;
            }
            pos = end;
            continue;
        }
        if (c == '/' && NEXT_IS(pos + 1, '/')) {
            for (pos += 2; pos < length && AT(pos) != '\n'; pos++) {
            }
            continue;
        }
        if (c == '/' && NEXT_IS(pos + 1, '*')) {
            /* Up to the first "*" "/" after the opening pair. */
            newlines = 0;
            last_newline = 0;
            for (end = pos + 2; end + 1 < length; end++) {
                d = AT(end);
                if (d == '*' && AT(end + 1) == '/') {
                    break;
                }
                if (d == '\n') {
                    newlines++;
                    last_newline = end;
                }
            }
            if (end + 1 >= length) {
                lex_error(PyUnicode_FromString(UNTERMINATED_COMMENT), line,
                          column);
                goto error;
            }
            if (newlines) {
                NEW_LINE(newlines, last_newline + 1);
            }
            pos = end + 2;
            continue;
        }
        if (c < 128 && punct_counts[c]) {
            const Punct *candidate = puncts[c];
            const Punct *stop = candidate + punct_counts[c];
            for (; candidate < stop; candidate++) {
                Py_ssize_t i = 1;
                while (i < candidate->length
                       && NEXT_IS(pos + i, candidate->chars[i])) {
                    i++;
                }
                if (i == candidate->length) {
                    break;
                }
            }
            if (candidate < stop) {
                if (EMIT(KIND_PUNCT, Py_NewRef(candidate->text),
                         column) < 0) {
                    goto error;
                }
                pos += candidate->length;
                continue;
            }
        }
        if (c == '"' || c == '\'') {
            /* "[^"\\\n]*(?:\\.[^"\\\n]*)*", '...' alike: a backslash
               escapes any character, a newline included. */
            int closed = 0;
            newlines = 0;
            last_newline = 0;
            for (end = pos + 1; end < length; end++) {
                d = AT(end);
                if (d == c) {
                    closed = 1;
                    end++;
                    break;
                }
                if (d == '\n') {
                    break;
                }
                if (d == '\\') {
                    if (end + 1 >= length) {
                        break;
                    }
                    end++;
                    if (AT(end) == '\n') {
                        newlines++;
                        last_newline = end;
                    }
                }
            }
            if (!closed) {
                lex_error(PyUnicode_FromString(
                              c == '"' ? UNTERMINATED_STRING
                                       : UNTERMINATED_CHAR),
                          line, column);
                goto error;
            }
            if (EMIT(c == '"' ? KIND_STRING : KIND_CHAR,
                     PyUnicode_Substring(source, pos, end), column) < 0) {
                goto error;
            }
            if (newlines) {
                NEW_LINE(newlines, last_newline + 1);
            }
            pos = end;
            continue;
        }
        if (c == '#') {
            /* \#(?:[^\n\\]|\\\n?)*\n? */
            newlines = 0;
            last_newline = 0;
            for (end = pos + 1; end < length; end++) {
                d = AT(end);
                if (d == '\n') {
                    newlines++;
                    last_newline = end++;
                    break;
                }
                if (d == '\\' && NEXT_IS(end + 1, '\n')) {
                    newlines++;
                    last_newline = ++end;
                }
            }
            if (newlines) {
                NEW_LINE(newlines, last_newline + 1);
            }
            pos = end;
            continue;
        }
        {
            PyObject *character = PyUnicode_FromOrdinal(c);
            if (character != NULL) {
                lex_error(PyUnicode_FromFormat("unexpected character %R",
                                               character),
                          line, column);
                Py_DECREF(character);
            }
        }
        goto error;
    }
    if (EMIT(KIND_EOF, PyUnicode_New(0, 0), pos - line_start + 1) < 0) {
        goto error;
    }
    Py_XDECREF(line_object);
    return out;

error:
    Py_XDECREF(line_object);
    Py_DECREF(out);
    return NULL;
#undef AT
#undef NEXT_IS
#undef EMIT
#undef NEW_LINE
}

/* ------------------------------------------------------------------ */
/* bind                                                                 */
/* ------------------------------------------------------------------ */

PyDoc_STRVAR(bind_doc,
"bind(tokens, lex_error)\n--\n\n"
"Take the token kinds, ``Token``, ``KEYWORDS`` and ``PUNCTUATORS``\n"
"from the ``tokens`` module and the class of lexing errors.");

static PyObject *
bind(PyObject *module, PyObject *args)
{
    PyObject *tokens, *lex_error, *value, *token_type;
    Py_ssize_t i, count;
    int first;
    (void)module;

    if (!PyArg_ParseTuple(args, "OO:bind", &tokens, &lex_error)) {
        return NULL;
    }
    for (i = 0; bound_names[i].slot != NULL; i++) {
        value = PyObject_GetAttrString(tokens, bound_names[i].name);
        if (value == NULL) {
            return NULL;
        }
        Py_XSETREF(*bound_names[i].slot, value);
    }
    token_type = PyObject_GetAttrString(tokens, "Token");
    if (token_type == NULL) {
        return NULL;
    }
    if (!PyType_Check(token_type)
            || !PyType_IsSubtype((PyTypeObject *)token_type, &PyTuple_Type)
            || ((PyTypeObject *)token_type)->tp_basicsize
               != PyTuple_Type.tp_basicsize
            || ((PyTypeObject *)token_type)->tp_itemsize
               != PyTuple_Type.tp_itemsize) {
        Py_DECREF(token_type);
        PyErr_SetString(PyExc_TypeError,
                        "Token must be a tuple subclass without slots");
        return NULL;
    }
    if (!PyType_Check(lex_error)
            || !PyType_IsSubtype((PyTypeObject *)lex_error,
                                 (PyTypeObject *)PyExc_Exception)) {
        Py_DECREF(token_type);
        PyErr_SetString(PyExc_TypeError, "lex_error must be an exception");
        return NULL;
    }
    if (!PyAnySet_Check(KEYWORDS) || !PyTuple_Check(PUNCTUATORS)) {
        Py_DECREF(token_type);
        PyErr_SetString(PyExc_TypeError,
                        "KEYWORDS must be a set, PUNCTUATORS a tuple");
        return NULL;
    }
    memset(punct_counts, 0, sizeof(punct_counts));
    count = PyTuple_GET_SIZE(PUNCTUATORS);
    for (i = 0; i < count; i++) {
        PyObject *text = PyTuple_GET_ITEM(PUNCTUATORS, i);
        Py_ssize_t length, j;
        Punct *slot;
        if (!PyUnicode_Check(text)
                || (length = PyUnicode_GET_LENGTH(text)) < 1
                || length > MAX_PUNCT
                || PyUnicode_MAX_CHAR_VALUE(text) > 127) {
            Py_DECREF(token_type);
            PyErr_Format(PyExc_ValueError,
                         "punctuator %R is not 1-%d ASCII characters",
                         text, MAX_PUNCT);
            return NULL;
        }
        first = (int)PyUnicode_READ_CHAR(text, 0);
        if (punct_counts[first] == MAX_PER_FIRST) {
            Py_DECREF(token_type);
            PyErr_Format(PyExc_ValueError,
                         "more than %d punctuators start with %R",
                         MAX_PER_FIRST, text);
            return NULL;
        }
        slot = &puncts[first][punct_counts[first]++];
        slot->length = length;
        for (j = 0; j < length; j++) {
            slot->chars[j] = PyUnicode_READ_CHAR(text, j);
        }
        slot->text = text;  /* PUNCTUATORS keeps it alive */
    }
    Py_XSETREF(TokenType, (PyTypeObject *)token_type);
    Py_XSETREF(LexErrorType, Py_NewRef(lex_error));
    Py_RETURN_NONE;
}

static PyMethodDef lexer_methods[] = {
    {"tokenize", (PyCFunction)(void (*)(void))tokenize,
     METH_VARARGS | METH_KEYWORDS, tokenize_doc},
    {"bind", bind, METH_VARARGS, bind_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef lexer_module = {
    PyModuleDef_HEAD_INIT,
    "_lexer",
    "The native lexer (see repro.cfront.native).",
    -1,
    lexer_methods,
    NULL,
    NULL,
    NULL,
    NULL,
};

PyMODINIT_FUNC
PyInit__lexer(void)
{
    return PyModule_Create(&lexer_module);
}
