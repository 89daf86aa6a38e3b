"""Straight-line Python generated for evaluating polynomials and their lines.

``_compile_factored`` compiles a sum of products of one shape into one
function and decides which of its parts are memoized: a part runs inline
(``_horner``, the one nested-Horner emitter, which nests the variables by
descending highest exponent, ties by index) unless another part reads a
variable that it does not and it has more than ``_MEMO_TERMS`` terms, and
then runs through its support's ``_compile_horner`` function only when its
coordinates change.  Below that bar a memo's lookup costs more than the
Horner pass a hit skips, and a layout that memoizes nothing keeps no line,
so it answers a point by a short inline pass rather than the line reader.
``_compile_phi`` evaluates a variety's generators at one point (the zero
test's φ) in one function of ``_horner`` statements.  ``_line_codec``
packs a line and reads a restriction's digits, ``_line_reader`` reads a
point off a kept line, and ``_line_test``, the verifiers' line-point test,
reads the entry at t with the reader's Horner statements (``_read_entry``).
Each compiler is cached per shape and compiles through ``_function``, under
a filename holding the shape's digest.  They sit in a module of their own
because compiling a module's source takes memory in proportion to its size:
inside ``poly`` they would make that compile the package's largest and
raise every run's peak memory.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Sequence


def _horner(support: frozenset, nvars: int, tag: str = ""):
    """(statements, order, used) of nested Horner over a nonempty support.

    The statements leave in ``v<tag>0`` the polynomial over Z with the
    coefficient of ``order[i]`` in ``c<tag><i>``, reading the variable x_i
    from ``x<i>`` for i in ``used`` only.  The variables are nested by
    descending highest exponent in the support, ties by index (a measured
    choice: on a certificate's cofactors it runs faster than index order
    for about as many steps), and ``order`` follows that nesting.
    The terms are grouped by their power of the first variable in that
    nesting some of them use (x_var^e's coefficient is a polynomial in the
    later variables), so variables no term uses are never read, and each
    Horner step is one statement multiplying by x_var once.  A coefficient
    that is itself a polynomial is computed first into the next level's
    local (``v<tag><level>``) and then folded in, so the code never nests.
    ``tag`` keeps the locals of several supports apart in one function.
    """
    order: list[tuple[int, ...]] = []
    body: list[str] = []
    used: set[int] = set()
    top = [max(e[i] for e in support) for i in range(nvars)]
    nesting = sorted((i for i in range(nvars) if top[i]), key=lambda i: -top[i])

    def emit(exps: list, start: int, level: int) -> str:
        """Append the statements for the terms ``exps`` in the variables from
        ``nesting[start]`` on; return the name holding their value:
        ``c<tag><i>`` for a lone term with no variable left, else
        ``v<tag><level>``."""
        for pos in range(start, len(nesting)):
            var = nesting[pos]
            if any(e[var] for e in exps):
                break
        else:
            order.append(exps[0])
            return f"c{tag}{len(order) - 1}"
        used.add(var)
        groups: dict[int, list] = {}
        for e in exps:
            groups.setdefault(e[var], []).append(e)
        v = f"v{tag}{level}"
        high = max(groups)
        lead = emit(groups[high], pos + 1, level)
        if lead != v:
            body.append(f"{v} = {lead}")
        for power in range(high - 1, -1, -1):
            if power in groups:
                inner = emit(groups[power], pos + 1, level + 1)
                body.append(f"{v} = {v}*x{var} + {inner}")
            else:
                body.append(f"{v} *= x{var}")
        return v

    lead = emit(list(support), 0, 0)
    if lead != f"v{tag}0":
        body.append(f"v{tag}0 = {lead}")
    return body, order, used


# The size bar of ``_compile_factored``'s memo rule: a part of at most this
# many terms runs inline even where its coordinates can repeat.  It is the
# largest measured part size at which the zero test's reads of a
# certificate ran faster in most runs with the part inline than memoized
# (the crossover recorded in BENCH_answer-overhead.json).
_MEMO_TERMS = 16


def _unpack(names: Sequence[str], source: str) -> str:
    """One statement unpacking ``source`` into ``names``."""
    return ", ".join(names) + f", = {source}"


def _function(args: str, body: list[str], kind: str, shape, namespace: dict):
    """``def f(<args>)`` with the statements ``body``, compiled in
    ``namespace`` under a filename holding ``kind`` and the digest of
    ``shape`` (profiles key generated functions by it)."""
    source = f"def f({args}):\n" + "".join(f"    {line}\n" for line in body)
    name = f"<{kind} {hashlib.sha256(repr(shape).encode()).hexdigest()[:16]}>"
    exec(compile(source, name, "exec"), namespace)
    return namespace["f"]


@functools.lru_cache(maxsize=256)
def _compile_horner(support: frozenset, nvars: int):
    """(f, order) for a memoized part of ``_compile_factored``'s function:
    a nonempty support (set of exponent vectors).

    ``f(C, X)`` is the part over Z at the point X, with C[i] the coefficient
    of ``order[i]``: straight-line nested Horner (``_horner``), reading no
    variable that no term uses.  Compiled once per support, under a filename
    holding the support's digest (profiles keep supports apart), and shared
    by every part with that support.
    """
    body, order, used = _horner(support, nvars)
    head = [_unpack([f"c{i}" for i in range(len(order))], "C")]
    if used:
        head.append(_unpack([f"x{i}" if i in used else "_" for i in range(nvars)], "X"))
    f = _function("C, X", head + body + ["return v0"], "horner", sorted(support), {})
    return f, tuple(order)


@functools.lru_cache(maxsize=256)
def _compile_phi(supports: tuple, nvars: int, q: int):
    """(f, orders) for a variety's embedding φ: the values of its generators,
    given by their nonempty ``supports``, at one point.

    ``f(C, X)`` is the tuple of every generator's value at the point X, each
    reduced mod q once, with C the coefficients of generator k in
    ``orders[k]``, generator after generator, in one flat tuple: straight-line
    nested Horner (``_horner``, its locals tagged per generator), exact on any
    integer coordinates.  X is unpacked whole, so a point of the wrong arity
    raises ValueError.  Compiled once per (supports, nvars, q).
    """
    body: list[str] = []
    names: list[str] = []
    orders = []
    for k, support in enumerate(supports):
        steps, order, _ = _horner(support, nvars, f"{k}_")
        names += [f"c{k}_{i}" for i in range(len(order))]
        body += steps
        orders.append(tuple(order))
    head = [_unpack(names, "C"), _unpack([f"x{i}" for i in range(nvars)], "X")]
    values = "".join(f"v{k}_0 % {q}, " for k in range(len(supports)))
    shape = ([sorted(support) for support in supports], nvars, q)
    f = _function("C, X", head + body + [f"return ({values})"], "phi", shape, {})
    return f, tuple(orders)


@functools.lru_cache(maxsize=256)
def _compile_factored(parts: tuple, products: tuple, nvars: int):
    """(f, orders, memos) for a sum of products of factors of one shape.

    ``parts`` are the distinct non-constant parts of the factors, as
    supports (nonempty sets of nonzero exponent vectors); each factor of
    ``products`` is (part index or None, whether it has a constant term),
    so its value is the part's, plus its constant when it has one, or the
    constant alone (a zero factor is the constant 0).  The coefficient tuple
    C holds, for each part k, the tuple of its coefficients in ``orders[k]``,
    then the factors' constants in product and factor order.

    ``f(C, X, M)`` is the sum of products over Z at the point X:
    straight-line code that runs each part once, so factors that differ
    only in their constant (χ̂, χ̂-1, χ̂+1) share it, then multiplies each
    product and sums them one statement at a time, so nothing nests.  A
    part runs inline as ``_horner`` statements unless another part reads a
    variable that it does not (only then can its coordinates repeat while
    the point changes) and it has more than ``_MEMO_TERMS`` terms (only
    then does a hit save more than the lookup costs): only then is it
    memoized.  A memoized part keeps
    in the list M (two slots per such part, ``memos`` parts in all) the
    coordinates it read and its value, reuses the value while they repeat,
    and otherwise calls the ``_compile_horner`` function of its support;
    so the largest parts (a certificate's cofactors) are compiled one at a
    time, which keeps the peak memory of the compile below their sum.
    Compiled once per shape, under a filename holding its digest.
    """
    names: list[str] = []
    orders = []
    used = [{i for e in support for i in range(nvars) if e[i]} for support in parts]
    used_all = set().union(*used)
    body: list[str] = []
    namespace: dict = {}
    memos = 0
    for k, support in enumerate(parts):
        names.append(f"P{k}")
        v = f"v{k}_0"
        if used[k] == used_all or len(support) <= _MEMO_TERMS:
            steps, order, _ = _horner(support, nvars, f"{k}_")
            body.append(_unpack([f"c{k}_{i}" for i in range(len(order))], f"P{k}"))
            body += steps
        else:
            namespace[f"h{k}"], order = _compile_horner(support, nvars)
            key, value = f"M[{2 * memos}]", f"M[{2 * memos + 1}]"
            body += [f"m = {', '.join(f'x{i}' for i in sorted(used[k]))}",
                     f"if m == {key}:", f"    {v} = {value}", "else:",
                     f"    {v} = h{k}(P{k}, X)", f"    {key} = m", f"    {value} = {v}"]
            memos += 1
        orders.append(tuple(order))
    if not products:
        body.append("s = 0")
    consts = 0
    for i, factors in enumerate(products):
        values = []
        for part, const in factors:
            value = [f"v{part}_0"] if part is not None else []
            if const:
                value.append(f"k{consts}")
                consts += 1
            values.append(" + ".join(value))
        if not i:
            body += [f"s = {values[0]}"] + [f"s *= {v}" for v in values[1:]]
        elif len(values) == 1:
            body.append(f"s += {values[0]}")
        else:
            body += [f"p = {values[0]}"] + [f"p *= {v}" for v in values[1:]] + ["s += p"]
    names += [f"k{i}" for i in range(consts)]
    head = [_unpack(names, "C")] if names else []
    if used_all:
        head.append(_unpack([f"x{i}" if i in used_all else "_" for i in range(nvars)], "X"))
    shape = ([sorted(support) for support in parts], products)
    f = _function("C, X, M", head + body + ["return s"], "factored", shape, namespace)
    return f, tuple(orders), memos


@functools.lru_cache(maxsize=256)
def _line_codec(q: int, width: int, ndigits: int, nvars: int):
    """(pack, read): the Kronecker packing of a line in ``nvars`` variables
    at digit width ``width``, and the read of ``ndigits`` digits mod q.

    ``pack(a, b)`` is the tuple of x_i = a_i % q + (b_i % q << width), and
    ``read(v)`` is the tuple of the low ``ndigits`` base-2^width digits of
    ``v``, each masked (the top one too) and reduced mod q: the coefficients
    of t^0..t^(ndigits-1).  Both are straight-line code, one expression per
    coordinate or digit with q, the width and the mask as literals, compiled
    once per line shape and shared by every polynomial of that shape; the
    width follows the coefficient values (``poly._compile_sum``), so two
    polynomials of one support and cap need not share a codec.
    """
    mask = (1 << width) - 1
    shape = (q, width, ndigits, nvars)
    body = []
    if nvars:
        body = [_unpack([f"a{i}" for i in range(nvars)], "a"),
                _unpack([f"b{i}" for i in range(nvars)], "b")]
    coords = "".join(f"a{i} % {q} + (b{i} % {q} << {width}), " for i in range(nvars))
    pack = _function("a, b", body + [f"return ({coords})"], "line pack", shape, {})
    shifts = [f"v >> {j * width}" if j else "v" for j in range(ndigits)]
    digits = "".join(f"({v} & {mask}) % {q}, " for v in shifts)
    return pack, _function("v", [f"return ({digits})"], "line read", shape, {})


@functools.lru_cache(maxsize=256)
def _line_reader(q: int, ncoeffs: int, nvars: int):
    """``read(L, X)``: the value at the point X of a kept line
    L = (a, b, entry), the entry's ``ncoeffs`` coefficients of t^0, t^1, ...
    read at the t with X = a + t b, or None when X is off the line.

    t comes from the first direction coordinate b_i nonzero mod q, as
    (x_i - a_i)/b_i (at b = 0, t = 0), and X is on the line when
    (a_j + t b_j - x_j) mod q is 0 in every coordinate, so the line and the
    point may be given in any integer form.  The entry is read by Horner over
    Z, one statement per step, and reduced mod q once.  Straight-line code
    with q as a literal, compiled once per (q, ncoeffs, nvars) and shared by
    every polynomial of that shape.
    """
    e = [f"e{j}" for j in range(ncoeffs)]
    if nvars:
        a = "".join(f"a{i}, " for i in range(nvars))
        b = "".join(f"b{i}, " for i in range(nvars))
        body = [f"({a}), ({b}), ({', '.join(e)},) = L",
                _unpack([f"x{i}" for i in range(nvars)], "X")]
        for i in range(nvars):
            body += [f"{'el' if i else ''}if b{i} % {q}:",
                     f"    t = (x{i} - a{i}) * pow(b{i}, -1, {q}) % {q}"]
        body += ["else:", "    t = 0",
                 "if " + " or ".join(f"(a{i} + t * b{i} - x{i}) % {q}" for i in range(nvars)) + ":",
                 "    return None"]
    else:
        body = [f"_, _, ({', '.join(e)},) = L", "t = 0"]
    body += _read_entry(ncoeffs)
    return _function("L, X", body + [f"return v % {q}"], "line reader", (q, ncoeffs, nvars), {})


def _read_entry(ncoeffs: int) -> list[str]:
    """The statements leaving in ``v`` the entry e0 + e1·t + ... over Z, from
    its ``ncoeffs`` coefficients in ``e<j>``: Horner, one statement a step."""
    return [f"v = e{ncoeffs - 1}"] + [f"v = v * t + e{j}" for j in range(ncoeffs - 2, -1, -1)]


@functools.lru_cache(maxsize=256)
def _line_test(q: int, nvars: int, degree: int):
    """``test(point, lines, a, b, t)``: the lines entry for (a, b) if, read
    at t, it equals the point oracle's value at a + t·b, else None, for
    oracles in ``nvars`` variables tagged ``degree``.

    In order: reduce t and raise ValueError at t ≡ 0; raise ValueError unless
    both tags are ``degree`` (so a failing call counts no query); query the
    lines oracle with (a, b) as given, then the point oracle with a + t·b as
    a tuple of residues; read the entry by Horner over Z, reduced once.
    ``query`` is looked up at every call, never kept, since a tracer may
    patch it.  Straight-line code with q and the degree as literals,
    compiled once per (q, nvars, degree).
    """
    body = [f"t %= {q}", "if not t:",
            "    raise ValueError('t must be a nonzero field element')",
            f"if lines.degree != {degree} or point.degree != {degree}:",
            "    raise ValueError('oracle degree tags disagree with the test degree')",
            "entry = lines.query(a, b)"]
    if nvars:
        body += [_unpack([f"a{i}" for i in range(nvars)], "a"),
                 _unpack([f"b{i}" for i in range(nvars)], "b")]
    coords = "".join(f"(a{i} + t * b{i}) % {q}, " for i in range(nvars))
    body += [f"value = point.query(({coords}))",
             _unpack([f"e{j}" for j in range(degree + 1)], "entry")]
    body += _read_entry(degree + 1) + [f"return entry if v % {q} == value else None"]
    return _function("point, lines, a, b, t", body, "line test", (q, nvars, degree), {})
