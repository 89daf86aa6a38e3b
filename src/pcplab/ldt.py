"""Point-vs-line low-degree test and the local corrector.

Both are pure decision functions of explicit randomness: given oracles for a
function and its claimed lines table, compare the table entry along one line
against the point value at one position on that line.  Each makes exactly two
oracle queries.  The corrector additionally returns the entry's value at t=0,
i.e. the (corrected) value at the line's base point, when the check passes.

Both run the line test generated for their (q, arity, degree)
(``codegen._line_test``): t and the degree tags are checked before any
query, and the lines oracle is queried first, because a ``FactoredPoly``
answers the point from the line it has just restricted.  The point a + t·b
is handed to the point oracle reduced, as a tuple of residues, so a
table-backed oracle answers it with one lookup; a lazy oracle hands it to
its answer function as it is, which is exact on any integer coordinates.
The line (a, b) goes to the lines oracle as given.

``ldt_check`` allocates no verdict: it returns one of the two module-level
verdicts ``ACCEPT`` and ``REJECT``, shared by every call (a ``Verdict`` is
an immutable named tuple).  ``local_correct`` shares ``REJECT`` too, and
builds an accepting verdict, which carries its value, with
``tuple.__new__(Verdict, ...)``: the same class and fields as
``Verdict(True, value)``, without the Python-level constructor.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .codegen import _line_test
from .oracles import LinesOracle, PointOracle


class Verdict(NamedTuple):
    accepted: bool
    value: int | None = None  # corrected value; present iff the corrector accepted

    def __bool__(self) -> bool:
        """``accepted``, not the tuple's length."""
        return self.accepted


ACCEPT = Verdict(True)
REJECT = Verdict(False)


def ldt_check(degree: int, f: PointOracle, flines: LinesOracle,
              a: Sequence[int], b: Sequence[int], t: int) -> Verdict:
    """Accept iff the lines entry for (a,b), evaluated at t, matches f(a+tb).

    t must be nonzero; b = 0 is fine (a constant line, trivially consistent
    for honest tables).
    """
    return REJECT if _line_test(f.field.q, len(a), degree)(f, flines, a, b, t) is None else ACCEPT


def local_correct(degree: int, f: PointOracle, flines: LinesOracle,
                  alpha: Sequence[int], b: Sequence[int], t: int) -> Verdict:
    """Correct f at alpha through the line alpha + t b.

    Checks the lines entry against f at position t; on agreement returns the
    entry's constant coefficient (its value at t=0, i.e. at alpha itself).
    """
    entry = _line_test(f.field.q, len(alpha), degree)(f, flines, alpha, b, t)
    return REJECT if entry is None else tuple.__new__(Verdict, (True, entry[0]))
