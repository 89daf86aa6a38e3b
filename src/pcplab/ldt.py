"""Point-vs-line low-degree test and the local corrector.

Both are pure decision functions of explicit randomness: given oracles for a
function and its claimed lines table, compare the table entry along one line
against the point value at one position on that line.  Each makes exactly two
oracle queries.  The corrector additionally returns the entry's value at t=0,
i.e. the (corrected) value at the line's base point, when the check passes.

``ldt_check`` allocates nothing: it returns one of the two module-level
frozen verdicts ``ACCEPT`` and ``REJECT``, shared by every call.  The point
a + t·b is handed to the point oracle unreduced; the oracle reduces it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .oracles import LinesOracle, PointOracle
from .poly import eval_entry


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    value: int | None = None  # corrected value; present iff the corrector accepted

    def __bool__(self) -> bool:
        return self.accepted


ACCEPT = Verdict(True)
REJECT = Verdict(False)


def _consistent_entry(degree: int, f: PointOracle, flines: LinesOracle,
                      a: Sequence[int], b: Sequence[int], t: int) -> tuple[int, ...] | None:
    """The lines entry for (a, b) if it matches f(a+tb) at t, else None: one
    lines query, then one point query."""
    q = f.field.q
    t %= q
    if t == 0:
        raise ValueError("t must be a nonzero field element")
    if flines.degree != degree or f.degree != degree:
        raise ValueError("oracle degree tags disagree with the test degree")
    entry = flines.query(a, b)
    value = f.query(tuple([x + t * y for x, y in zip(a, b)]))
    return entry if eval_entry(entry, t, q) == value else None


def ldt_check(degree: int, f: PointOracle, flines: LinesOracle,
              a: Sequence[int], b: Sequence[int], t: int) -> Verdict:
    """Accept iff the lines entry for (a,b), evaluated at t, matches f(a+tb).

    t must be nonzero; b = 0 is fine (a constant line, trivially consistent
    for honest tables).
    """
    return REJECT if _consistent_entry(degree, f, flines, a, b, t) is None else ACCEPT


def local_correct(degree: int, f: PointOracle, flines: LinesOracle,
                  alpha: Sequence[int], b: Sequence[int], t: int) -> Verdict:
    """Correct f at alpha through the line alpha + t b.

    Checks the lines entry against f at position t; on agreement returns the
    entry's constant coefficient (its value at t=0, i.e. at alpha itself).
    """
    entry = _consistent_entry(degree, f, flines, alpha, b, t)
    return REJECT if entry is None else Verdict(True, entry[0])
