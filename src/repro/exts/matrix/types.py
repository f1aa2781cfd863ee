"""Matrix type representations (paper §III-A.1).

``Matrix (int|bool|float) <rank>`` — elements restricted to int, bool and
float exactly as the paper states.  ``TAnyMatrix`` is the wildcard return
type of ``readMatrix`` (rank and element kind are carried in the file and
checked at runtime against the declared type).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cminus.types import FLOAT, INT, TBool, TFloat, TInt, Type


@dataclass(frozen=True, slots=True)
class TMatrix(Type):
    elem: Type
    rank: int

    managed = True

    def __str__(self) -> str:
        return f"Matrix {self.elem} <{self.rank}>"

    def is_float(self) -> bool:
        return isinstance(self.elem, TFloat)


@dataclass(frozen=True, slots=True)
class TAnyMatrix(Type):
    """Wildcard matrix type (readMatrix's return); rank checked at runtime."""

    managed = True

    def __str__(self) -> str:
        return "Matrix ? <?>"


ANY_MATRIX = TAnyMatrix()

VALID_ELEMS = (TInt, TFloat, TBool)


def is_matrix(t: Type) -> bool:
    return isinstance(t, (TMatrix, TAnyMatrix))


def elem_unify(a: Type, b: Type) -> Type:
    """Element type of mixed arithmetic (int⊕float→float, bool→int)."""
    if isinstance(a, TFloat) or isinstance(b, TFloat):
        return FLOAT
    return INT


def getter(elem: Type) -> str:
    return "rt_getf" if isinstance(elem, TFloat) else "rt_geti"


def setter(elem: Type) -> str:
    return "rt_setf" if isinstance(elem, TFloat) else "rt_seti"


def allocator(elem: Type) -> str:
    return "rt_allocf" if isinstance(elem, TFloat) else "rt_alloci"
