"""Scoped environments and the compilation context.

Environments are immutable chained scopes (extending returns a new scope),
which suits attribute-grammar evaluation: the same tree region can be
decorated with different environments without interference.

The :class:`CompileContext` carries cross-cutting compilation state: the
fresh-name supply, functions lifted out of parallel constructs (paper
§III-A.5: "we actually lift this out into a new function so that the
spawned threads can get direct access to it"), the selected optimizations,
and which runtime features the generated program needs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.cminus.types import OverloadTable, Type


@dataclass(frozen=True, slots=True)
class Binding:
    name: str
    type: Type
    kind: str = "var"  # "var" | "func" | "param" | "index"


class Env:
    """An immutable chain of scopes."""

    __slots__ = ("_bindings", "_parent")

    def __init__(self, bindings: dict[str, Binding] | None = None,
                 parent: "Env | None" = None):
        self._bindings = bindings or {}
        self._parent = parent

    def lookup(self, name: str) -> Binding | None:
        env: Env | None = self
        while env is not None:
            b = env._bindings.get(name)
            if b is not None:
                return b
            env = env._parent
        return None

    def defined_here(self, name: str) -> bool:
        return name in self._bindings

    def extended(self, bindings: list[Binding]) -> "Env":
        """A child view with additional bindings in the *current* scope
        frame (shadowing allowed against outer frames only)."""
        merged = dict(self._bindings)
        for b in bindings:
            merged[b.name] = b
        return Env(merged, self._parent)

    def new_scope(self, bindings: list[Binding] | None = None) -> "Env":
        return Env({b.name: b for b in (bindings or [])}, self)

    def names(self) -> Iterator[str]:
        env: Env | None = self
        seen: set[str] = set()
        while env is not None:
            for n in env._bindings:
                if n not in seen:
                    seen.add(n)
                    yield n
            env = env._parent


@dataclass
class Optimizations:
    """High-level optimization switches (§III-A.4) — all on by default;
    the ablation benchmarks flip them off."""

    fuse_assignment: bool = True      # with-loop writes directly into LHS
    eliminate_slices: bool = True     # fold over mat[i,j,:] without a copy
    parallelize: bool = True          # emit pool-parallel outer loops
    #: mid-level IR pipeline (S28): 0 = off, 1 = fold/copy-prop/CSE/DCE,
    #: 2 = + LICM and strength reduction.  Folded into every translator
    #: fingerprint (generic field enumeration), so cached artifacts and
    #: analysis reports can never cross opt levels.
    opt_level: int = 2


@dataclass
class CompileContext:
    """Mutable per-compilation state, threaded as an inherited attribute."""

    overloads: OverloadTable = field(default_factory=OverloadTable)
    options: Optimizations = field(default_factory=Optimizations)
    lifted: list[Any] = field(default_factory=list)  # lifted Node functions
    runtime_features: set[str] = field(default_factory=set)
    _counter: itertools.count = field(default_factory=itertools.count)

    def gensym(self, hint: str = "t") -> str:
        return f"__{hint}{next(self._counter)}"

    def lift_function(self, func_node: Any) -> None:
        self.lifted.append(func_node)

    def need(self, feature: str) -> None:
        """Record that the generated program uses a runtime feature
        ("matrix", "pool", "regions", "refcount", "io", ...)."""
        self.runtime_features.add(feature)
