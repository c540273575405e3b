"""Bidegrees, bigraded dimension tables, and the two shift operators.

A bidegree is a plain tuple (i, j): i the cohomological degree, j the
internal degree.  The project-wide shift convention, printed by the CLI in
every report header, is

    M[a]<b> in bidegree (i, j)  =  M in bidegree (i + a, j - b)

so [1] shifts against the cohomological index and <1> shifts with the
internal index.  Every identity downstream is stated and tested relative to
this single choice.
"""

from __future__ import annotations

Bidegree = tuple[int, int]

SHIFT_CONVENTION = "M[a]<b>^i_j = M^{i+a}_{j-b}"


def bidegree_add(x: Bidegree, y: Bidegree) -> Bidegree:
    return (x[0] + y[0], x[1] + y[1])


def bidegree_sub(x: Bidegree, y: Bidegree) -> Bidegree:
    return (x[0] - y[0], x[1] - y[1])


class BigradedDims:
    """Sparse table bidegree -> positive dimension; absent keys are 0."""

    __slots__ = ("table",)

    def __init__(self, table=None):
        self.table = {}
        if table:
            for key, dim in dict(table).items():
                self[tuple(key)] = dim

    def __getitem__(self, key: Bidegree) -> int:
        return self.table.get(tuple(key), 0)

    def __setitem__(self, key: Bidegree, dim: int):
        if dim < 0:
            raise ValueError(f"dimension must be nonnegative, got {dim} at {key}")
        key = tuple(key)
        if dim == 0:
            self.table.pop(key, None)
        else:
            self.table[key] = int(dim)

    def add(self, key: Bidegree, dim: int):
        self[key] = self[key] + dim

    def __eq__(self, other) -> bool:
        return isinstance(other, BigradedDims) and self.table == other.table

    def __bool__(self) -> bool:
        return bool(self.table)

    def __iter__(self):
        return iter(sorted(self.table))

    def total(self) -> int:
        return sum(self.table.values())

    def copy(self) -> "BigradedDims":
        return BigradedDims(self.table)

    def shift(self, a: int, b: int) -> "BigradedDims":
        """Table of M[a]<b>: entry (i, j) reads the old (i + a, j - b)."""
        return BigradedDims({(i - a, j + b): d for (i, j), d in self.table.items()})

    def dual(self) -> "BigradedDims":
        """Table of the k-linear dual: (i, j) -> old (-i, -j)."""
        return BigradedDims({(-i, -j): d for (i, j), d in self.table.items()})

    def restrict(self, window) -> "BigradedDims":
        return BigradedDims(
            {bd: d for bd, d in self.table.items() if window.contains(bd)}
        )

    def __add__(self, other: "BigradedDims") -> "BigradedDims":
        out = self.copy()
        for bd, d in other.table.items():
            out.add(bd, d)
        return out

    def to_triples(self) -> list[list[int]]:
        """Canonical serialization: [i, j, dim] sorted lexicographically."""
        return [[i, j, self.table[(i, j)]] for (i, j) in sorted(self.table)]

    def __repr__(self):
        return f"BigradedDims({self.to_triples()})"


class Window:
    """Closed bidegree rectangle [i0, i1] x [j0, j1]."""

    __slots__ = ("i0", "i1", "j0", "j1")

    def __init__(self, i0: int, i1: int, j0: int, j1: int):
        if i0 > i1 or j0 > j1:
            raise ValueError(f"empty window {i0}:{i1},{j0}:{j1}")
        self.i0, self.i1, self.j0, self.j1 = i0, i1, j0, j1

    def contains(self, bd: Bidegree) -> bool:
        return self.i0 <= bd[0] <= self.i1 and self.j0 <= bd[1] <= self.j1

    def enlarge(self, di: int, dj: int) -> "Window":
        return Window(self.i0 - di, self.i1 + di, self.j0 - dj, self.j1 + dj)

    def union(self, other: "Window") -> "Window":
        return Window(
            min(self.i0, other.i0),
            max(self.i1, other.i1),
            min(self.j0, other.j0),
            max(self.j1, other.j1),
        )

    def negate(self) -> "Window":
        return Window(-self.i1, -self.i0, -self.j1, -self.j0)

    def as_tuple(self):
        return (self.i0, self.i1, self.j0, self.j1)

    def __eq__(self, other):
        return isinstance(other, Window) and self.as_tuple() == other.as_tuple()

    def __repr__(self):
        return f"Window(i={self.i0}:{self.i1}, j={self.j0}:{self.j1})"

    @classmethod
    def hull(cls, bidegrees) -> "Window":
        bds = list(bidegrees)
        if not bds:
            return cls(0, 0, 0, 0)
        return cls(
            min(b[0] for b in bds),
            max(b[0] for b in bds),
            min(b[1] for b in bds),
            max(b[1] for b in bds),
        )
