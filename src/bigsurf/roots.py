"""Root systems of even negative definite lattices.

The lattices are complements of the anticanonical components, where
K.x = 0, so adjunction (x^2 + K.x = 2 p_a(x) - 2) makes them even: a root
has square -2, finitely many lie in a negative definite lattice, and they
form a simply-laced root system whose components are of type A, D or E.
One rule names them all: T_{p,q,r}, three chains of p - 1, q - 1 and
r - 1 nodes joined at one centre, is of finite type iff
1/p + 1/q + 1/r > 1 (Manin, Cubic Forms, sections 23-26).  The
expected-count cross-check turns any recognition slip into a hard error
rather than a wrong answer.
"""

from __future__ import annotations

import bisect
import operator
from itertools import chain
from typing import Sequence

from .bigness import orthogonal_complement
from .errors import DomainError, InvariantError
from .linalg import _INT, _symmetric_int_rows, short_vectors
from .picard import PointConfiguration, _components, _set, config_lattice
from .report import Report

Vec = tuple[int, ...]
Gram = Sequence[Sequence[int]]
Component = tuple[str, int]


class RootSystemReport(Report):
    """Roots of a lattice with their classification.

    graph lists the Coxeter edges between simple roots as (i, j, bond)
    with 0-based indices into simple_roots; the system is simply laced, so
    the bond is always 1, kept so that the report's layout stays the same.
    """

    _fields = __slots__ = ("roots", "simple_roots", "cartan", "components", "graph")

    def __init__(self, roots: tuple[Vec, ...], simple_roots: tuple[Vec, ...],
                 cartan: tuple[tuple[int, ...], ...], components: tuple[Component, ...],
                 graph: tuple[tuple[int, int, int], ...]):
        _set(self, "roots", roots)
        _set(self, "simple_roots", simple_roots)
        _set(self, "cartan", cartan)
        _set(self, "components", components)
        _set(self, "graph", graph)

    @property
    def rank(self) -> int:
        return len(self.simple_roots)


def extract_roots(gram: Gram) -> list[Vec]:
    """All vectors of square -1 or -2, both signs, in lexicographic order:
    the roots of an even form (classify rejects an odd form's vectors).
    Raises NotNegativeDefiniteError, from the elimination inside
    short_vectors, when the form is not negative definite."""
    return short_vectors(gram, 2)


def expected_root_count(family: str, rank: int) -> int:
    """Number of roots of the simply-laced root system of the given type."""
    if family == "A":
        return rank * (rank + 1)
    if family == "D":
        return 2 * rank * (rank - 1)
    if family == "E" and rank in (6, 7, 8):
        return {6: 72, 7: 126, 8: 240}[rank]
    raise ValueError(f"unknown root-system type {family}{rank}")


def _reach(start: int, adjacent: list[list[int]], seen: set[int]) -> list[int]:
    """The nodes start reaches without entering seen, start first, added to seen."""
    nodes = [start]
    seen.add(start)
    for u in nodes:
        fresh = [v for v in adjacent[u] if v not in seen]
        seen.update(fresh)
        nodes += fresh
    return nodes


def _recognize(nodes: list[int], adjacent: list[list[int]]) -> Component:
    """Name a connected Dynkin component as T_{p,q,r}; an arm is what a hub neighbour reaches."""
    n = len(nodes)
    if sum(len(adjacent[u]) for u in nodes) != 2 * (n - 1):
        raise InvariantError("component graph is not a tree; lattice cannot be finite type")
    branch = [u for u in nodes if len(adjacent[u]) >= 3]
    if not branch:
        return ("A", n)
    if len(branch) > 1 or len(adjacent[branch[0]]) > 3:
        raise InvariantError("branching beyond a single degree-3 node; not a finite type")
    seen = {branch[0]}
    arms = sorted(len(_reach(v, adjacent, seen)) for v in adjacent[branch[0]])
    found = _t_type(*(length + 1 for length in arms))
    if found is None:
        raise InvariantError(f"branched diagram with arms {arms}; not a finite type")
    return found[0]


def _normalize(components: list[Component]) -> tuple[Component, ...]:
    kept = [(f, r) for f, r in components if r >= 1]
    return tuple(sorted(kept, key=lambda c: (-c[1], c[0])))


def _t_type(p: int, q: int, r: int) -> tuple[Component, ...] | None:
    """The type of T_{p,q,r}, entries in any order; None for an infinite
    type or a negative entry.  Sorted, p = 0 drops the centre (A_{q-1} +
    A_{r-1}), p = 1 is A_{q+r-1}, T_{2,2,r} D_{r+2} and T_{2,3,r<=5} E_{r+3}."""
    p, q, r = sorted((p, q, r))
    if p in (0, 1):
        return _normalize([("A", q - 1), ("A", r - 1)] if p == 0 else [("A", q + r - 1)])
    if (p, q) == (2, 2):
        return (("D", r + 2),)
    if (p, q) == (2, 3) and r <= 5:
        return (("E", r + 3),)
    return None


def _combination(rows: Sequence[Sequence[int]], terms: Sequence[tuple[int, int]]) -> list[int]:
    """sum(c * rows[i]) over the terms (i, c), of which there is at least one."""
    return list(map(sum, zip(*[[c * x for x in rows[i]] for i, c in terms])))


def classify(roots: Sequence[Sequence[int]], gram: Gram) -> RootSystemReport:
    """Classify a complete, negation-closed root list into Cartan types.

    Positive roots are the lexicographically positive ones.  They are
    walked in ascending lex order, and a root alpha is simple iff
    alpha - beta is not a root for every simple beta already found.  Lex
    order on Z^n is a total order compatible with addition, so a
    decomposition alpha = beta + gamma into positive roots puts beta before
    alpha.  Every non-simple positive root has a simple beta with
    alpha - beta a positive root, while the difference of two simple roots
    is never a root (Humphreys, Lie Algebras, sections 10.1-10.2).  This
    costs O(|positive roots| * rank) set lookups.

    Each root v is packed into one integer c(v) = sum_i v_i B^(n-1-i) with
    B = 4M + 1, M the largest |coordinate|.  c is linear, so
    c(alpha) - c(beta) = c(alpha - beta).  If |d_i| < B for every i, then
    c(d) = 0 forces d = 0 (d_{n-1} is divisible by B, hence 0; divide by B
    and repeat); a root difference alpha - beta - gamma has |d_i| <= 3M < B,
    so c is injective on roots and c(alpha) - c(beta) is the code of a root
    iff alpha - beta is that root.  If |d_i| <= 2M < B - 1, the first
    nonzero d_i outweighs the rest, |sum_{j>i} d_j B^(n-1-j)| < B^(n-1-i),
    so c(d) has the sign of the first nonzero d_i: c orders the roots as
    lex order does and c(v) > 0 iff v is lex-positive.  Duplicates,
    closure under negation, positivity and the simple-root test are
    therefore each one integer operation and one set lookup.

    Root coordinates are integers (a Fraction or float raises TypeError).
    Roots given as tuples of exact ints, as extract_roots returns them,
    are kept as they are, so the report holds the same objects; anything
    else (a list, bool or numpy int coordinates) is converted to an int
    tuple by operator.index.  A root of the wrong dimension, a duplicate,
    the zero vector or a list not closed under negation raises ValueError.

    The gram is an int matrix, as for short_vectors.  With every simple
    root of square -2 the Cartan matrix, 2 (s_i, s_j) / (s_j, s_j), is minus
    the Gram of the simple roots; any other square (an odd form) raises
    DomainError.  One adjacency list of the Dynkin diagram and one reach
    walk (_reach) give its components and their T_{p,q,r} arms.

    The sum of the catalog root counts of the recognized components must
    reproduce the input size exactly; any mismatch raises InvariantError,
    since finite-type recognition on a negative definite lattice cannot
    legitimately disagree with the enumeration.
    """
    gram = _symmetric_int_rows(gram)
    vecs = list(roots)
    # one pass over the types decides whether any root needs converting
    if not (set(map(type, vecs)) <= {tuple}
            and set(map(type, chain.from_iterable(vecs))) <= _INT):
        vecs = [tuple([*map(operator.index, v)]) for v in vecs]
    n = len(gram)
    if any(len(v) != n for v in vecs):
        raise ValueError(f"every root must have the Gram's dimension {n}")
    if not vecs:
        return RootSystemReport((), (), (), (), ())
    coords = set(chain.from_iterable(vecs))
    big = max(max(coords), -min(coords)) if coords else 0
    powers = [(4 * big + 1) ** (n - 1 - i) for i in range(n)]
    by_code = {sum(map(operator.mul, v, powers)): v for v in vecs}
    if len(by_code) != len(vecs):
        raise ValueError("duplicate roots in input")
    if 0 in by_code:
        raise ValueError("the zero vector is not a root")
    codes = sorted(by_code)
    is_root = by_code.__contains__
    if not all(map(is_root, map(operator.neg, codes))):
        raise ValueError("root list is not closed under negation")

    simple_codes: list[int] = []
    for alpha in codes[bisect.bisect_right(codes, 0):]:
        if not any(map(is_root, map(alpha.__sub__, simple_codes))):
            simple_codes.append(alpha)
    simple = [by_code[c] for c in simple_codes]

    # pair over each simple root's nonzero coordinates: the columns of the
    # G.s_j, combined along -s_i, give row i of the Cartan matrix, -s_i.G.s_j
    supports = [[(i, c) for i, c in enumerate(s) if c] for s in simple]
    columns = list(zip(*[_combination(gram, terms) for terms in supports]))
    cartan = [_combination(columns, [(i, -c) for i, c in terms]) for terms in supports]
    k = len(simple)
    if any(cartan[i][i] != 2 for i in range(k)):
        raise DomainError("a simple root has square other than -2: not an even form's roots")
    if any(x not in (0, -1) for i, row in enumerate(cartan) for x in row[i + 1:]):
        raise InvariantError("off-diagonal Cartan entry outside {0, -1} among simple roots")

    adjacent = [[j for j, x in enumerate(row) if x and j != i] for i, row in enumerate(cartan)]
    seen: set[int] = set()
    # each start is tested after the walks before it have grown seen
    components = [_recognize(_reach(start, adjacent, seen), adjacent)
                  for start in range(k) if start not in seen]

    expected = sum(expected_root_count(f, r) for f, r in components)
    if expected != len(codes):
        raise InvariantError(
            f"root count {len(codes)} does not match classified type "
            f"(expected {expected}); enumeration and recognition disagree")

    graph = tuple((i, j, 1) for i in range(k) for j in adjacent[i] if j > i)
    return RootSystemReport(tuple(map(by_code.__getitem__, codes)), tuple(simple),
                            tuple(tuple(row) for row in cartan),
                            _normalize(components), graph)


def predicted_type(config: PointConfiguration) -> tuple[Component, ...] | None:
    """Root-system type of the configuration's complement lattice: that of
    T_{p,q,r} (_t_type) at the model's arm triple `config.arms`, shared
    points aside.

    None when the configuration is not big, or when its simple roots fail
    to span the complement (fewer of them than its rank, or a Cartan
    determinant other than the complement's), except for Generic(1) and
    Generic(2), whose roots do not span either but get () and A1.
    """
    return _t_type(*config.arms)


def type_string(components: Sequence[Component]) -> str:
    if not components:
        return "0"
    return "+".join(f"{family}{rank}" for family, rank in components)


def root_lattice_of_config(config: PointConfiguration) -> tuple[list[Vec], list[list[int]]]:
    """Orthogonal complement of the anticanonical components (-K alone for
    general points), as (basis, gram): negative definite exactly when the
    configuration is big, which extract_roots decides."""
    lattice = config_lattice(config)
    return orthogonal_complement(lattice, list(_components(lattice, config)))


def coxeter_dot(report: RootSystemReport) -> str:
    """Graphviz DOT rendering of the Coxeter graph of the simple roots."""
    lines = ["graph coxeter {"]
    for i in range(report.rank):
        lines.append(f'  "eps{i + 1}";')
    for i, j, _ in report.graph:
        lines.append(f'  "eps{i + 1}" -- "eps{j + 1}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
