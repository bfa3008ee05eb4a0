"""Root systems of negative definite lattices.

A root is a lattice vector of square -1 or -2.  In a negative definite
lattice there are finitely many; they form a finite root system inside the
span, so each connected component of the simple-root graph matches one of
the classical Cartan types.  The classifier recognizes the full catalog
(A, B, C, D, E, F, G) from the Cartan matrix alone; lattices arising from
surface configurations only ever produce the simply-laced types, and the
expected-count cross-check turns any recognition slip into a hard error
rather than a wrong answer.
"""

from __future__ import annotations

import bisect
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Sequence

from .bigness import orthogonal_complement
from .errors import DomainError, InvariantError, NotNegativeDefiniteError
from .linalg import is_negative_definite, short_vectors
from .picard import (
    Generic,
    LineConic,
    PointConfiguration,
    ThreeLines,
    _components,
    config_lattice,
)

Vec = tuple[int, ...]
Gram = Sequence[Sequence[int | Fraction]]
Component = tuple[str, int]


@dataclass(frozen=True)
class RootSystemReport:
    """Roots of a lattice with their classification.

    graph lists the Coxeter edges between simple roots as (i, j, bond)
    with 0-based indices into simple_roots and bond = product of the two
    off-diagonal Cartan entries (1 single, 2 double, 3 triple).
    """

    roots: tuple[Vec, ...]
    simple_roots: tuple[Vec, ...]
    cartan: tuple[tuple[int, ...], ...]
    components: tuple[Component, ...]
    graph: tuple[tuple[int, int, int], ...]

    @property
    def rank(self) -> int:
        return len(self.simple_roots)

    @property
    def root_count(self) -> int:
        return len(self.roots)


def extract_roots(gram: Gram) -> list[Vec]:
    """All vectors of square -1 or -2, both signs, in lexicographic order.

    Raises NotNegativeDefiniteError, from the elimination inside
    short_vectors, when the form is not negative definite."""
    return short_vectors(gram, 2)


def expected_root_count(family: str, rank: int) -> int:
    """Number of roots of the finite root system of the given type."""
    if family == "A":
        return rank * (rank + 1)
    if family in ("B", "C"):
        return 2 * rank * rank
    if family == "D":
        return 2 * rank * (rank - 1)
    if family == "E" and rank in (6, 7, 8):
        return {6: 72, 7: 126, 8: 240}[rank]
    if family == "F" and rank == 4:
        return 48
    if family == "G" and rank == 2:
        return 12
    raise ValueError(f"unknown root-system type {family}{rank}")


def _recognize(nodes: list[int], cartan: list[list[int]],
               degree: dict[int, int]) -> Component:
    """Match one connected Coxeter component against the finite-type catalog."""
    n = len(nodes)
    edges = [(u, v, cartan[u][v] * cartan[v][u])
             for i, u in enumerate(nodes) for v in nodes[i + 1:] if cartan[u][v]]
    if len(edges) != n - 1:
        raise InvariantError("component graph is not a tree; lattice cannot be finite type")
    multiple = [(u, v, m) for u, v, m in edges if m > 1]
    if any(m > 3 for _, _, m in multiple):
        raise InvariantError("Coxeter bond of multiplicity > 3; not a finite type")
    branch = [u for u in nodes if degree[u] >= 3]
    if any(m == 3 for _, _, m in multiple):
        if n == 2 and len(multiple) == 1:
            return ("G", 2)
        raise InvariantError("triple bond outside rank 2; not a finite type")
    if multiple:
        if len(multiple) > 1 or branch:
            raise InvariantError("double bonds in a non-path arrangement; not a finite type")
        u, v, _ = multiple[0]
        if n == 2:
            return ("B", 2)
        u_leaf, v_leaf = degree[u] == 1, degree[v] == 1
        if not u_leaf and not v_leaf:
            if n == 4:
                return ("F", 4)
            raise InvariantError("interior double bond outside rank 4; not a finite type")
        leaf, inner = (u, v) if u_leaf else (v, u)
        # cartan[inner][leaf] = 2(inner.leaf)/(leaf.leaf): value -2 means the
        # leaf is the short root (type B); -1 means it is long (type C)
        return ("B", n) if cartan[inner][leaf] == -2 else ("C", n)
    if not branch:
        return ("A", n)
    if len(branch) > 1 or degree[branch[0]] > 3:
        raise InvariantError("branching beyond a single degree-3 node; not a finite type")
    hub = branch[0]
    arms = []
    for start in (v for v in nodes if cartan[hub][v] and v != hub):
        length, prev, cur = 1, hub, start
        while True:
            nxt = [w for w in nodes if cartan[cur][w] and w not in (prev, cur)]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    arms.sort()
    if arms[:2] == [1, 1]:
        return ("D", n)
    if arms == [1, 2, 2]:
        return ("E", 6)
    if arms == [1, 2, 3]:
        return ("E", 7)
    if arms == [1, 2, 4]:
        return ("E", 8)
    raise InvariantError(f"branched diagram with arms {arms}; not a finite type")


def _normalize(components: list[Component]) -> tuple[Component, ...]:
    kept = [(f, r) for f, r in components if r >= 1]
    return tuple(sorted(kept, key=lambda c: (-c[1], c[0])))


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

    Cartan entries 2 (s_i, s_j) / (s_j, s_j) are exact: G s_j is formed
    once per simple root, each pairing is one dot product with it, and
    divmod, exact on int and Fraction alike, checks the quotient is an
    integer.

    The sum of the catalog root counts of the recognized components must
    reproduce the input size exactly; any mismatch raises InvariantError,
    since finite-type recognition on a negative definite lattice cannot
    legitimately disagree with the enumeration.
    """
    vecs = [tuple(map(int, v)) for v in roots]
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
    codes = sorted(by_code)
    is_root = by_code.__contains__
    if not all(map(is_root, map(operator.neg, codes))):
        raise ValueError("root list is not closed under negation")

    simple_codes: list[int] = []
    for alpha in codes[bisect.bisect_right(codes, 0):]:
        if not any(map(is_root, map(alpha.__sub__, simple_codes))):
            simple_codes.append(alpha)
    simple = [by_code[c] for c in simple_codes]

    g_simple = [[sum(map(operator.mul, row, s)) for row in gram] for s in simple]
    norms = [sum(map(operator.mul, s, gs)) for s, gs in zip(simple, g_simple)]
    k = len(simple)
    cartan: list[list[int]] = [[0] * k for _ in range(k)]
    for i in range(k):
        cartan[i][i] = 2
        for j in range(k):
            if i == j:
                continue
            entry, rest = divmod(2 * sum(map(operator.mul, simple[i], g_simple[j])), norms[j])
            if rest:
                raise InvariantError("non-integral Cartan entry; input is not a root system")
            cartan[i][j] = entry
            if entry > 0:
                raise InvariantError("positive off-diagonal Cartan entry among simple roots")

    degree = {i: sum(1 for j in range(k) if j != i and cartan[i][j]) for i in range(k)}
    seen: set[int] = set()
    components: list[Component] = []
    for start in range(k):
        if start in seen:
            continue
        stack, nodes = [start], []
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            nodes.append(u)
            stack.extend(j for j in range(k) if j != u and cartan[u][j] and j not in seen)
        components.append(_recognize(sorted(nodes), cartan, degree))

    expected = sum(expected_root_count(f, r) for f, r in components)
    if expected != len(codes):
        raise InvariantError(
            f"root count {len(codes)} does not match classified type "
            f"(expected {expected}); enumeration and recognition disagree")

    graph = tuple((i, j, cartan[i][j] * cartan[j][i])
                  for i in range(k) for j in range(i + 1, k) if cartan[i][j])
    return RootSystemReport(tuple(map(by_code.__getitem__, codes)), tuple(simple),
                            tuple(tuple(row) for row in cartan),
                            _normalize(components), graph)


def predicted_type(config: PointConfiguration) -> tuple[Component, ...] | None:
    """Tabulated root-system type of the configuration's complement lattice.

    Returns None for configurations the table does not cover (those whose
    roots fail to span the complement).  Three-line counts are considered
    in weakly decreasing order; intersection flags never matter.
    """
    if isinstance(config, Generic):
        raise DomainError("no table prediction for points in general position")
    if isinstance(config, LineConic):
        a, b = config.a, config.b
        if a * b == 0:
            return _normalize([("A", a + b - 1)])
        if b == 2:
            return _normalize([("A", a), ("A", 1)])
        if b == 3:
            return _normalize([("A", a + 2)])
        if b == 4 or (a == 1 and b >= 4):
            return _normalize([("D", a + b - 1)])
        if (a, b) == (2, 5):
            return (("E", 6),)
        if (a, b) in ((3, 5), (2, 6)):
            return (("E", 7),)
        if (a, b) in ((4, 5), (2, 7)):
            return (("E", 8),)
        return None
    if isinstance(config, ThreeLines):
        a1, a2, a3 = sorted(config.counts, reverse=True)
        if a3 == 0:
            return _normalize([("A", a1 - 1), ("A", a2 - 1)])
        if a3 == 1:
            return _normalize([("A", a1 + a2 - 1)])
        if a2 == a3 == 2:
            return (("D", a1 + 2),)
        if a2 == 3 and a3 == 2 and 3 <= a1 <= 5:
            return (("E", a1 + 3),)
        return None
    raise TypeError(f"not a point configuration: {config!r}")


def type_string(components: Sequence[Component]) -> str:
    if not components:
        return "0"
    return "+".join(f"{family}{rank}" for family, rank in components)


def root_lattice_of_config(config: PointConfiguration) -> tuple[list[Vec], list[list[int]]]:
    """Orthogonal complement of the anticanonical components, as
    (basis, gram); defined exactly when the configuration is big."""
    lattice = config_lattice(config)
    basis, gram = orthogonal_complement(lattice, list(_components(lattice, config)))
    if not is_negative_definite(gram):
        raise NotNegativeDefiniteError(
            "the anticanonical class is not big here: the component complement "
            "is not negative definite")
    return basis, gram


def coxeter_dot(report: RootSystemReport) -> str:
    """Graphviz DOT rendering of the Coxeter graph of the simple roots."""
    lines = ["graph coxeter {"]
    for i in range(report.rank):
        lines.append(f'  "eps{i + 1}";')
    for i, j, bond in report.graph:
        attr = f' [label="{bond}"]' if bond > 1 else ""
        lines.append(f'  "eps{i + 1}" -- "eps{j + 1}"{attr};')
    lines.append("}")
    return "\n".join(lines) + "\n"
