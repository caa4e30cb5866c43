"""Semi-linear sets over Z^d, the exact abstract domain for integer outputs.

A linear set <u, {v1, .., vn}> denotes {u + l1*v1 + .. + ln*vn | li in N};
u is the base, the vi are generators.  A semi-linear set is a finite union
of linear sets.  With

    a (+) b   union of components
    a (x) b   pairwise base sums and generator unions
    a*        <0, all bases and generators of a>   (closure under (x))

semi-linear sets form a commutative idempotent omega-continuous semiring
with ZERO = {} (empty union) and ONE = {<0, {}>}.

Values are canonical on construction: generators are deduplicated, sorted,
and never zero; components are deduplicated and sorted; so structural
equality is semantic equality of the written form.  Only this module
builds values (`sls`, `linset` and the operations below), so every value
is canonical, and the operations take exact shortcuts that rest on it:
`extend` returns its other operand when one is ONE, `combine` when one is
ZERO or both are equal, and a product component's generators are the
sorted union of two canonical tuples, with no `linset` to re-check them.
Each shortcut returns the value the general path builds, after the same
dimension check.

`LinearSet` and `SemiLinearSet` are `typing.NamedTuple`s.  They compare,
order and hash as the plain tuples of their fields, exactly as a frozen
ordered dataclass does, so the canonical orders and every set's iteration
order are those of the tuples; the comparisons and hashes run in C, and
`sls` and `prune` compare and hash components all the time.  A value is
never iterated, unpacked or mixed with plain tuples in one dict or set.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Iterable, NamedTuple

Vector = tuple[int, ...]


class LinearSet(NamedTuple):
    base: Vector
    gens: tuple[Vector, ...]

    def __str__(self) -> str:
        gens = ",".join(_fmt_vec(v) for v in self.gens)
        return f"<{_fmt_vec(self.base)},{{{gens}}}>"


def _fmt_vec(v: Vector) -> str:
    return "(" + ",".join(str(c) for c in v) + ")"


def linset(base: Iterable[int], gens: Iterable[Iterable[int]] = ()) -> LinearSet:
    """Canonical linear set: gens sorted, deduplicated, zero vectors dropped."""
    # Per-example vectors are built as tuple([...]) throughout, never as
    # tuple(<generator>).  CPython builds the latter in a 10-slot tuple and
    # resizes it, so each one it frees lands in the free list of its own
    # size without one being taken from it; across checks those lists fill
    # to 2000 tuples of every size d, and only a full collection empties them.
    b = tuple([int(c) for c in base])
    gs = set()
    for g in gens:
        g = tuple([int(c) for c in g])
        if len(g) != len(b):
            raise ValueError(f"generator dimension {len(g)} != base dimension {len(b)}")
        if any(g):
            gs.add(g)
    return LinearSet(b, tuple(sorted(gs)))


class SemiLinearSet(NamedTuple):
    components: tuple[LinearSet, ...]

    @property
    def dim(self) -> int | None:
        """Dimension of the ambient space; None for the empty set."""
        return len(self.components[0].base) if self.components else None

    @property
    def is_zero(self) -> bool:
        return not self.components

    def __str__(self) -> str:
        return "{" + ",".join(str(c) for c in self.components) + "}"

    def combine(self, other: "SemiLinearSet") -> "SemiLinearSet":
        """(+): union of the two sets of components."""
        _check_dims(self, other)
        if not other.components or self == other:
            return self
        if not self.components:
            return other
        return sls(self.components + other.components)

    def extend(self, other: "SemiLinearSet") -> "SemiLinearSet":
        """(x): pointwise sums, {<u1+u2, V1 | V2>} for all component pairs."""
        _check_dims(self, other)
        if _is_one(other):
            return self
        if _is_one(self):
            return other
        out = set()
        for a, b in product(self.components, other.components):
            base = tuple([x + y for x, y in zip(a.base, b.base)])
            gens = a.gens + b.gens  # canonical when either one is empty
            if a.gens and b.gens:
                gens = tuple(sorted(set(gens)))
            out.add(LinearSet(base, gens))
        return SemiLinearSet(tuple(sorted(out)))

    def star(self, dim: int | None = None) -> "SemiLinearSet":
        """Closure under (x): <0, union of all bases and generators>.

        Valid only because (+) is idempotent and (x) commutative; the single
        component absorbs every finite product of components.

        ZERO* is ONE but carries no dimension of its own; callers that may
        star ZERO must pass the ambient dimension.
        """
        d = self.dim if self.dim is not None else dim
        if d is None:
            raise ValueError("star of the empty semi-linear set needs an explicit dimension")
        if self.is_zero:
            return one(d)
        gens: list[Vector] = []
        for c in self.components:
            gens.append(c.base)
            gens.extend(c.gens)
        return sls([linset((0,) * d, gens)])

    def project(self, mask: tuple[bool, ...]) -> "SemiLinearSet":
        """proj_SL: zero out every coordinate whose mask entry is False."""
        if self.is_zero:
            return self
        if len(mask) != self.dim:
            raise ValueError("mask dimension mismatch")
        out = []
        for c in self.components:
            base = tuple([x if m else 0 for x, m in zip(c.base, mask)])
            gens = [tuple([x if m else 0 for x, m in zip(g, mask)]) for g in c.gens]
            out.append(linset(base, gens))
        return sls(out)


def _is_one(a: SemiLinearSet) -> bool:
    """Whether a is ONE = {<0, {}>} of its dimension."""
    return (len(a.components) == 1 and not a.components[0].gens
            and not any(a.components[0].base))


def _check_dims(a: SemiLinearSet, b: SemiLinearSet) -> None:
    if a.dim is not None and b.dim is not None and a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


def sls(components: Iterable[LinearSet]) -> SemiLinearSet:
    """Canonical semi-linear set: components deduplicated and sorted."""
    comps = sorted(set(components))
    dims = {len(c.base) for c in comps}
    if len(dims) > 1:
        raise ValueError(f"mixed component dimensions {sorted(dims)}")
    return SemiLinearSet(tuple(comps))


ZERO = SemiLinearSet(())


def one(dim: int) -> SemiLinearSet:
    return sls([linset((0,) * dim)])


def singleton(point: Iterable[int]) -> SemiLinearSet:
    return sls([linset(point)])


def combine_all(parts: Iterable[SemiLinearSet]) -> SemiLinearSet:
    acc = ZERO
    for p in parts:
        acc = acc.combine(p)
    return acc


MemberFn = Callable[[Vector, LinearSet], bool]


def prune(a: SemiLinearSet, member: MemberFn) -> SemiLinearSet:
    """Drop components subsumed by another component.

    <u1,V1> is dropped when some surviving <u2,V2> has V1 a subset of V2 and
    u1 a member of <u2,V2>; membership is decided by the caller-supplied
    `member` (an exact integer feasibility check; with one generator it is
    a division).  A holder with no generators is never asked: it holds only
    its base.  Removal never changes the denoted set.  Deterministic:
    components are examined in canonical order, and a component is only
    dropped in favour of one still alive.
    """
    comps = list(a.components)
    alive = [True] * len(comps)
    for i, c in enumerate(comps):
        ci_gens = set(c.gens)
        for j, d in enumerate(comps):
            # a holder without generators holds no other (distinct) component
            if i == j or not alive[j] or not d.gens:
                continue
            if ci_gens <= set(d.gens) and member(c.base, d):
                alive[i] = False
                break
    return sls([c for c, keep in zip(comps, alive) if keep])
