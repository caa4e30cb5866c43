"""Bottom-up enumerative synthesis and candidate verification.

Enumeration fills per-nonterminal banks in term-size order, keeping one
representative term per output signature (observational equivalence on
the current examples).  Verification decides validity of a candidate
against the full specification by case-splitting on its conditional
guards, giving one linear meaning per path.
"""

import itertools
import random
from dataclasses import dataclass

from . import logic as lg
from .frontend import OUT, holds
from .grammar import (
    AND, BOOL, DOUBLE, INC, ITE, LESSTHAN, MINUS, NOT, NUM, NEGVAR, PLUS, VAR,
    ExampleSet, Term, apply_symbol, eval_term,
)
from .ilp import BudgetExceeded, Solver


@dataclass(frozen=True)
class SynthOutcome:
    status: str                  # "found" | "exhausted" | "budget"
    candidate: Term | None = None
    terms_built: int = 0


def _splits(total, sizes):
    """The tuples whose i-th entry is in `sizes[i]` (ascending) and that
    sum to `total`, in lexicographic order: the compositions of `total`
    whose parts all have a non-empty pool, in the order they come.  The
    last pool is answered by membership, with no frame per size."""
    if not sizes:
        if total == 0:
            yield ()
        return
    first, rest = sizes[0], sizes[1:]
    if not rest:
        if total in first:
            yield (total,)
        return
    for s in first:
        if s > total:
            return
        if len(rest) == 1:
            if total - s in rest[0]:
                yield (s, total - s)
        else:
            for tail in _splits(total - s, rest):
                yield (s,) + tail


def enumerate_solve(g, ps, e, max_size=20, max_terms=200_000):
    """First start-symbol term (in size order) whose signature satisfies
    the point specification; deterministic for fixed inputs."""
    banks = {n: {} for n, _ in g.nonterminals}            # nt -> sig -> term
    by_size = {n: {} for n, _ in g.nonterminals}          # nt -> size -> [(sig, t)]
    aliases = [p for p in g.productions if p.is_alias
               and isinstance(p.args[0], str)]
    # each concrete production with its own weight (itself and its inline
    # terms), its nonterminal arguments, the signature of each inline
    # argument (None at a nonterminal) and, for a leaf, its signature
    concrete = []
    for p in g.productions:
        if p.is_alias:
            continue
        own = 1 + sum(isinstance(a, Term) for a in p.args)
        nt_args = [a for a in p.args if isinstance(a, str)]
        sigs = [eval_term(a, e) if isinstance(a, Term) else None
                for a in p.args]
        leaf = None if p.args else eval_term(Term(p.symbol), e)
        concrete.append((p, own, nt_args, sigs, leaf))
    built = 0
    last_new = 0
    max_nt_args = max((len(c[2]) for c in concrete), default=0)
    max_own = max((c[1] for c in concrete), default=1)

    def admit(nt, sig, term, size, fresh):
        nonlocal last_new
        if sig in banks[nt]:
            return None
        banks[nt][sig] = term
        by_size[nt].setdefault(size, []).append((sig, term))
        fresh.append((nt, sig, term, size))
        last_new = size
        if nt == g.start and ps.evaluate(sig):
            return term
        return None

    for size in range(1, max_size + 1):
        fresh = []
        # the sizes with terms, ascending; a split of this level sums to
        # less than `size`, so the terms it adds take part in none
        sizes = {n: tuple(pool) for n, pool in by_size.items()}
        for p, own, nt_args, sigs, leaf in concrete:
            if own > size or (not nt_args and own != size):
                continue
            for split in _splits(size - own, [sizes[a] for a in nt_args]):
                pools = [by_size[a][s] for a, s in zip(nt_args, split)]
                for combo in itertools.product(*pools):
                    built += 1
                    if built > max_terms:
                        return SynthOutcome("budget", None, built)
                    picked = iter(combo)
                    vals, children = [], []
                    for a, pre in zip(p.args, sigs):
                        if pre is None:
                            sig, t = next(picked)
                            vals.append(sig)
                            children.append(t)
                        else:
                            vals.append(pre)
                            children.append(a)
                    sig = (leaf if not p.args
                           else apply_symbol(p.symbol, vals))
                    found = admit(p.lhs, sig, Term(p.symbol, tuple(children)),
                                  size, fresh)
                    if found:
                        return SynthOutcome("found", found, built)
        # alias productions add no node: settle them inside the size level
        while fresh:
            batch, fresh = fresh, []
            for p in aliases:
                for nt, sig, term, sz in batch:
                    if nt == p.args[0]:
                        found = admit(p.lhs, sig, term, sz, fresh)
                        if found:
                            return SynthOutcome("found", found, built)
        # every untried combination sits at own-weight + sum of
        # representative sizes; once size passes that bound nothing new
        # can ever be admitted
        if size > max_own + max_nt_args * last_new:
            return SynthOutcome("exhausted", None, built)
    return SynthOutcome("budget", None, built)


# --- verification ------------------------------------------------------------

class _PathBlowup(Exception):
    pass


def _int_paths(t, cap):
    """Guard-condition case split: [(condition over inputs, linear meaning)].
    The conditions of one term are exhaustive and mutually exclusive."""
    k = t.symbol.kind
    if k == NUM:
        return [(lg.TRUE, lg.lin(const=t.symbol.value))]
    if k == VAR:
        return [(lg.TRUE, lg.lin(((t.symbol.name, 1),)))]
    if k == NEGVAR:
        return [(lg.TRUE, lg.lin(((t.symbol.name, -1),)))]
    if k == PLUS or k == MINUS:
        out = [(lg.TRUE, lg.lin())]
        for i, c in enumerate(t.children):
            sign = -1 if (k == MINUS and i == 1) else 1
            nxt = []
            for cond, acc in out:
                for ccond, clin in _int_paths(c, cap):
                    nxt.append((lg.conj(cond, ccond),
                                lg.lin_add(acc, lg.lin_scale(clin, sign))))
                    if len(nxt) > cap:
                        raise _PathBlowup
            out = nxt
        return out
    if k == DOUBLE:
        return [(c, lg.lin_scale(l, 2)) for c, l in _int_paths(t.children[0], cap)]
    if k == INC:
        return [(c, lg.lin_add(l, lg.lin(const=1)))
                for c, l in _int_paths(t.children[0], cap)]
    if k == ITE:
        guard = _bool_formula(t.children[0], cap)
        out = [(lg.conj(guard, c), l)
               for c, l in _int_paths(t.children[1], cap)]
        out += [(lg.conj(lg.neg(guard), c), l)
                for c, l in _int_paths(t.children[2], cap)]
        if len(out) > cap:
            raise _PathBlowup
        return out
    raise ValueError(f"not an integer term: {t.symbol}")


def _bool_formula(t, cap):
    k = t.symbol.kind
    if k == LESSTHAN:
        cases = []
        for ca, la in _int_paths(t.children[0], cap):
            for cb, lb in _int_paths(t.children[1], cap):
                cases.append(lg.conj(ca, cb, lg.atom(la, "<", lb)))
                if len(cases) > cap:
                    raise _PathBlowup
        return lg.disj(*cases)
    if k == AND:
        return lg.conj(_bool_formula(t.children[0], cap),
                       _bool_formula(t.children[1], cap))
    if k == NOT:
        return lg.neg(_bool_formula(t.children[0], cap))
    raise ValueError(f"not a Boolean term: {t.symbol}")


def _falsifies(term, spec, variables, row):
    out = eval_term(term, ExampleSet(variables, (row,)))[0]
    return not holds(spec, variables, row, int(out))


def _shrink(term, spec, variables, row):
    """Pull each coordinate toward 0 while the input still falsifies."""
    row = list(row)
    changed = True
    while changed:
        changed = False
        for i, v in enumerate(row):
            for candidate in _toward_zero(v):
                trial = row[:i] + [candidate] + row[i + 1:]
                if _falsifies(term, spec, variables, tuple(trial)):
                    row[i] = candidate
                    changed = True
                    break
    return tuple(row)


def _toward_zero(v):
    if v == 0:
        return []
    out = [0]
    step = v // 2
    if step != 0 and step != v:
        out.append(step)
    out.append(v - (1 if v > 0 else -1))
    return [c for c in out if abs(c) < abs(v)]


def verify(term, spec, variables, solver=None, path_cap=4096,
           samples=10_000, rng=None):
    """Decide whether the candidate satisfies the specification on every
    input: ("valid", None), ("cex", input row), or ("valid-unknown",
    None) when only random testing was possible."""
    solver = solver if solver is not None else Solver()
    try:
        if term.sort == BOOL:
            phi = _bool_formula(term, path_cap)
            paths = [(phi, lg.lin(const=1)), (lg.neg(phi), lg.lin(const=0))]
        else:
            paths = _int_paths(term, path_cap)
        for cond, meaning in paths:
            spec_here = lg.substitute(spec, {OUT: meaning})
            status, witness = lg.decide(lg.conj(cond, lg.neg(spec_here)),
                                        solver)
            if status == "sat":
                row = tuple([int(witness.get(v, 0)) for v in variables])
                if not _falsifies(term, spec, variables, row):
                    raise AssertionError(f"decided counterexample {row} does"
                                         f" not falsify {term.to_sexpr()}")
                return "cex", _shrink(term, spec, variables, row)
        return "valid", None
    except (_PathBlowup, BudgetExceeded):
        pass
    rng = rng if rng is not None else random.Random(0)
    for _ in range(samples):
        row = tuple([rng.randint(-100, 100) for _ in variables])
        if _falsifies(term, spec, variables, row):
            return "cex", _shrink(term, spec, variables, row)
    return "valid-unknown", None
