"""Exact Hadamard-triple verification and exhaustive spectrum search in Z_N.

(N, D, L) is a Hadamard triple when the |D| x |D| matrix
(1/sqrt(|D|)) * (e(d*l/N)) indexed by d in D, l in L is unitary.  That holds
iff |D| == |L|, both sets are distinct mod N, and every difference l - l'
of spectrum elements makes the exponential sum over D vanish.  The
orthogonality test is ``vanishing_sum_test``: pure integer arithmetic,
never floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .cyclotomic import vanishing_sum_test
from .digitsets import DigitSet
from .errors import HadamardFailure, refuse_above


@dataclass(frozen=True)
class FailureReport:
    """Names the violated condition and the witnessing elements."""

    kind: str  # CardinalityMismatch | DuplicateResidue | OrthogonalityFailure
    which: str = ""
    witness: tuple = ()

    def __str__(self) -> str:
        if self.kind == "CardinalityMismatch":
            return f"cardinality mismatch: |D|={self.witness[0]} vs |L|={self.witness[1]}"
        if self.kind == "DuplicateResidue":
            return f"duplicate residue in {self.which}: {self.witness[0]} == {self.witness[1]} (mod {self.witness[2]})"
        return f"orthogonality failure in {self.which}: pair {self.witness}"


@dataclass(frozen=True)
class HadamardTriple:
    """An exactly verified triple; construct through verify_triple."""

    base: int
    digits: DigitSet
    spectrum: DigitSet


def _duplicate_residue(digits: Sequence[int], n: int):
    """The first pair of digits congruent mod n, or None."""
    if len({d % n for d in digits}) == len(digits):
        return None
    seen: dict[int, int] = {}
    for d in digits:
        r = d % n
        if r in seen:
            return seen[r], d
        seen[r] = d
    return None


def check_triple(n: int, d: DigitSet, l: DigitSet) -> FailureReport | None:
    """None when (n, d, l) is a Hadamard triple, else the first failure."""
    if len(d) != len(l):
        return FailureReport("CardinalityMismatch", witness=(len(d), len(l)))
    dup = _duplicate_residue(d.digits, n)
    if dup is not None:
        return FailureReport("DuplicateResidue", "digits", (dup[0], dup[1], n))
    dup = _duplicate_residue(l.digits, n)
    if dup is not None:
        return FailureReport("DuplicateResidue", "spectrum", (dup[0], dup[1], n))
    if len(d) == n:
        # complete residue system: the sum over D at any t != 0 (mod N) is a
        # full geometric sum, hence zero; no pair tests needed
        return None
    ls = l.digits
    cache: dict[int, bool] = {}
    for i in range(len(ls)):
        for j in range(i + 1, len(ls)):
            t = (ls[j] - ls[i]) % n
            ok = cache.get(t)
            if ok is None:
                ok = cache[t] = vanishing_sum_test(d, t, n)
            if not ok:
                return FailureReport("OrthogonalityFailure", "spectrum pair", (ls[i], ls[j]))
    return None


def verify_triple(n: int, d: DigitSet, l: DigitSet) -> HadamardTriple:
    """Exact verification; raises HadamardFailure with a witness report."""
    report = check_triple(n, d, l)
    if report is not None:
        raise HadamardFailure(report)
    return HadamardTriple(n, d, l)


def zero_set(d: DigitSet, n: int) -> frozenset[int]:
    """Residues t (1 <= t < n) where the exponential sum over D vanishes."""
    return frozenset(t for t in range(1, n) if vanishing_sum_test(d, t, n))


# Largest N find_spectra searches: it makes N vanishing tests and holds N
# adjacency sets of N bits.  In process on a 2-core x86 container the
# complete residue system mod 2,048 takes 0.8 s with limit 2, and
# {0, N/4, N/2, 3N/4} takes 0.6 s at N = 2,048 and 2.5 s at N = 4,096.
SEARCH_BASE_LIMIT = 1 << 11


def find_spectra(n: int, d: DigitSet, limit: int | None = None) -> list[DigitSet]:
    """All 0-anchored spectra L in {0..N-1} for (N, D), up to ``limit``.

    Spectra are shift-invariant, so anchoring at 0 loses nothing.  The
    candidates form a Cayley graph on Z_N whose connection set is the zero
    set of the mask; spectra are its |D|-cliques through 0.  Branch and
    bound with a most-constrained vertex order; N here stays small enough
    that plain Python bitsets win.  The search keeps its own stack, since a
    clique can hold |D| vertices.  N above SEARCH_BASE_LIMIT raises
    PointLimitExceeded before any work.
    """
    refuse_above("SEARCH_BASE_LIMIT", SEARCH_BASE_LIMIT, f"a search over Z_{n}", n)
    if limit is not None and limit < 1:
        raise ValueError("limit must be >= 1")
    if _duplicate_residue(d.digits, n) is not None:
        raise ValueError("digit set must have distinct residues mod N")
    size = len(d)
    if size == 1:
        return [DigitSet(max(n, 2), (0,))]
    allowed = zero_set(d, n)
    if not allowed:
        return []
    # Adjacency mask per vertex: v ~ w iff (v - w) % n in the zero set.
    # The graph is vertex-transitive, so every vertex has the same degree
    # and the interesting pruning is the remaining-candidate count.
    adj = [0] * n
    for v in range(n):
        m = 0
        for t in allowed:
            m |= 1 << ((v + t) % n)
        adj[v] = m
    results: list[DigitSet] = []
    # cands[i] holds the vertices still to try after clique[: i + 1]
    clique = [0]
    cands = [adj[0] & ~1]
    while cands:
        cand = cands[-1]
        need = size - len(clique)
        if bin(cand).count("1") < need:
            cands.pop()
            clique.pop()
            continue
        low = cand & -cand
        v = low.bit_length() - 1
        # cand ^ low holds only vertices above v, so each clique is
        # produced exactly once, in increasing vertex order.
        cands[-1] = cand ^ low
        if need == 1:
            results.append(DigitSet(max(n, 2), tuple(clique) + (v,)))
            if limit is not None and len(results) >= limit:
                break
            continue
        clique.append(v)
        cands.append((cand ^ low) & adj[v])
    return sorted(results, key=lambda s: s.digits)
