"""Exact Hadamard-triple verification and exhaustive spectrum search in Z_N.

(N, D, L) is a Hadamard triple when the |D| x |D| matrix
(1/sqrt(|D|)) * (e(d*l/N)) indexed by d in D, l in L is unitary.  That holds
iff |D| == |L|, both sets are distinct mod N, and every difference l - l'
of spectrum elements makes the exponential sum over D vanish (Laba-Wang,
J. Funct. Anal. 193 (2002)).  The orthogonality test is
``vanishing_sum_test``: pure integer arithmetic, never floating point.

The verdict depends on the set of differences, not on the pairs, so
``check_triple`` tests each distinct ordered difference (l_j - l_i) mod N,
i < j, once.  Where the pairs outnumber the residues it reads that set off
one N-bit mask, built by |L| shifts, and walks the pairs only when some
difference fails, to name the first failing pair.  Elsewhere one walk over
the pairs in order tests each new difference and stops at the first pair
that fails; a walk that finds none keeps the differences it met.  The
difference list, and the duplicate residues of D and of L, stay in the
digit set's ``modulus_facts``, so a spectrum checked against many digit
sets at one modulus (the stage rows of a keyed layer) builds them once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .cyclotomic import vanishing_sum_test
from .digitsets import DigitSet
from .errors import HadamardFailure, InputError, SearchLimitReached, refuse_above


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


# The mask route costs |L| shifts of N-bit ints and a scan of N characters,
# the pair walk |L|^2 / 2 Python steps and a sort.  Timed in process on a
# 2-core x86 container, with a set of the differences and a sort standing in
# for the walk, set time / mask time:
# - random spectra, |L| = 16..512, whose differences fill most residues:
#   0.64-0.82 at N = |L|^2 / 2, 0.79-1.17 at |L|^2 / 4, 1.05-1.88 at |L|^2 / 8;
# - the stage-reduce spectra, with few distinct differences: 9.7 at (|L|, N)
#   = (432, 5,184), 3.0 at (72, 1,728), 1.2 at (24, 1,728), 0.41 at
#   (12, 5,184);
# so the gate 2N <= |L|^2 lies between the two crossovers.


def _differences_by_mask(ls: Sequence[int], n: int) -> list[int]:
    """Ascending {(b - a) % n : a before b in ls}, read off one int."""
    # bit n - 1 - (a % n) of ``earlier`` marks each earlier residue, so the
    # shift by (b % n) + 1 marks b - a at bit n + (b % n) - (a % n), which
    # lies in (0, 2n) and is (b - a) % n or that plus n
    earlier = spread = 0
    for x in ls:
        r = x % n
        spread |= earlier << (r + 1)
        earlier |= 1 << (n - 1 - r)
    bits = bin((spread >> n) | (spread & ((1 << n) - 1)))[:1:-1]  # bit t at index t
    out = []
    t = bits.find("1")
    while t >= 0:
        out.append(t)
        t = bits.find("1", t + 1)
    return out


# Moduli per digit set whose facts ``_facts`` keeps.  An entry holds up to
# N differences, so a set met at more moduli recomputes the rest.
_MODULUS_MEMO_SIZE = 64


def _facts(s: DigitSet, n: int) -> list:
    """[first duplicate pair mod n or None, ordered differences mod n or
    None until a caller needs them] of s, kept in ``s.modulus_facts``."""
    facts = s.modulus_facts.get(n)
    if facts is None:
        facts = [_duplicate_residue(s.digits, n), None]
        if len(s.modulus_facts) < _MODULUS_MEMO_SIZE:
            s.modulus_facts[n] = facts
    return facts


def check_triple(n: int, d: DigitSet, l: DigitSet) -> FailureReport | None:
    """None when (n, d, l) is a Hadamard triple, else the first failure.

    Orthogonality calls ``vanishing_sum_test`` once per distinct ordered
    difference (l_j - l_i) mod n, i < j.  When 2N <= |L|^2 the differences
    come from one N-bit mask, ascending, and the pairs are walked only when
    one of them fails; else the walk comes first.  The walk goes over the
    pairs in order and tests each new difference; the first pair whose
    difference does not vanish is the witness, and a walk that finds none
    keeps the differences it met.  Either list is built once per (l, n).
    """
    if len(d) != len(l):
        return FailureReport("CardinalityMismatch", witness=(len(d), len(l)))
    dup = _facts(d, n)[0]
    if dup is not None:
        return FailureReport("DuplicateResidue", "digits", (dup[0], dup[1], n))
    spectrum = _facts(l, n)
    dup = spectrum[0]
    if dup is not None:
        return FailureReport("DuplicateResidue", "spectrum", (dup[0], dup[1], n))
    if len(d) == n:
        # complete residue system: the sum over D at any t != 0 (mod N) is a
        # full geometric sum, hence zero; no pair tests needed
        return None
    ls = l.digits
    if spectrum[1] is None and 2 * n <= len(ls) ** 2:
        spectrum[1] = _differences_by_mask(ls, n)
    if spectrum[1] is not None and all(vanishing_sum_test(d, t, n) for t in spectrum[1]):
        return None
    seen: set[int] = set()
    for a, b in combinations(ls, 2):
        t = (b - a) % n
        if t not in seen:
            if not vanishing_sum_test(d, t, n):
                return FailureReport("OrthogonalityFailure", "spectrum pair", (a, b))
            seen.add(t)
    spectrum[1] = sorted(seen)
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
# adjacency sets of N bits, each one rotation of the zero-set mask.  In
# process on a 2-core x86 container the complete residue system mod 2,048
# takes 0.03 s with limit 2, and {0, N/4, N/2, 3N/4} at N = 2,048 takes
# 2 ms to its first spectrum.
SEARCH_BASE_LIMIT = 1 << 11
# Most spectra one search returns, whatever its limit; finding one more
# raises SearchLimitReached.  {0, N/4, N/2, 3N/4} at N = 2,048 has 512^3
# spectra, and 2^14 of them take 0.17 s on the same container.
SPECTRA_CAP = 1 << 14


def find_spectra(n: int, d: DigitSet, limit: int | None = None) -> list[DigitSet]:
    """All 0-anchored spectra L in {0..N-1} for (N, D), up to ``limit``.

    Spectra are shift-invariant, so anchoring at 0 loses nothing.  The
    candidates form a Cayley graph on Z_N whose connection set is the zero
    set of the mask; spectra are its |D|-cliques through 0.  Branch and
    bound with a most-constrained vertex order; N here stays small enough
    that plain Python bitsets win.  The search keeps its own stack, since a
    clique can hold |D| vertices.  N above SEARCH_BASE_LIMIT raises
    PointLimitExceeded before any work; a spectrum found past SPECTRA_CAP
    raises SearchLimitReached.
    """
    refuse_above("SEARCH_BASE_LIMIT", SEARCH_BASE_LIMIT, f"a search over Z_{n}", n)
    if limit is not None and limit < 1:
        raise InputError("limit must be >= 1")
    if _duplicate_residue(d.digits, n) is not None:
        raise InputError("digit set must have distinct residues mod N")
    size = len(d)
    if size == 1:
        return [DigitSet(max(n, 2), (0,))]
    allowed = zero_set(d, n)
    if not allowed:
        return []
    # Adjacency mask per vertex: v ~ w iff (v - w) % n in the zero set, so
    # the mask of v is the zero-set mask rotated by v.  The graph is
    # vertex-transitive, so every vertex has the same degree and the
    # interesting pruning is the remaining-candidate count.
    row = sum(1 << t for t in allowed)
    full = (1 << n) - 1
    adj = [((row << v) | (row >> (n - v))) & full for v in range(n)]
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
        # cand ^ low holds only vertices above v, and v's subtree ends before
        # the next candidate's: each clique comes once, in sorted order.
        cands[-1] = cand ^ low
        if need == 1:
            if len(results) == SPECTRA_CAP:
                raise SearchLimitReached(f"search stopped at SPECTRA_CAP = {SPECTRA_CAP} spectra")
            results.append(DigitSet(max(n, 2), tuple(clique) + (v,)))
            if limit is not None and len(results) >= limit:
                break
            continue
        clique.append(v)
        cands.append((cand ^ low) & adj[v])
    return results
