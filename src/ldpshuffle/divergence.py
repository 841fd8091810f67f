"""Exact small-n certification oracle for the shuffled one-bit protocol.

When every report is one-bit randomized response, the shuffled output is
equivalent to its count of 1-responses, and that count's distribution is an
exact convolution of two binomials. This module computes those
distributions, scans every adjacent pair for the worst hockey-stick
divergence, and checks the closed-form accountant against the result.

With p = e^e0/(1+e^e0), q = 1-p and R_m the count pmf of N = n-1 reports
holding m ones, the pair (m, m+1) is P_m = p R_m(x) + q R_m(x-1) against
P_{m+1} = q R_m(x) + p R_m(x-1). Its forward sum
sum_x max(a R_m(x) - b R_m(x-1), 0), with a = p - e^eps q and
b = e^eps p - q, is `_forward_sum`, the module's one hockey-stick sum. The
backward sum of pair m is the forward sum of pair n-1-m by bit-flip
symmetry.

The cut. R_m sums N independent Bernoullis whose odds, e^e0 for the m ones
and e^-e0 for the zeros, are all at most w = e^e0, so R_m(x) is
proportional to the elementary symmetric polynomial e_x of the odds. Every
x-subset arises x times as an (x-1)-subset plus one element not in it, so
x e_x <= (N-x+1) w e_{x-1} and R_m(x)/R_m(x-1) <= (N-x+1) w/x. A forward
term is positive only where that ratio exceeds b/a, so, for every m, only
at x < n / (1 + (b/a) e^-e0) = n (1 - e^(eps-e0)) / (1 - e^-2e0). A prefix
of a convolution depends only on the prefixes of its operands, so every
pmf the scan forms is kept on [0, cut] alone; the terms past the cut are
<= 0 in exact arithmetic and add exactly 0. `_cut` widens the cut for the
entry error eta below, so that no term rounding could make positive is
dropped either, and it forms the cut from logs of e^(eps-e0),
1 - e^(eps-e0) and 1 - e^-(eps+e0), never from e^e0 or e^eps. At the
accountant's epsilon on the verify grid n in {1000, 2000, 3000},
e0 in {0.25, 0.5} the cut keeps 1.4 to 41% of the support; without it
that grid's windowed scans took 75.5 ms, not 10.5 ms, and a bar = 0 scan
at n = 10^4 took 1.05 s, not 0.39 s (one thread of a 2-core Xeon).

The window. `divergence_bounds(n, e0, eps, bar)` also drops tails, so
that no pair's bar exceeds bar. With a + b = (p - q)(1 + e^eps), taken as
infinite where e^eps would overflow, and D = ceil(log2 n), every pmf the
split forms, and every binomial slice it convolves with (windowed once
per size), loses its leading and trailing runs of cumulative mass
<= tau_node = (bar / (a + b)) / (4 (D + 2)). A root-to-leaf path windows
at most D pmfs and D slices, so E_m, the mass dropped on pair m's path, is
at most 4 D tau_node < bar / (a + b). The bound, in three lines:
convolution with a probability vector keeps mass and every quantity is
nonnegative, so the windowed R'_m <= R_m entrywise and
||R_m - R'_m||_1 <= E_m; a term max(a R(x) - b R(x-1), 0) moves by at most
a |R - R'|(x) + b |R - R'|(x-1), so |delta_m - delta'_m| <= (a + b) E_m;
the bar is that, with E_m inflated for the relative rounding of the
cumsums that find the windows, and eta below applies on top.
`certify_amplification` passes bar = 1e-12 delta_target. `divergence_scan`
is the bar = 0 call, as is in effect every call where e^eps would
overflow: it drops exact zeros alone, at both ends of every pmf, and its
bars are 0. A range whose window is empty has only 0 terms.

The split. Every R_m comes from one split over m: for m in [lo, hi], all
R_m share the pmf of the first lo reports (ones) and the last n-1-hi
reports (zeros). Splitting at mid, the left half convolves that pmf with
Bin(hi-mid, q) for the reports it adds as zeros, the right half with
Bin(mid+1-lo, p), the reverse of Bin(mid+1-lo, q), for those it adds as
ones. A range of at most BLOCK pairs is one block: with K = hi - lo,
R_{lo+j} is the shared pmf convolved with S_j = Bin(j, p) * Bin(K-j, q).
S depends on K alone and the halving split makes at most two distinct K,
so S is built once per K; one product of its (K+1) x (K+1) matrix with
K+1 shifted copies of the shared pmf gives every R_m of the block, and one
`_forward_sum` call finishes it. With L = cut + 1 that is about 2n/BLOCK
`np.convolve` calls and n/BLOCK matrix products, at most about L n/2
multiply-adds per split level and BLOCK L per pair in the blocks, and
O(n log n) memory: one pmf prefix per level, one binomial for each of
O(log n) sizes and a block's (BLOCK x L) buffers; a window shortens L to
the pmf's window. At n = 10^4, e0 = 0.5, at the accountant's epsilon for
delta = 1e-4 and at eps = 0.05, a scan takes 0.51 s and 0.53 s at bar = 0
and 0.057 s and 0.093 s at certify's bar (2-core Xeon, numpy 2.4.6,
medians of 7 runs).

Precision. Each binomial is a convolution power of one report's pmf
[p, q]: Bin(s, q) is Bin(s//2, q) convolved with Bin(s - s//2, q). Until
the final hockey-stick sum only sums of nonnegative products are formed,
so there is no cancellation. An entry of R_m is a degree-(n-1) polynomial
in p and q with nonnegative coefficients, so rounding p and q by relative
r (at most (3 + e0) u, the e0 u from q) moves it by at most
(1 + r)^(n-1) - 1, and a convolution adds about L u to its operands'
relative errors, with L the terms of one of its sums and u = 2^-53. R_m's
convolutions, D = ceil(log2 n) split steps and the halving trees of
binomials whose sizes add up to n - 1 (at most D levels each), hold at
most about (D + 1) n terms per sum all told, and a block adds two sums of
at most BLOCK terms each (S_j and the matrix product), so every entry above
the underflow range is within relative eta = n r + ((D + 1) n + 2 BLOCK) u.
At eps >= e0 every delta is exactly zero, since P_m/P_{m+1} <= p/q = e^e0.
The oracle is capped at n <= 10000.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .amplification import amplify_shuffle
from .core import PROB_TOLERANCE, check_budget, check_count

ORACLE_MAX_N = 10_000

# Above this epsilon the scan never forms e^eps (it overflows past ~709.78).
EXP_SAFE = 700.0

# The split stops at ranges of at most this many pairs and finishes each
# with one matrix product; 32 halves the calls again but is slower at n = 10^4,
# and the certify grid took 38 ms at 4 and 79 ms at 1, against 11 ms at 16.
BLOCK = 16


def _entry_error(n, epsilon0):
    """eta of the module docstring: the relative error of every entry of
    every R_m above the underflow range."""
    u = 2.0 ** -53
    return n * (3.0 + epsilon0) * u + ((math.ceil(math.log2(n)) + 1) * n + 2 * BLOCK) * u


def _cut(n, epsilon0, epsilon):
    """Last x at which a forward term of any pair can come out positive:
    the largest integer x <= n / (1 + rho (b/a) e^-e0), with
    (b/a) e^-e0 = e^(eps-e0) (1 - e^-(eps+e0)) / (1 - e^(eps-e0)) and
    rho = (1 - eta) / (1 + eta) for the entry error eta of the module
    docstring, since a computed term is positive only where
    R(x) (1 + eta) a > R(x-1) (1 - eta) b."""
    eta = _entry_error(n, epsilon0)
    if eta >= 1.0:
        return n - 1
    log_ratio = (math.log1p(-eta) - math.log1p(eta) + (epsilon - epsilon0)
                 + math.log(-math.expm1(-epsilon - epsilon0))
                 - math.log(-math.expm1(epsilon - epsilon0)))
    return min(n - 1, math.floor(n * math.exp(-np.logaddexp(0.0, log_ratio))))


def _forward_sum(R, a, b, log_b=None):
    """sum_x max(a R(x) - b R(x-1), 0), with R(-1) = 0, for each row R of
    an array of nonnegative pmf prefixes (one row per pair). Where
    b = e^eps p - q would overflow (eps past EXP_SAFE), b is None and
    log_b is its log; its products with R, which are small, are then
    formed in log space."""
    terms = a * R
    if log_b is None:
        terms[..., 1:] -= b * R[..., :-1]
    else:
        with np.errstate(divide="ignore", over="ignore"):
            terms[..., 1:] -= np.exp(log_b + np.log(np.maximum(R[..., :-1], 0.0)))
    return np.maximum(terms, 0.0, out=terms).sum(axis=-1)


def _window(values, tau):
    """Bounds [first, last) of values without their leading and trailing
    runs of cumulative mass <= tau (empty if the runs meet), and the mass
    of the two runs. values are nonnegative, so each cumsum is monotone."""
    head = values.cumsum()
    first = int(head.searchsorted(tau, "right"))
    tail = values[::-1].cumsum()
    trail = int(tail.searchsorted(tau, "right"))
    dropped = (head[first - 1] if first else 0.0) + (tail[trail - 1] if trail else 0.0)
    return first, len(values) - trail, float(dropped)


def divergence_scan(n, epsilon0, epsilon):
    """Hockey-stick divergence between the m and m+1 count distributions,
    for every m in [0, n-1]; returns the length-n array of deltas. This is
    `divergence_bounds` at bar = 0, which drops exact zeros alone."""
    return divergence_bounds(n, epsilon0, epsilon, 0.0)[0]


def divergence_bounds(n, epsilon0, epsilon, bar):
    """`divergence_scan` with every pmf windowed so that no pair's bar
    exceeds bar (module docstring); returns (deltas, bars), each computed
    delta within its bar of the exact one (rounding eta aside). At bar = 0
    every bar is 0."""
    n = check_count(n, "n", low=2, high=ORACLE_MAX_N)
    epsilon0 = check_budget(epsilon0, "epsilon0")
    epsilon = check_budget(epsilon, zero_ok=True)
    bar = check_budget(bar, "bar", zero_ok=True)
    forward, lost = np.zeros(n), np.zeros(n)
    if epsilon >= epsilon0:
        return forward, lost
    # q from e^-e0, not 1 - p, which is 0 once p rounds to 1
    log_p = -math.log1p(math.exp(-epsilon0))
    p, q = math.exp(log_p), math.exp(log_p - epsilon0)
    a = -p * math.expm1(epsilon - epsilon0)          # p - e^eps q
    if epsilon <= EXP_SAFE:                          # b = e^eps p - q
        b, log_b = p * math.expm1(epsilon) + math.tanh(epsilon0 / 2.0), None
        scale = math.tanh(epsilon0 / 2.0) * (1.0 + math.exp(epsilon))  # a + b
    else:
        # e^eps would overflow: b = e^eps p (1 - e^-(eps+e0)) is carried as its
        # log, and a + b is infinite, so that nothing but exact zeros is dropped
        b, log_b = None, epsilon + log_p + math.log1p(-math.exp(-epsilon - epsilon0))
        scale = math.inf
    length = _cut(n, epsilon0, epsilon) + 1
    depth = math.ceil(math.log2(n))
    tau_node = bar / scale / (4 * (depth + 2))
    binomials = {0: np.ones(1), 1: np.array([p, q])}
    windows = {}
    blocks = {}

    def binomial(size):
        # Bin(size, q), the count pmf of size reports that all hold 0, as a
        # convolution power of one report's [p, q]; reversed, it is Bin(size, p)
        if size not in binomials:
            probs = np.convolve(binomial(size // 2), binomial(size - size // 2))
            total = float(probs.sum())
            if not abs(total - 1.0) <= PROB_TOLERANCE:  # also catches nan
                raise ArithmeticError(f"count distribution sums to {total!r}, "
                                      f"outside tolerance {PROB_TOLERANCE}")
            binomials[size] = probs
        return binomials[size]

    def binomial_slice(size, ones):
        # Bin(size, q) windowed, or reversed Bin(size, p) if ones: the index
        # of its first kept entry, the kept entries and the mass dropped
        if size not in windows:
            probs = binomial(size)
            first, last, dropped = _window(probs, tau_node)
            windows[size] = (first, probs[first:last], dropped)
        first, kept, dropped = windows[size]
        if ones:
            return size + 1 - first - len(kept), kept[::-1], dropped
        return first, kept, dropped

    def block(width):
        # row j is S_j = Bin(j, p) * Bin(width - j, q), reversed, so that
        # row j times the shifted copies of a block's shared pmf is R_lo+j
        if width not in blocks:
            blocks[width] = np.stack([np.convolve(binomial(j)[::-1], binomial(width - j))
                                      for j in range(width + 1)])[:, ::-1].copy()
        return blocks[width]

    def scan(lo, hi, probs, start, spent):
        # probs[i] is entry start + i of the count pmf shared by R_lo .. R_hi
        # (lo reports holding 1, n-1-hi holding 0), cut to [0, length), and
        # spent the mass the windows on the way here dropped. Where its
        # window is empty, every term is 0
        first, last, dropped = _window(probs, tau_node)
        spent += dropped
        if first >= last:
            lost[lo:hi + 1] = spent
            return
        base, start = probs[first:last], start + first
        width, room = hi - lo, length - start
        if width >= BLOCK:
            mid = (lo + hi) // 2
            # the left half adds hi - mid reports holding 0, the right half
            # mid + 1 - lo holding 1; keep is how many child entries precede the cut
            for sub, (offset, kept, cost) in (((lo, mid), binomial_slice(hi - mid, False)),
                                              ((mid + 1, hi), binomial_slice(mid + 1 - lo, True))):
                keep = room - offset
                child = np.convolve(base, kept[:keep])[:keep] if keep > 0 else kept[:0]
                scan(*sub, child, start + offset, spent + cost)
            return
        # row s of shifted is base moved right by width - s; column i is
        # entry start + i of R_lo .. R_hi, up to the cut or to n - 1
        padded = np.concatenate((np.zeros(width), base, np.zeros(width)))
        shifted = sliding_window_view(padded, min(room, len(base) + width))[:width + 1]
        forward[lo:hi + 1] = _forward_sum(block(width) @ shifted, a, b, log_b)
        lost[lo:hi + 1] = spent

    scan(0, n - 1, np.ones(1), 0, 0.0)
    # the backward sum of pair m is the forward sum of pair n-1-m; the bar
    # covers the rounding of the cumsums (at most n + 1 terms), of the
    # sums of lost and of a + b
    mass = np.maximum(lost, lost[::-1]) * (1.0 + 2 * (n + 4 * depth + 8) * 2.0 ** -53)
    bars = np.multiply(mass, scale, out=np.zeros(n), where=mass > 0.0)
    return np.maximum(forward, forward[::-1]), bars


def worst_case_divergence(n, epsilon0, epsilon):
    """Exact smallest delta for which the shuffled one-bit protocol is
    (epsilon, delta)-DP: the max over every adjacent pair, m against m+1
    inputs equal to 1; every m in [0, n-1] is scanned, none assumed extremal."""
    return float(divergence_scan(n, epsilon0, epsilon).max())


@dataclass(frozen=True)
class CertificationRecord:
    """Outcome of checking the closed-form accountant against the oracle;
    its fields, under these names, are what `verify-amplification` prints.
    exact_delta is the windowed oracle's worst delta, within delta_bar of
    the exact one."""

    n: int
    eps0: float
    delta_target: float
    claimed_epsilon: float
    regime: str
    exact_delta: float
    delta_bar: float
    passed: bool


def certify_amplification(n, epsilon0, delta_target):
    """Check that the accountant's epsilon really delivers the target delta.

    Asks `amplify_shuffle` for its epsilon at the target delta, then
    computes the delta of the one-bit protocol at that epsilon with a
    window whose bar is at most 1e-12 of the target; the claim is sound
    iff delta + bar <= target.
    """
    claim = amplify_shuffle(epsilon0, n, delta_target)
    epsilon = claim.epsilon_central
    deltas, bars = divergence_bounds(n, epsilon0, epsilon, 1e-12 * delta_target)
    exact, bar = float(deltas.max()), float(bars.max())
    return CertificationRecord(
        n=int(n),
        eps0=float(epsilon0),
        delta_target=float(delta_target),
        claimed_epsilon=epsilon,
        regime=claim.regime,
        exact_delta=exact,
        delta_bar=bar,
        passed=bool(exact + bar <= delta_target),
    )
