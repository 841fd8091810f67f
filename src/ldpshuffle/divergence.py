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

The cut. R_m sums N independent Bernoullis, m ones with odds e^e0 and
N-m zeros with odds e^-e0, so R_m(x) is proportional to the elementary
symmetric polynomial e_x of the odds. Every x-subset arises x times as an
(x-1)-subset T plus one element not in T, so
x e_x = sum_{|T|=x-1} e_T sum_{i not in T} o_i. Each odd in T is at least
e^-e0, so the odds outside T sum to at most S_m - (x-1) e^-e0, where
S_m = m e^e0 + (N-m) e^-e0 is the odds sum, and
R_m(x)/R_m(x-1) <= (S_m - (x-1) e^-e0)/x. A forward term is positive only
where that ratio exceeds b/a, that is at x < (S_m + e^-e0)/(b/a + e^-e0).
S_m rises in m, so no pair m <= hi has a positive term at
x >= (hi + (n-hi) e^-2e0) / ((b/a) e^-e0 + e^-2e0). Bounding every odd by
e^e0 instead gives x e_x <= (N-x+1) e^e0 e_{x-1} and, for every pair, the
global cut x < n / (1 + (b/a) e^-e0) = n (1 - e^(eps-e0)) / (1 - e^-2e0);
the range bound is the smaller exactly where hi <= n - n / (1 + (b/a) e^-e0).
A range [lo, hi] of the split keeps its shared pmf, and a leaf its
columns, on [0, cut(hi)], the lesser of the two bounds (`_range_cut`). A
child's hi is at most its parent's, so its cut is too, and a prefix of a
convolution depends only on the prefixes of its operands: each range's
prefix is formed from its parent's alone, and the terms dropped past a
pair's cut are <= 0 in exact arithmetic and add exactly 0, to the deltas
and to the bars. Both bounds are widened for the entry error eta below
(`_log_tilt`), so that no term rounding could make positive is dropped
either, and are formed from logs of e^(eps-e0), 1 - e^(eps-e0) and
1 - e^-(eps+e0), never from e^e0 or e^eps. A child range whose cut
leaves it no entry has only 0 terms, and is not scanned. At the
accountant's epsilon on the verify grid n in {1000, 2000, 3000},
e0 in {0.25, 0.5} the six windowed scans reach no leaf block and window
62 shared pmfs and 92 builds in all, against 147 blocks and about 470
windows under the global cut alone.

The window. `divergence_bounds(n, e0, eps, bar)` also drops tails, so
that no pair's bar exceeds bar. With a + b = (p - q)(1 + e^eps) and
D = ceil(log2 n), every pmf the split forms loses its leading and
trailing runs of cumulative mass
<= tau_node = (bar / (a + b)) / (4 (D + 2)). Every binomial it convolves
with is windowed as it is built (`_binomials`): Bin(s, q) is the
convolution of the kept windows B1' and B2' of its halves, less its own
runs of mass <= tau_build = tau_node / (2n). With d1 and d2 the masses the
halves lack, B1*B2 - B1'*B2' = (B1 - B1')*B2 + B1'*(B2 - B2'), and
convolving with a nonnegative vector of mass at most 1 raises no L1 norm,
so ||B1*B2 - B1'*B2'||_1 <= d1 + d2. A build of size s < n, whose halving
tree holds s - 1 convolutions, so lacks at most (s - 1) 2 tau_build
< tau_node, less than one window of tau_node may drop, and a block's row
S_j, made of builds of sizes j and K - j, lacks less than tau_node too. A
root-to-leaf path windows at most D + 1 pmfs and D builds and ends in at
most one block row, so E_m, the mass dropped on pair m's path, is at most
3 (D + 1) tau_node < bar / (a + b). Each build carries the mass it lacks,
1 - (1 - d1)(1 - d2) = d1 + d2 - d1 d2 plus its own runs, and checks that
its convolution holds (1 - d1)(1 - d2), the product of its halves' kept
masses, within `PROB_TOLERANCE`, with the total that finding its window
reads. The bound, in three lines:
convolution with a probability vector keeps mass and every quantity is
nonnegative, so the windowed R'_m <= R_m entrywise and
||R_m - R'_m||_1 <= E_m; a term max(a R(x) - b R(x-1), 0) moves by at most
a |R - R'|(x) + b |R - R'|(x-1), so |delta_m - delta'_m| <= (a + b) E_m;
the bar is that, with E_m inflated for the relative rounding of the
cumsums that find the windows, and eta below applies on top.
`certify_amplification` passes bar = 1e-12 delta_target. `divergence_scan`
is the bar = 0 call: it drops exact zeros alone, at both ends of every
pmf, and its bars are 0. A range whose window is empty has only 0 terms.

The split. Every R_m comes from one split over m: for m in [lo, hi], all
R_m share the pmf of the first lo reports (ones) and the last n-1-hi
reports (zeros). Splitting at mid, the left half convolves that pmf with
Bin(hi-mid, q) for the reports it adds as zeros, the right half with
Bin(mid+1-lo, p), the reverse of Bin(mid+1-lo, q), for those it adds as
ones. A range of at most BLOCK pairs is one block: with K = hi - lo,
R_{lo+j} is the shared pmf convolved with S_j = Bin(j, p) * Bin(K-j, q).
S depends on K alone and the halving split makes at most two distinct K,
so S is built once per K; one product of its (K+1) x (K+1) matrix with
K+1 shifted copies of the shared pmf (overlapping rows of one strided
view of a zero-padded buffer, so no copy is made) gives every R_m of the
block, and one `_forward_sum` call finishes it. With L = cut(hi) + 1 that is
about 2n/BLOCK `np.convolve` calls and n/BLOCK matrix products, at most
about L n/2 multiply-adds per split level and BLOCK L per pair in the
blocks, and O(n log n) memory: one pmf prefix per level, the window of one
binomial for each size built and a block's (BLOCK x L) buffers; a window
shortens L to the pmf's window. At certify's bar the builds keep windows,
not full binomials: 2556 of the 10644 entries of the 22 sizes built at
n = 10^4, e0 = 0.5. The README gives the scans' timings, and
`BENCH_24.json` the benchmark's.

Precision. Each binomial is a convolution power of one report's pmf
[p, q]: Bin(s, q) is Bin(s//2, q) convolved with Bin(s - s//2, q), or
their windows. Until
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

The domain. The oracle is capped at n <= 10000 and, for a scan at
eps < e0, at e0 <= EXP_SAFE = 700. Past that cap q < e^-700, about
1e-304, so a one-bit report equals its input to float precision. A scan
at the least float, e0 = 5e-324, is refused too: its half rounds to 0, so
a + b = tanh(e0/2) (1 + e^eps) is 0, and every larger e0 gives a positive
a + b. Inside the domain one arithmetic path serves: e^eps <= e^700, so b
and a + b are finite; log(rho (b/a) e^-e0) > eps - e0 - 3 eta > -701,
so the range cut's scale is finite; and eta < 1e-9, so rounding never
swamps an entry.
"""

import math
from dataclasses import dataclass

import numpy as np

from .amplification import amplify_shuffle
from .core import PROB_TOLERANCE, check_budget, check_count, check_real
from .errors import InvalidParameterError

ORACLE_MAX_N = 10_000

# The largest e0 a scan below e0 takes (module docstring, "The domain"):
# e^x overflows past x ~ 709.78, and past e0 = 700 q < e^-700 ~ 1e-304, so
# that a one-bit report equals its input to float precision.
EXP_SAFE = 700.0

# The split stops at ranges of at most this many pairs and finishes each
# with one matrix product. Under the range cuts the certify grid reaches no
# such range, so the larger scans set it: at n = 10^4, e0 = 0.5, 32 sped up
# the windowed scan at eps = 0.05 by about a quarter but slowed the bar = 0
# scan there by about a third (one thread). Smaller blocks, more and smaller
# products, are slower.
BLOCK = 16


def _entry_error(n, epsilon0):
    """eta of the module docstring: the relative error of every entry of
    every R_m above the underflow range."""
    u = 2.0 ** -53
    return n * (3.0 + epsilon0) * u + ((math.ceil(math.log2(n)) + 1) * n + 2 * BLOCK) * u


def _log_tilt(n, epsilon0, epsilon):
    """log(rho (b/a) e^-e0), with (b/a) e^-e0 =
    e^(eps-e0) (1 - e^-(eps+e0)) / (1 - e^(eps-e0)) and
    rho = (1 - eta) / (1 + eta) for the entry error eta of the module
    docstring, since a computed term is positive only where
    R(x) (1 + eta) a > R(x-1) (1 - eta) b."""
    eta = _entry_error(n, epsilon0)
    return (math.log1p(-eta) - math.log1p(eta) + (epsilon - epsilon0)
            + math.log(-math.expm1(-epsilon - epsilon0))
            - math.log(-math.expm1(epsilon - epsilon0)))


def _cut(n, epsilon0, epsilon):
    """Last x at which a forward term of any pair can come out positive:
    the largest integer x <= n / (1 + rho (b/a) e^-e0) (`_log_tilt`)."""
    log_tilt = _log_tilt(n, epsilon0, epsilon)
    return min(n - 1, math.floor(n * math.exp(-np.logaddexp(0.0, log_tilt))))


def _range_cut(n, epsilon0, epsilon):
    """The function hi -> last x at which a forward term of a pair m <= hi
    can come out positive: the largest integer x at most `_cut` and at most
    (hi + (n-hi) e^-2e0) / (rho (b/a) e^-e0 + e^-2e0) (module docstring)."""
    last = _cut(n, epsilon0, epsilon)
    log_den = np.logaddexp(_log_tilt(n, epsilon0, epsilon), -2.0 * epsilon0)
    zeros, scale = math.exp(-2.0 * epsilon0), math.exp(-log_den)
    return lambda hi: min(last, math.floor((hi + (n - hi) * zeros) * scale))


def _forward_sum(R, a, b):
    """sum_x max(a R(x) - b R(x-1), 0), with R(-1) = 0, for each row R of
    an array of nonnegative pmf prefixes (one row per pair)."""
    terms = a * R
    terms[..., 1:] -= b * R[..., :-1]
    return np.maximum(terms, 0.0, out=terms).sum(axis=-1)


def _window(values, tau):
    """Bounds [first, last) of values without their leading and trailing
    runs of cumulative mass <= tau (empty if the runs meet), the mass of the
    two runs and the total mass. values are nonnegative, so each cumsum is
    monotone, and an end above tau (or no entries) leaves nothing to drop
    there: then its cumsum is not formed, since its run is empty."""
    if not len(values) or values[0] > tau and values[-1] > tau:
        return 0, len(values), 0.0, float(values.sum())
    head = values.cumsum()
    first = int(head.searchsorted(tau, "right"))
    dropped = head[first - 1] if first else 0.0
    trail = 0
    if values[-1] <= tau:
        tail = values[::-1].cumsum()
        trail = int(tail.searchsorted(tau, "right"))
        dropped += tail[trail - 1]
    return first, len(values) - trail, float(dropped), float(head[-1])


def _binomials(p, q, tau):
    """The builder of windowed binomials: size, ones -> (first, kept,
    dropped), with kept the entries of Bin(size, q), the count pmf of size
    reports that all hold 0, from index first on, or those of Bin(size, p),
    its reverse, if ones; dropped is the mass they lack, their L1 distance
    from the exact pmf. Bin(size, q) is the convolution of the kept windows
    of Bin(size//2, q) and Bin(size - size//2, q), whose mass must be the
    product of theirs, less its leading and trailing runs of mass <= tau
    (module docstring, "The window"). Each build is memoised."""
    builds = {0: (0, np.ones(1), 0.0), 1: (0, np.array([p, q]), 0.0)}

    def binomial(size, ones=False):
        if size not in builds:
            low, kept_low, dropped_low = binomial(size // 2)
            high, kept_high, dropped_high = binomial(size - size // 2)
            probs = np.convolve(kept_low, kept_high)
            first, last, dropped, total = _window(probs, tau)
            mass = (1.0 - dropped_low) * (1.0 - dropped_high)
            if not abs(total - mass) <= PROB_TOLERANCE:  # also catches nan
                raise ArithmeticError(f"count distribution sums to {total!r}, not {mass!r}, "
                                      f"outside tolerance {PROB_TOLERANCE}")
            builds[size] = (low + high + first, probs[first:last],
                            dropped_low + dropped_high - dropped_low * dropped_high + dropped)
        first, kept, dropped = builds[size]
        if ones:
            return size + 1 - first - len(kept), kept[::-1], dropped
        return first, kept, dropped

    return binomial


def divergence_scan(n, epsilon0, epsilon):
    """Hockey-stick divergence between the m and m+1 count distributions,
    for every m in [0, n-1]; returns the length-n array of deltas. This is
    `divergence_bounds` at bar = 0, which drops exact zeros alone."""
    return divergence_bounds(n, epsilon0, epsilon, 0.0)[0]


def divergence_bounds(n, epsilon0, epsilon, bar):
    """`divergence_scan` with every pmf windowed so that no pair's bar
    exceeds bar (module docstring); returns (deltas, bars), each computed
    delta within its bar of the exact one (rounding eta aside). At bar = 0
    every bar is 0. At epsilon >= epsilon0 every delta is 0; below it
    epsilon0 must be at most EXP_SAFE, and above 5e-324, the least float,
    at which a + b underflows (module docstring, "The domain")."""
    n = check_count(n, "n", low=2, high=ORACLE_MAX_N)
    epsilon0 = check_budget(epsilon0, "epsilon0")
    epsilon = check_budget(epsilon, zero_ok=True)
    bar = check_budget(bar, "bar", zero_ok=True)
    forward, lost = np.zeros(n), np.zeros(n)
    if epsilon >= epsilon0:
        return forward, lost
    check_real(epsilon0, "epsilon0 above epsilon", 0.0, EXP_SAFE, "(]")
    # q from e^-e0, not 1 - p, which is 0 once p rounds to 1
    log_p = -math.log1p(math.exp(-epsilon0))
    p, q = math.exp(log_p), math.exp(log_p - epsilon0)
    a = -p * math.expm1(epsilon - epsilon0)          # p - e^eps q
    b = p * math.expm1(epsilon) + math.tanh(epsilon0 / 2.0)  # e^eps p - q
    scale = math.tanh(epsilon0 / 2.0) * (1.0 + math.exp(epsilon))  # a + b
    if scale == 0.0:  # tanh(e0 / 2) underflows, at the least e0 alone
        raise InvalidParameterError(f"epsilon0 above epsilon is too small to scan, got "
                                    f"{epsilon0!r}: a + b underflows to 0")
    cut = _range_cut(n, epsilon0, epsilon)
    depth = math.ceil(math.log2(n))
    tau_node = bar / scale / (4 * (depth + 2))
    # a build of size s windows s - 1 convolutions at tau_node / (2n) each,
    # so it drops less than tau_node (module docstring)
    binomial = _binomials(p, q, tau_node / (2 * n))
    blocks = {}

    def block(width):
        # row j is S_j = Bin(j, p) * Bin(width - j, q), reversed, so that
        # row j times the shifted copies of a block's shared pmf is R_lo+j;
        # costs[j] is the mass the builds of its two binomials dropped
        if width not in blocks:
            rows, costs = np.zeros((width + 1, width + 1)), np.zeros(width + 1)
            for j in range(width + 1):
                (ones, kept_ones, cost_ones), (zeros, kept_zeros, cost_zeros) = (
                    binomial(j, True), binomial(width - j))
                row = np.convolve(kept_ones, kept_zeros)
                rows[j, ones + zeros:ones + zeros + len(row)] = row
                costs[j] = cost_ones + cost_zeros
            blocks[width] = rows[:, ::-1].copy(), costs
        return blocks[width]

    def scan(lo, hi, probs, start, spent):
        # probs[i] is entry start + i of the count pmf shared by R_lo .. R_hi
        # (lo reports holding 1, n-1-hi holding 0), cut to [0, cut(hi)], and
        # spent the mass the windows on the way here dropped. Where its
        # window is empty, every term is 0
        first, last, dropped, _ = _window(probs, tau_node)
        spent += dropped
        if first >= last:
            lost[lo:hi + 1] = spent
            return
        base, start = probs[first:last], start + first
        width = hi - lo
        if width >= BLOCK:
            mid = (lo + hi) // 2
            # the left half adds hi - mid reports holding 0, the right half
            # mid + 1 - lo holding 1; keep is how many child entries precede
            # the child's own cut, which is never above this range's. A
            # child that keeps none has only 0 terms, as an empty window
            for (sub_lo, sub_hi), (offset, kept, cost) in (
                    ((lo, mid), binomial(hi - mid)),
                    ((mid + 1, hi), binomial(mid + 1 - lo, True))):
                keep = cut(sub_hi) + 1 - start - offset
                if keep > 0:
                    scan(sub_lo, sub_hi, np.convolve(base[:keep], kept[:keep])[:keep],
                         start + offset, spent + cost)
                else:
                    lost[sub_lo:sub_hi + 1] = spent + cost
            return
        # row s of shifted is base moved right by width - s; column i is
        # entry start + i of R_lo .. R_hi, up to cut(hi) or to n - 1
        padded = np.zeros(len(base) + 2 * width)
        padded[width:width + len(base)] = base
        # the rows overlap in padded's memory: shifted must never be written to
        columns = min(cut(hi) + 1 - start, len(base) + width)
        shifted = np.ndarray((width + 1, columns), buffer=padded,
                             strides=(padded.itemsize, padded.itemsize))
        rows, costs = block(width)
        forward[lo:hi + 1] = _forward_sum(rows @ shifted, a, b)
        lost[lo:hi + 1] = spent + costs

    scan(0, n - 1, np.ones(1), 0, 0.0)
    # the backward sum of pair m is the forward sum of pair n-1-m; the bar
    # covers the rounding of the cumsums (at most n + 1 terms), of the
    # masses the builds carry (at most D levels), of the sums of lost and
    # of a + b
    mass = np.maximum(lost, lost[::-1]) * (1.0 + 2 * (n + 4 * depth + 8) * 2.0 ** -53)
    return np.maximum(forward, forward[::-1]), mass * scale


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


def certify_amplification(n, epsilon0, delta_target, claim=None):
    """Check that the accountant's epsilon really delivers the target delta.

    Takes the accountant's claim, `amplify_shuffle(epsilon0, n,
    delta_target)`, from a caller that already holds it, or asks for it,
    then computes the delta of the one-bit protocol at its epsilon with a
    window whose bar is at most 1e-12 of the target; the claim is sound
    iff delta + bar <= target.
    """
    if claim is None:
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
