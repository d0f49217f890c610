"""Exact rational reference probabilities, standard library only.

Complex numbers are (re, im) pairs of fractions.Fraction (or, inside the
permanent loops, of ints over one common denominator), so every
probability here is an exact rational number. Inputs are exact too:

* rational unitaries from the Cayley transform U = (I - K)(I + K)^(-1)
  of a skew-Hermitian K with Gaussian-rational entries;
* unit coefficient rows built from Pythagorean triples, such as
  (3/5, 4i/5) or (3/5 * 5/13, 3/5 * 12i/13, 4/5 * 8/17, 4/5 * 15i/17).

Blind probabilities come from the tau-sum

    P(M) = (1 / prod M!) sum_tau prod_j G[j, tau(j)] Per(B o conj(B[:, tau])),

G = lambda lambda^dag (or a Gram matrix given as it is) and B = U_{M,T},
or from the pair sum over Glynn's sign vectors eps (eps_0 = +1)

    P(M) = 2^(1-n) / prod M! sum_eps (prod eps) Per(A_eps),
    A_eps[k, j] = sum_l eps_l U[k, T_j] conj(U[k, T_l]) G[j, l],

row k repeated M_k times, whose 2^(n-1) permanents of size n reach
n = 8 where the n! tau-sum does not; resolved ones come from
|Per(A_S)|^2 / prod S_vec!, A[(i, k), j] = U[k, T_j] lambda[j, i], with
naive permanents throughout. ryser_permanent gives exact permanents of
sizes past the naive sum's reach. Nothing here uses numpy or the package.
"""

import itertools
import math
import random
from fractions import Fraction

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))
PYTHAGOREAN = [(3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29), (9, 40, 41)]


def add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def conj(a):
    return (a[0], -a[1])


def abs2(a) -> Fraction:
    return a[0] * a[0] + a[1] * a[1]


def to_complex(a) -> complex:
    return complex(float(a[0]), float(a[1]))


def permanent(rows):
    """Naive permanent of a square matrix of (re, im) pairs."""
    total = (0, 0)
    for perm in itertools.permutations(range(len(rows))):
        term = (1, 0)
        for row, col in zip(rows, perm):
            term = mul(term, row[col])
        total = add(total, term)
    return total


def ryser_permanent(matrix):
    """Per(matrix) of a square matrix of Fraction (re, im) pairs, by Ryser's formula.

    Per(A) = sum over column subsets S of (-1)^(k - |S|) prod_i sum_{j in S} A[i][j].
    With A = N / d over Gaussian integers (_integral), the 2^k subsets are
    walked in Gray-code order, one column in or out per step, and the sum
    runs over ints; only the result is divided by d^k.
    """
    k = len(matrix)
    if k == 0:
        return ONE
    rows, d = _integral(matrix)
    sums = [(0, 0)] * k
    total = (0, 0)
    gray = 0
    for t in range(1, 1 << k):
        new_gray = t ^ (t >> 1)
        j = (new_gray ^ gray).bit_length() - 1
        sign = 1 if new_gray > gray else -1
        sums = [(s[0] + sign * row[j][0], s[1] + sign * row[j][1]) for s, row in zip(sums, rows)]
        gray = new_gray
        term = (1, 0)
        for s in sums:
            term = mul(term, s)
        if (k - bin(gray).count("1")) % 2:
            term = (-term[0], -term[1])
        total = add(total, term)
    return (Fraction(total[0], d**k), Fraction(total[1], d**k))


def _inverse(matrix):
    """Gauss-Jordan inverse of an invertible complex rational matrix."""
    m = len(matrix)
    work = [list(row) + [ONE if i == j else ZERO for j in range(m)] for i, row in enumerate(matrix)]
    for col in range(m):
        pivot = next(r for r in range(col, m) if work[r][col] != ZERO)
        work[col], work[pivot] = work[pivot], work[col]
        p = work[col][col]
        norm = abs2(p)
        inv = (p[0] / norm, -p[1] / norm)
        work[col] = [mul(inv, x) for x in work[col]]
        for r in range(m):
            if r != col and work[r][col] != ZERO:
                f = work[r][col]
                work[r] = [add(x, mul((-f[0], -f[1]), y)) for x, y in zip(work[r], work[col])]
    return [row[m:] for row in work]


def cayley_unitary(m: int, seed: int):
    """U = (I - K)(I + K)^(-1) for a skew-Hermitian K with small Gaussian-rational entries."""
    rnd = random.Random(seed)

    def entry():
        return (Fraction(rnd.randint(-3, 3), rnd.randint(1, 4)), Fraction(rnd.randint(-3, 3), rnd.randint(1, 4)))

    k = [[ZERO] * m for _ in range(m)]
    for i in range(m):
        k[i][i] = (Fraction(0), entry()[1])
        for j in range(i + 1, m):
            k[i][j] = entry()
            k[j][i] = (-k[i][j][0], k[i][j][1])
    minus = [[add(ONE if i == j else ZERO, (-k[i][j][0], -k[i][j][1])) for j in range(m)] for i in range(m)]
    plus_inv = _inverse([[add(ONE if i == j else ZERO, k[i][j]) for j in range(m)] for i in range(m)])
    return [[_dot(minus[i], [row[j] for row in plus_inv]) for j in range(m)] for i in range(m)]


def _dot(a, b):
    total = (0, 0)
    for x, y in zip(a, b):
        total = add(total, mul(x, y))
    return total


def unit_row(r: int, pick: int):
    """A unit coefficient row of length r from Pythagorean triples.

    r = 2 gives (a/c, i b/c); a longer row joins rows of length
    ceil(r/2) and floor(r/2), scaled by a/c and b/c.
    """
    if r == 1:
        return [ONE]
    a, b, c = PYTHAGOREAN[pick % len(PYTHAGOREAN)]
    if r == 2:
        return [(Fraction(a, c), Fraction(0)), (Fraction(0), Fraction(b, c))]
    first, second = unit_row((r + 1) // 2, pick + 1), unit_row(r // 2, pick + 2)
    return [mul((Fraction(a, c), Fraction(0)), x) for x in first] + [
        mul((Fraction(b, c), Fraction(0)), x) for x in second
    ]


def _repeat(occ):
    return [k for k, c in enumerate(occ) for _ in range(c)]


def _integral(matrix):
    """(N, d) with matrix = N / d, N of Gaussian-integer (re, im) int pairs, d a positive int.

    Sums of products of such entries stay integers, so the permanent
    loops below make no Fraction at all.
    """
    d = math.lcm(*(x.denominator for row in matrix for z in row for x in z))
    return [[(int(z[0] * d), int(z[1] * d)) for z in row] for row in matrix], d


def gram(lam):
    """G = lambda lambda^dag, G[j][k] = sum_i lambda[j][i] conj(lambda[k][i])."""
    return [[_dot(row, [conj(x) for x in other]) for other in lam] for row in lam]


def probability_nonresolved(u, lam, inputs, sig) -> Fraction:
    """P(M) by the tau-sum over lambda's Gram matrix; inputs are 1-based modes."""
    return probability_nonresolved_gram(u, gram(lam), inputs, sig)


def probability_nonresolved_gram(u, g, inputs, sig) -> Fraction:
    """P(M) by the tau-sum over the Hermitian Gram matrix g itself. Exact, so its imaginary part is 0.

    With U = N / d and g = H / c, every tau term carries the same
    denominator c^n d^(2n), so the sum runs over integers.
    """
    n = len(g)
    (nu, d), (h, c) = _integral(u), _integral(g)
    b = [[nu[k][t - 1] for t in inputs] for k in _repeat(sig)]
    total = (0, 0)
    for tau in itertools.permutations(range(n)):
        weight = (1, 0)
        for j in range(n):
            weight = mul(weight, h[j][tau[j]])
        if weight == (0, 0):
            continue
        stack = [[mul(row[j], conj(row[tau[j]])) for j in range(n)] for row in b]
        total = add(total, mul(weight, permanent(stack)))
    assert total[1] == 0
    return Fraction(total[0], c**n * d ** (2 * n) * math.prod(math.factorial(k) for k in sig))


def probability_nonresolved_eps(u, g, inputs, sig) -> Fraction:
    """P(M) by the pair sum over sign vectors, from U and the Hermitian Gram matrix g. Exact, so real.

    With U = N / d and g = H / c, A_eps = N_eps / (c d^2) over Gaussian
    integers, so every permanent runs over ints.
    """
    n = len(g)
    (nu, d), (h, c) = _integral(u), _integral(g)
    b = [[nu[k][t - 1] for t in inputs] for k in _repeat(sig)]
    total = (0, 0)
    for signs in itertools.product((1, -1), repeat=n - 1):
        eps = (1, *signs)
        rows = [[_dot([mul(row[j], conj(row[l])) for l in range(n)], [mul((e, 0), h[j][l]) for l, e in enumerate(eps)])
                 for j in range(n)] for row in b]
        per = ryser_permanent(rows)
        total = add(total, per if math.prod(eps) > 0 else (-per[0], -per[1]))
    assert total[1] == 0
    return Fraction(total[0], 2 ** (n - 1) * (c * d * d) ** n * math.prod(math.factorial(k) for k in sig))


def probability_resolved(u, lam, inputs, outcome) -> Fraction:
    """|Per(A_S)|^2 / prod S_vec! for a resolved outcome, one occupation tuple per basis function."""
    n = len(lam)
    (nu, d), (nl, c) = _integral(u), _integral(lam)
    rows = [
        [mul(nu[k][t - 1], nl[j][i]) for j, t in enumerate(inputs)]
        for i, part in enumerate(outcome)
        for k in _repeat(part)
    ]
    norm = math.prod(math.factorial(k) for part in outcome for k in part)
    return Fraction(abs2(permanent(rows)), (c * d) ** (2 * n) * norm)
