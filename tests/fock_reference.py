"""The Fock oracle's expansion as a term-by-term dict loop, kept as a reference.

bosonspectra.oracle expands on arrays and promises the values of this
loop bit for bit: the same occupation keys in the same insertion order,
the same amplitudes, and the same marginal sums added in the same
order. Inputs are assumed valid and within the oracle's caps.
"""

import math

AMPLITUDE_PRUNE = 1e-15


def fock_amplitudes(interferometer, lam, inputs) -> dict[tuple[int, ...], complex]:
    """{occupation over the m * N joint modes (spatial-major): amplitude}, in insertion order."""
    m = interferometer.m
    n = lam.n
    nb = lam.basis_size
    u = interferometer.matrix
    vacuum = (0,) * (m * nb)
    # Coefficients of operator monomials prod_w (a_w^dag)^{occ_w} |0>;
    # the sqrt(occ!) conversion to normalized states happens at the end.
    raw: dict[tuple[int, ...], complex] = {vacuum: 1.0 + 0.0j}
    for j in range(n):
        row = lam.matrix[j]
        port = inputs[j] - 1
        new: dict[tuple[int, ...], complex] = {}
        for occ, coeff in raw.items():
            for i in range(nb):
                li = row[i]
                if li == 0.0:
                    continue
                for k in range(m):
                    amp = coeff * li * u[k, port]
                    if amp == 0.0:
                        continue
                    pos = k * nb + i
                    key = occ[:pos] + (occ[pos] + 1,) + occ[pos + 1 :]
                    new[key] = new.get(key, 0.0 + 0.0j) + amp
        raw = new

    amplitudes = {}
    for occ, coeff in raw.items():
        amp = coeff * math.sqrt(math.prod(math.factorial(c) for c in occ))
        if abs(amp) > AMPLITUDE_PRUNE:
            amplitudes[occ] = amp
    return amplitudes


def marginals(amplitudes, m: int, nb: int) -> dict[tuple[int, ...], float]:
    """Summed |amp|^2 per spatial signature, added in amplitude order."""
    table: dict[tuple[int, ...], float] = {}
    for occ, amp in amplitudes.items():
        marginal = tuple(sum(occ[k * nb : (k + 1) * nb]) for k in range(m))
        table[marginal] = table.get(marginal, 0.0) + abs(amp) ** 2
    return table
