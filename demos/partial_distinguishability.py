#!/usr/bin/env python3
"""Three photons between the two limits of boson sampling.

With identical photons, output probabilities are |Per(U_MT)|^2 / M!
for a complex submatrix: genuine multi-photon interference. With fully
distinguishable photons they collapse to Per(|U_MT|^2) / M!, a purely
classical combination of single-photon probabilities (M! is the
product of the output occupations' factorials). In between, the
engine sums over the ways the photons split between spectral basis
functions: term by term (the split sum), or in closed form over pairs
of Glynn sign vectors (the pair sum), whichever costs less.

This script stretches the mutual delays of three Gaussian photons in a
random 5-mode interferometer and watches selected output probabilities
migrate from the quantum to the classical value.
"""

from bosonspectra import (
    GaussianWavepacket,
    distribution_nonresolved,
    lambda_from_photons,
    make_random_unitary,
    probability_distinguishable_fast,
    probability_indistinguishable_fast,
)


def main():
    u = make_random_unitary(5, seed=7)
    inputs = (1, 2, 3)
    t_occ = (1, 1, 1, 0, 0)
    watched = [(1, 1, 1, 0, 0), (2, 0, 1, 0, 0), (0, 1, 0, 1, 1)]

    print("Random 5-mode network, photons in modes 1-3, spacing d between delays")
    header = "   ".join(f"P{sig}" for sig in watched)
    print(f"{'d':>6}   {header}")
    for spread in [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0]:
        photons = [GaussianWavepacket(0.0, 1.0, tau=k * spread) for k in range(3)]
        lam = lambda_from_photons(photons)
        dist = distribution_nonresolved(u, lam, inputs)
        row = "   ".join(f"{dist[sig]:12.9f}" for sig in watched)
        print(f"{spread:6.2f}   {row}  (N = {lam.basis_size} basis functions)")

    print()
    print("Limits for the three watched signatures:")
    for sig in watched:
        quantum = probability_indistinguishable_fast(u, sig, t_occ)
        classical = probability_distinguishable_fast(u, sig, t_occ)
        print(f"  {sig}: |Per|^2 / M! = {quantum:.9f}   Per(|U|^2) / M! = {classical:.9f}")

    print()
    print("d = 0 reproduces the quantum limit; large d approaches the classical one.")


if __name__ == "__main__":
    main()
