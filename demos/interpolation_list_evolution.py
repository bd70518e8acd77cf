"""Polish a full set of approximate roots at once with interpolation lists.

Given one approximation sigma_k per root of f, the list stores for each k
the interpolation value d_k of f / (a_m prod(l - sigma_j)) at sigma_k and
the main value H_k = sigma_k - d_k. The H_k are the diagonal of an
accompanying matrix whose off-diagonal entries all equal the d_k column
values, so three classic devices come for free:

  * the main values themselves are improved root approximations,
  * sum(H_k) must equal -a_{m-1}/a_m exactly (a global sanity check),
  * Gershgorin disks around the H_k enclose the true roots.

Feeding the main values back in as the next sigma vector is one evolution
step. The demo runs the badly conditioned degree-10 product
(l - 1)(l - 2)...(l - 10) from starting values carrying 1e-9 level errors,
where evaluation noise, not the iteration, sets the floor.
"""

import numpy as np

from polyzeros import (
    build_ecp_list,
    evolve,
    gershgorin_enclosures,
    polynomial_from_roots,
    sum_control,
)

F = polynomial_from_roots(range(1, 11))
SEEDS = (
    10.000000000328654,
    8.999999998364443,
    8.000000003420013,
    6.999999996085851,
    6.000000002669752,
    4.999999998898655,
    4.000000000263102,
    2.999999999968169,
    2.000000000001345,
    1.0,
)


def describe(lst, label):
    print("%s: max|d| %.2e   max main-value error %.2e"
          % (label,
             max(abs(d) for d in lst.defects),
             max(abs(h - round(h.real)) for h in lst.main_values)))


def main():
    lst = build_ecp_list(F, SEEDS)
    describe(lst, "list from 1e-9 accurate starts")

    control = sum_control(lst)
    print("sum of main values %.12f vs expected %.1f (discrepancy %.1e)"
          % (control.actual.real, control.expected.real,
             control.discrepancy))
    assert control.expected == 55.0

    second = evolve(lst, F)
    third = evolve(second, F)
    describe(second, "after one evolution")
    describe(third, "after two evolutions")
    # The evolved defects sit at the evaluation noise floor, well below
    # the first list's (up to 4e-9).
    for evolved in (second, third):
        assert max(abs(d) for d in evolved.defects) <= 1e-9

    print("\nGershgorin enclosures around the main values:")
    for disk in gershgorin_enclosures(third):
        if disk.interval is not None:
            lo, hi = disk.interval
            print("  root in (%.9f, %.9f)  width %.1e"
                  % (lo, hi, hi - lo))
        else:
            print("  disk at %s radius %.1e (overlaps a neighbour)"
                  % (disk.center, disk.radius))
    radii = [d.radius for d in gershgorin_enclosures(third)]
    assert np.max(radii) < 1e-8


if __name__ == "__main__":
    main()
