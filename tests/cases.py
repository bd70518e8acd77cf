"""Worked-example data shared across the test modules.

Coefficients ascending. Values quoted to all printed digits come from the
reference tables these scenarios reproduce; deliberately perturbed starting
values play the role of output from an external coarse solver.
"""

# Degree-6 polynomial with a double root at 2 and a quadruple root at -1:
# 4 + 12 l + 9 l^2 - 4 l^3 - 6 l^4 + l^6.
DOUBLE_QUAD_SEXTIC = (4.0, 12.0, 9.0, -4.0, -6.0, 0.0, 1.0)
DOUBLE_QUAD_SCAN_VALUES = {
    0.3: -5.261904761904761e-01,
    1.8: +1.166666666666663e-01,
    2.1: -4.696969696969665e-02,
}
DOUBLE_QUAD_CO_SCAN_VALUES = {
    0.3: -2.064102564102564e-01,
    0.6: -1.083333333333336e-01,
    0.9: -2.543859649125041e-02,
    1.2: +4.848484848484354e-02,
    1.5: +1.166666666666667e-01,
}
DOUBLE_QUAD_SEED_NU2 = 2.01389
DOUBLE_QUAD_CO_SEED = 1.00324

# Sparse 5x5 quadratic matrix polynomial with dominant diagonal.
SPARSE_PENTA_A0 = (
    (5, -1, 0, 0, 0),
    (-1, 9, -3, -2, 0),
    (0, -3, 6, -2, 0),
    (0, -2, -2, 12, -5),
    (0, 0, 0, -5, 8),
)
SPARSE_PENTA_A1 = (
    (2, 0, 0, 0, 0),
    (0, 3, 0, 0, 0),
    (0, 0, 0, 0, 0),
    (0, 0, 0, 1, -1),
    (0, 0, 0, -1, 4),
)
SPARSE_PENTA_A2 = (
    (3, 0, 0, 0, 0),
    (0, 1, 0, 0, 0),
    (0, 0, 1, 0, 0),
    (0, 0, 0, 1, 0),
    (0, 0, 0, 0, 4),
)
SPARSE_PENTA_CHAR = (
    12221.0, 19366.0, 33492.0, 28079.0, 23637.0,
    11574.0, 5699.0, 1631.0, 489.0, 68.0, 12.0,
)
SPARSE_PENTA_DIAGONAL_ZEROS = (
    complex(-1.0 / 3.0, +1.247219128924647),
    complex(-1.0 / 3.0, -1.247219128924647),
    complex(-1.5, +2.598076211353316),
    complex(-1.5, -2.598076211353316),
    complex(0.0, +2.449489742783178),
    complex(0.0, -2.449489742783178),
    complex(-0.5, +3.427827300200522),
    complex(-0.5, -3.427827300200522),
    complex(-0.5, +1.322875655532295),
    complex(-0.5, -1.322875655532295),
)
SPARSE_PENTA_SEED = complex(-1.5, 2.598076211353316)
SPARSE_PENTA_EIGENVALUE = complex(-1.017750736592877, 2.624392368810308)

# Wilkinson-10 approximation list: starting values with 1e-9-level errors
# and the interpolation-list rows they induce.
WILKINSON10_SEEDS = (
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
WILKINSON10_LIST1_DEFECTS = (
    +3.727125322099494e-10,
    -1.720094133611112e-09,
    +3.167697847832428e-09,
    -4.044785689387324e-09,
    +2.348194056725277e-09,
    -1.197945997413012e-09,
    +2.777798930869391e-10,
    -3.340011018696152e-11,
    +1.212659602373197e-12,
    0.0,
)
WILKINSON10_LIST1_MAIN = (
    9.999999999955941,
    9.000000000084537,
    8.000000000252316,
    7.000000000130637,
    6.000000000321559,
    5.000000000096601,
    3.999999999985322,
    3.000000000001569,
    2.000000000000132,
    1.0,
)
WILKINSON10_LIST2_ROW1 = (
    9.999999999955941, -5.567454977060759e-11, 1.000000000001162e+01,
)
WILKINSON10_LIST3_ROW1 = (1.774461056701600e-11, 9.999999999993872)

# Five-point pencil A + lambda*I and the quintic with the root layout
# (l+2)(l+1)^2 (l-1)^2 used alongside it.
PENCIL5_A = (
    (-1, 0, 1, 0, 0),
    (0, 0, 0, 1, 0),
    (1, 0, 0, 0, 1),
    (0, 1, 0, 0, 0),
    (0, 0, 0, 1, -1),
)
QUAD_QUINT = (2.0, 1.0, -4.0, -2.0, 2.0, 1.0)
QUAD_QUINT_SEED_NU2 = -9.999999901033162e-01
QUAD_QUINT_SEED_NU1 = -1.999999999999996e+00
PENCIL5_SEEDS = (
    complex(-1.999999999999996, 0.0),
    complex(1.0, +7.768125062636118e-09),
    complex(1.0, -7.768125062636118e-09),
    complex(-1.000000009896685, 0.0),
    complex(-9.999999901033162e-01, 0.0),
)

# Degree-10 polynomial with two double and two triple conjugate roots:
# 6 (l^2+1)^2 (l^2+l+1)^3.
CLUSTER_DECIC = (
    6.0, 18.0, 48.0, 78.0, 114.0, 120.0, 114.0, 78.0, 48.0, 18.0, 6.0,
)
CLUSTER_DECIC_SEED_NU3 = complex(
    -5.000094136551562e-01, 8.660276783463672e-01
)
CLUSTER_DECIC_ROOT_NU3 = complex(-0.5, 8.660254037844386e-01)

# Wilkinson-5 scaled by 3: 3 (l-1)(l-2)(l-3)(l-4)(l-5).
QUINTIC_15 = (-360.0, 822.0, -675.0, 255.0, -45.0, 3.0)
QUINTIC_15_SCAN_VALUES = {
    0.0: +4.379562043795621e-01,
    0.3: +3.484061594869381e-01,
    0.6: +2.408279034112688e-01,
    0.9: +8.366965417990657e-02,
    1.2: -3.884787018255549e-01,
}
QUINTIC_15_RF = 9.531631550437540e-01

# Perturbed Wilkinson-10 spectrum approximations sigma_k = k (1 + 1e-4).
PERTURBED_WILKINSON_SIGMAS = tuple(k + 1e-4 * k for k in range(1, 11))
PERTURBED_WILKINSON_SEED = 3.000000368155010
PERTURBED_WILKINSON_FIRST_STEP = -3.677030854107595e-07

# 2x2 quartic matrix polynomial with singular leading matrix; its
# determinant has effective degree 5 instead of the nominal 8.
SINGULAR_LEAD_MATRICES = (
    ((1, 0), (0, 1)),
    ((1, 1), (1, 1)),
    ((2, 1), (0, 1)),
    ((0, 0), (0, 0)),
    ((0, 1), (0, 0)),
)
SINGULAR_LEAD_CHAR = (1.0, 2.0, 3.0, 2.0, 2.0, -1.0)
SINGULAR_LEAD_REAL_ROOT = 3.056809390409065
SINGULAR_LEAD_ACCEL_SEED = 3.056811621817845

# Degree-8 benchmark problem mult-d8-82 (multiple-roots workload, seed
# 301): a triple root, a quadruple root and a simple root near
# 0.758-0.853j whose companion-matrix seed already lies within 1e-11 of it.
# Companion seeds plus detect lose that root: the nu=1 probe's steps of a
# few 1e-12 count as significant and do not contract tenfold.
MULT_D8_82 = (
    complex(-4.6689359409572155, 0.7202080369220196),
    complex(28.016530510132924, 6.178550848014378),
    complex(-64.47990125537326, -44.15687914114147),
    complex(67.76191718910334, 104.46488718134628),
    complex(-21.410057453258197, -124.98792109799813),
    complex(-20.657562840971845, 81.93414323905401),
    complex(22.485148744911445, -28.093246970061713),
    complex(-8.04703958169832, 3.9402352960982023),
    complex(1.0, 0.0),
)

# Degree-9 benchmark problem real-d9-90 (real-scan workload, seed 4242):
# triple roots near -1.927, 0.258 and 2.409. Explore seeds plus the full
# probe sweep lost the root at 0.258: the winners nearest its seed held no
# nu that passed the derivative ladder.
REAL_D9_90 = (
    1.7118083094957224, -19.394010072018315, 70.06612122196647,
    -63.920789825486096, -75.7525367983819, 48.501072550761386,
    23.23492066784058, -11.911243496609202, -2.2191983235232966, 1.0,
)
