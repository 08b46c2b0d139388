#!/usr/bin/env python3
"""An exact and a non-exact series on the smallest interesting curve model.

The model curve has two rational components glued at one node, degree 1, so
every twisted section space is two-dimensional: at index 0 sections look
like (a + b t, a s), at index 1 like (b t, b + c s). A rank-0 series picks a
line in each space; the linking conditions compare block images across the
node. One choice below is exact (the images match on the nose), the other is
merely compatible and the numerical data spots the defect as a lost unit of
mobile dimension.
"""

from fractions import Fraction as F

from nodalseries import (
    CurveModel,
    LimitLinearSeries,
    Subspace,
    build_delta,
    check_compatible,
    check_exact,
    numerical_data,
    section_space,
)

model = CurveModel(1)
ladder = build_delta(1, (1,))

print("section space at 0:", [tuple(map(str, r)) for r in section_space(model, F(0)).rows])
print("section space at 1:", [tuple(map(str, r)) for r in section_space(model, F(1)).rows])
print()

# ambient coordinates: (t^0, t^1 | s^0, s^1)
exact_series = LimitLinearSeries(
    model, 0, ladder,
    (
        Subspace.from_spanning(4, [(1, 0, 0, 1)]),  # the line through (1, s)
        Subspace.from_spanning(4, [(0, 0, 0, 1)]),  # the line through (0, s)
    ),
)
lazy_series = LimitLinearSeries(
    model, 0, ladder,
    (
        Subspace.from_spanning(4, [(0, 1, 0, 0)]),  # the line through (t, 0)
        Subspace.from_spanning(4, [(0, 0, 0, 1)]),
    ),
)

for name, g in (("exact choice", exact_series), ("lazy choice", lazy_series)):
    print(f"--- {name} ---")
    print("compatible:", check_compatible(g).passed)
    report = check_exact(g)
    print("exact:     ", report.passed)
    if not report.passed:
        left, right = report.first_failing_pair()
        print("first failing pair:", (str(left), str(right)))
        for failure in report.failures:
            print("   ", failure.message)
    data = numerical_data(g)
    print("down kernels:", data.down_kernels)
    print("up kernels:  ", data.up_kernels)
    print("mobile dims: ", data.mobile, "(sum", data.total_mobile(), "vs rank+1 =", g.rank + 1, ")")
    print("counting formula agrees:", data.is_exact() == report.passed)
    print()
