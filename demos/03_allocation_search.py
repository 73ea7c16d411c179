"""Finding the cheapest allocation predicted to meet a QoS target.

The search space is a step-aligned grid bounded per link. A grid point
belongs to the candidate set when its predicted response reaches the
target, which (with half-up rounding) is exactly y* >= target - 1/2. The
search enumerates the whole grid and keeps the member with the smallest
total bandwidth, preferring higher predicted responses and then
lexicographically smaller allocations on ties.

The same membership can be evaluated in a level-grouped form
C1 + C2 >= C3 whose terms are all non-negative; that form makes it
obvious why positive records can only grow the candidate set and negative
records can only shrink it.

Run:  python demos/03_allocation_search.py
"""

from qosalloc import (
    GrnnPredictor,
    KernelParams,
    Profile,
    SearchGrid,
    membership_c_form,
    predict,
    search,
)

profile = Profile(1, 3, None, records=[((0.0,), 1), ((30.0,), 3)])
kernel = KernelParams(sigma2=100.0)
predictor = GrnnPredictor(kernel)
grid = SearchGrid(step=10.0, max_per_link=(30.0,))
TARGET = 2

print("profile: level 1 seen at x=0, level 3 seen at x=30; target level 2")
print(f"\n{'x':>6}  {'y*':>7}  {'member':>6}  {'C1':>7}  {'C2':>7}  {'C3':>7}")
for x in grid.points():
    xt = tuple(float(v) for v in x)
    pred = predict(xt, profile, kernel)
    c1, c2, c3, member = membership_c_form(xt, profile, kernel, TARGET)
    print(
        f"{xt[0]:6.1f}  {pred.y_star:7.3f}  {str(member):>6}  "
        f"{c1:7.4f}  {c2:7.4f}  {c3:7.4f}"
    )

result = search(grid, profile, predictor, TARGET)
print(
    f"\nchosen allocation: {result.allocation} "
    f"(total {result.total} Mbps, predicted level {result.prediction.y_hat})"
)

print("\nwith only negative records no point can ever qualify")
print("(C1 = 0 and C2 is half of C3 at best), so the search falls back to")
print("the most promising point instead of failing:")
hopeless = Profile(1, 3, None, records=[((0.0,), 1), ((15.0,), 1), ((30.0,), 1)])
result = search(grid, hopeless, predictor, TARGET)
print(
    f"  feasible_found={result.feasible_found}, fallback allocation "
    f"{result.allocation} with y*={result.prediction.y_star:.3f}"
)
