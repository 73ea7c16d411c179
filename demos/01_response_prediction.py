"""Predicting a service's response level from past delivery records.

A profile stores (allocation, response-level) pairs from earlier
transmissions. For any candidate allocation, the predictor takes a
Gaussian-kernel weighted mean of the recorded levels: nearby records
dominate, distant ones fade. The rounded prediction is what the allocation
search compares against a QoS target.

This script builds a tiny two-link profile, sweeps candidate allocations,
and then shows the variation bound: the more records (kernel mass) a
query point sees, the less any single new record can move the prediction.

Run:  python demos/01_response_prediction.py
"""

from qosalloc import KernelParams, Profile, predict, variation_bound

profile = Profile(
    link_count=2,
    level_count=12,
    capacity=None,
    records=[
        ((10.0, 5.0), 2),   # starved allocation, heavy loss
        ((25.0, 15.0), 6),  # just about covers the source rate
        ((40.0, 20.0), 9),  # comfortable surplus
        ((50.0, 30.0), 12),  # everything the links can give
    ],
)
kernel = KernelParams(sigma2=200.0)

print("profile records (allocation -> response level):")
for alloc, response in zip(profile.allocation_matrix().tolist(),
                           profile.response_vector().tolist()):
    print(f"  {tuple(alloc)} -> {response}")

print("\npredictions along the diagonal of the allocation space:")
print(f"{'allocation':>16}  {'y*':>7}  {'level':>5}  {'kernel sum':>10}")
for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
    x = (50.0 * frac, 30.0 * frac)
    pred = predict(x, profile, kernel)
    print(f"{str(x):>16}  {pred.y_star:7.3f}  {pred.y_hat:5d}  {pred.kernel_sum:10.4f}")

print("\nhow much can ONE new record move y* at x = (30, 18)?")
x = (30.0, 18.0)
grown = Profile(2, 12, None, zip(profile.allocation_matrix(), profile.response_vector()))
for extra in range(1, 5):
    grown.append((30.0 + extra, 18.0), 7)
    pred = predict(x, grown, kernel)
    bound = variation_bound(grown.size, grown.level_count, pred.kernel_sum)
    print(
        f"  {grown.size} records: kernel sum {pred.kernel_sum:6.3f} "
        f"-> next append moves y* by at most {bound:6.3f} levels"
    )
print("\nA floor on the kernel sum therefore acts as a floor on profile size,")
print("which is how steady (low-variation) allocation is enforced.")
