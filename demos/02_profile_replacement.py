"""Class-aware record replacement in the bounded profile store.

Below its capacity the store simply appends. At capacity, each new record
evicts the nearest record of the OPPOSITE class (positive = response meets
the QoS target, negative = it does not). A fresh negative record therefore
erodes the optimistic neighborhood that misled the allocator, and a fresh
positive record erodes stale pessimism, while the profile stays small
enough for fast search.

Run:  python demos/02_profile_replacement.py
"""

from qosalloc import Profile

TARGET = 7  # responses >= 7 count as positive
LEVELS = 12

profile = Profile(link_count=1, level_count=LEVELS, capacity=4)


def show(title):
    print(title)
    for i, (x, level) in enumerate(zip(profile.allocation_matrix()[:, 0].tolist(),
                                        profile.response_vector().tolist())):
        cls = "positive" if level >= TARGET else "negative"
        print(f"  [{i}] x={x:5.1f}  level={level:2d}  {cls}")


for alloc, response in [((10.0,), 2), ((20.0,), 5), ((35.0,), 8), ((45.0,), 11)]:
    result = profile.update(alloc, response, TARGET)
    assert result.action == "append"
show(f"filled to capacity {profile.capacity}:")

print("\nnew NEGATIVE record at x=40 (level 4) -> evicts the nearest POSITIVE:")
result = profile.update((40.0,), 4, TARGET)
print(f"  action={result.action}, slot={result.index}")
show("store afterwards (size unchanged, order stable):")

print("\nnew POSITIVE record at x=18 (level 9) -> evicts the nearest NEGATIVE:")
result = profile.update((18.0,), 9, TARGET)
print(f"  action={result.action}, slot={result.index}")
show("store afterwards:")

print("\nwhen the opposite class is empty the store falls back to the")
print("globally nearest record (reported as a fallback, since the usual")
print("push/pull direction guarantee does not apply to that step):")
small = Profile(1, LEVELS, capacity=2, records=[((10.0,), 1), ((12.0,), 1)])
result = small.update((20.0,), 1, TARGET)
print(f"  action={result.action}, slot={result.index}")
for i, (x, level) in enumerate(zip(small.allocation_matrix()[:, 0].tolist(),
                                    small.response_vector().tolist())):
    print(f"  [{i}] x={x:5.1f}  level={level}")
