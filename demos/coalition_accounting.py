"""
Paying coalitions that bargain as blocks
========================================

When contributors negotiate in groups -- vendors, consortia, departments --
the fair split changes: groups join the table as blocks, and only within a
block do members mix freely.  The block-aware split still adds up to the
same total, but it moves money between members of different groups.
"""

import random
from fractions import Fraction

from divvy import (
    Dataset,
    Example,
    MajorityValueFunction,
    Query,
    owen_frequency_report,
    shapley_frequency_report,
)

payout = MajorityValueFunction(Fraction(100), Fraction(-500), Fraction(0))
query = Query(label="buy", bin="volatile")

# Same three examples as in frequency_payout.py, but now the first two
# belong to one vendor and the third stands alone.
dataset = Dataset([
    Example(0, "buy", bin="volatile", coalition="vendor_a"),
    Example(1, "sell", bin="volatile", coalition="vendor_a"),
    Example(2, "buy", bin="volatile", coalition="vendor_b"),
])
plain = shapley_frequency_report(
    Dataset(Example(ex.id, ex.label, bin=ex.bin) for ex in dataset),
    [query], payout, mode="exact",
)
# The Owen report reads the partition from the examples' coalition ids.
grouped = owen_frequency_report(dataset, [query], payout, mode="exact")

print("value without groups vs. bargaining in blocks:")
for row in grouped.examples:
    print(f"  example {row.id} ({row.coalition}): "
          f"{plain.value_of(row.id)} -> {row.value}")
print("group totals:", {cid: str(v) for cid, v in grouped.coalitions})
print("sum:", sum(grouped.values().values()), "(unchanged by grouping)")

# Two degenerate partitions recover the plain split exactly: everyone in one
# block, or everyone alone.
rng = random.Random(7)
labels = [rng.choice(["buy", "sell"]) for _ in range(9)]
for name, assign in [("singletons", lambda i: f"s{i}"), ("one block", lambda i: "all")]:
    ds = Dataset(
        Example(i, labels[i], bin="volatile", coalition=assign(i))
        for i in range(9)
    )
    owen = owen_frequency_report(ds, [query], payout, mode="exact")
    flat = shapley_frequency_report(
        Dataset(Example(i, labels[i], bin="volatile") for i in range(9)),
        [query], payout, mode="exact",
    )
    print(f"{name}: matches the ungrouped split? "
          f"{owen.values() == flat.values()}")
