"""Fixed pure-Python work that does not use fockcrystal.

run.py times this script in a fresh interpreter between operations to
measure how fast the host runs at that moment; its median wall time in
a run converts the run's times to reference seconds.
"""

from fractions import Fraction

total, counts = Fraction(0), {}
for i in range(1, 12000):
    total += Fraction(i % 7 - 3, i % 11 + 1)
    key = (i % 97, i % 89)
    counts[key] = counts.get(key, 0) + 1
print(total, len(counts))
