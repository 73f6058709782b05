"""Walk through the recursive blocking of {1..A}.

The construction repeatedly splits each run of consecutive indices into
two side blocks and a dropped middle gap.  After ell rounds the kept set
K is a union of 2^ell equal runs and always retains at least half of the
indices.  Applied repeatedly to the dropped indices, it decomposes all of
{1..n} into log-many kept sets plus at most two leftovers.
"""

from depbernstein import cantor

for A in (50, 100, 1000):
    part = cantor.cantor_set(A)
    p = part.params
    print(f"A = {A}: ell = {p.ell}, block sizes n = {p.n_seq}, "
          f"gaps d = {p.d_seq}, kept {part.card}/{A}")

part = cantor.cantor_set(100)
p = part.params
print("\nK_100 leaf runs:", [(s, s + p.n_seq[-1] - 1) for s in part.leaf_starts.tolist()])
print("dropped gap:    ", [(s, s + p.d_seq[0] - 1) for s in part.gap_starts[0].tolist()])

print("\ndepth of the decomposition of {1..n} (the bound adds one term per level):")
for n in (100, 10 ** 4, 10 ** 6):
    print(f"  n = {n}: {cantor.decomposition_depth(n)} levels")

print("\nlevel-1 blocks of K_100 (the two halves of its leaves):")
for j, block in enumerate(cantor.level_blocks(part, 1)):
    print(f"  block {j}: {block.size} indices, first/last = {block[0]}/{block[-1]}")
