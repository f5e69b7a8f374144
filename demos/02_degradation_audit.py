"""Reproduce the controlled-degradation audit on a synthetic corpus.

Parent rewiring and node removal depress only TQ while meanNQ, MQ and LQ
stay at 1.  Mask erosion depresses MQ and meanNQ, and TQ as matches are
lost.  Mask dilation does the same down to keep 0.5, but past that the
terms stop being separable: a swollen mask is matched to an ancestor's
reference node, so LQ falls to near 0 although no label changed, while MQ
and the TP count rise again as keep falls.  The grid is also written as CSV
next to this script.
"""

from pathlib import Path

from otq import SimilarityProtocol, audit_grid, grid_to_csv, grid_to_table
from otq.synth import chunky_corpus

trees = list(chunky_corpus(25, seed=2024))
print(f"corpus: {len(trees)} synthetic trees, "
      f"{sum(t.n_nodes for t in trees) / len(trees):.1f} nodes/image\n")

rows = audit_grid(trees, SimilarityProtocol.strict(),
                  keep_ratios=(0.75, 0.50, 0.30, 0.15), seed=7)
print(grid_to_table(rows))

out = Path(__file__).with_name("degradation_grid.csv")
out.write_text(grid_to_csv(rows))
print(f"wrote {out}")

print("""
things to notice:
  * mask_erosion: MQ and meanNQ fall with the keep ratio, and so does TQ
    as matches are lost (none survive at 0.30); LQ stays 1.000 while any
    match survives.
  * mask_dilation: down to keep 0.50 it moves the same terms.  Past that a
    swollen mask is matched to an ancestor's reference node: the 35 TPs at
    0.30 give LQ 0.000 and the 100 TPs at 0.15 give LQ 0.020, while MQ
    rises from 0.509 to 0.580 to 0.783 as keep falls.
  * parent_rewire: meanNQ = MQ = LQ = 1.000 exactly; only TQ falls.
  * the *_node_missing rows keep meanNQ at 1 and pay only the PQ-style
    recovery penalty inside TQ.
""")
