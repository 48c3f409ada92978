"""
Gallery adaptation with one-vs-rest linear models
=================================================

Enrolled identities each get their own linear max-margin classifier,
trained with their media as positives and everyone else's as negatives.
Scores are then affinely rescaled so the median positive training score
is +1 and the median negative is -1, which puts every identity's scores
on a comparable scale before they compete in open-set search.
"""

import numpy as np

from bilin.svm import train_ovr_svm

rng = np.random.default_rng(3)

# Three enrolled identities, each a cluster of 2-D "descriptors".
centers = {"ines": (3.0, 0.0), "jun": (0.0, 3.0), "tomas": (-2.5, -2.5)}
X = np.vstack([rng.normal(c, 0.4, (12, 2)) for c in centers.values()])
labels = [name for name in centers for _ in range(12)]

gallery = train_ovr_svm(X, labels)
print("models:", gallery.identity_ids)

# Median rescaling: each model's own media score around +1, the rest
# around -1.  Scoring the whole stack gives one column per identity.
scores = gallery.score_vector(X)
for j, identity in enumerate(gallery.identity_ids):
    own = np.array(labels) == identity
    print(f"{identity:>6}: median own {np.median(scores[own, j]):+.3f}, "
          f"median rest {np.median(scores[~own, j]):+.3f}")

# A probe near ines's cluster scores highest against that identity's
# model; an outlier probe scores below every enrolled identity, the
# signature of an impostor.
for probe in (np.array([2.8, 0.3]), np.array([8.0, -8.0])):
    scores = gallery.score_vector(probe)
    best = gallery.identity_ids[int(np.argmax(scores))]
    print(f"probe {probe}: best {best!r}, scores "
          + ", ".join(f"{k}={v:+.2f}" for k, v in zip(gallery.identity_ids, scores)))
