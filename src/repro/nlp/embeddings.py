"""Word embeddings from PPMI + truncated SVD.

The paper trains its CRF with word-embedding features [18].  Word2vec
is unavailable offline, so embeddings are produced the classical way:
a positive pointwise-mutual-information co-occurrence matrix factorised
by truncated SVD (Levy & Goldberg showed this approximates skip-gram
with negative sampling).  Dense vectors are also *discretised* into a
handful of sign-bucket strings so the CRF, a log-linear model over
indicator features, can consume them.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import svds

#: Symmetric co-occurrence window in tokens.
WINDOW = 3
#: Words rarer than this share the out-of-vocabulary (zero) vector.
MIN_COUNT = 2


class WordEmbeddings:
    """Trainable PPMI-SVD word embeddings of dimensionality ``dim``
    (bounded by vocabulary size)."""

    def __init__(self, dim: int = 32):
        self.dim = dim
        self.vocab: dict[str, int] = {}
        self.vectors: np.ndarray | None = None

    # -- training -----------------------------------------------------

    def train(self, sentences: list[list[str]]) -> "WordEmbeddings":
        """Fit on tokenized sentences (tokens are lower-cased)."""
        counts: dict[str, int] = {}
        for sentence in sentences:
            for word in sentence:
                word = word.lower()
                counts[word] = counts.get(word, 0) + 1
        self.vocab = {
            word: index
            for index, word in enumerate(
                sorted(w for w, c in counts.items() if c >= MIN_COUNT)
            )
        }
        size = len(self.vocab)
        if size < 2:
            self.vectors = np.zeros((max(size, 1), 1))
            return self

        pair_counts: dict[tuple[int, int], float] = {}
        for sentence in sentences:
            ids = [self.vocab.get(word.lower(), -1) for word in sentence]
            for i, center in enumerate(ids):
                if center < 0:
                    continue
                lo = max(0, i - WINDOW)
                hi = min(len(ids), i + WINDOW + 1)
                for j in range(lo, hi):
                    context = ids[j]
                    if j == i or context < 0:
                        continue
                    key = (center, context)
                    pair_counts[key] = pair_counts.get(key, 0.0) + 1.0

        rows = np.fromiter((k[0] for k in pair_counts), dtype=np.int64)
        cols = np.fromiter((k[1] for k in pair_counts), dtype=np.int64)
        values = np.fromiter(pair_counts.values(), dtype=np.float64)

        total = values.sum()
        cooc = csr_matrix((values, (rows, cols)), shape=(size, size))
        row_sums = np.asarray(cooc.sum(axis=1)).ravel()
        col_sums = np.asarray(cooc.sum(axis=0)).ravel()

        # PPMI: max(0, log(p(w,c) / (p(w) p(c)))) on the sparse entries.
        pmi_values = np.log(
            (values * total)
            / (row_sums[rows] * col_sums[cols])
        )
        keep = pmi_values > 0
        ppmi = csr_matrix(
            (pmi_values[keep], (rows[keep], cols[keep])), shape=(size, size)
        )

        k = min(self.dim, size - 1)
        try:
            # a seeded start vector: ARPACK otherwise draws one from
            # numpy's global RNG and the model differs run to run (a
            # constant vector will not do -- on a symmetric corpus it
            # spans an invariant subspace and ARPACK restarts randomly)
            u, s, _vt = svds(ppmi, k=k, v0=np.random.default_rng(0).random(size))
        except Exception:
            dense = np.asarray(ppmi.todense())
            u_full, s_full, _ = np.linalg.svd(dense)
            u, s = u_full[:, :k], s_full[:k]
        order = np.argsort(-s)
        u = u[:, order]
        # a singular vector is only defined up to sign: pin it (largest-
        # magnitude component positive) so the sign-bucket features do
        # not depend on the solver
        peaks = u[np.abs(u).argmax(axis=0), np.arange(u.shape[1])]
        u = u * np.where(peaks < 0, -1.0, 1.0)
        self.vectors = u * np.sqrt(s[order])
        norms = np.linalg.norm(self.vectors, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        self.vectors = self.vectors / norms
        return self

    # -- lookup ---------------------------------------------------------

    def __contains__(self, word: str) -> bool:
        return word.lower() in self.vocab

    def vector(self, word: str) -> np.ndarray:
        """The word's vector; zero vector when out of vocabulary."""
        if self.vectors is None:
            raise RuntimeError("embeddings are not trained")
        index = self.vocab.get(word.lower())
        if index is None:
            return np.zeros(self.vectors.shape[1])
        return self.vectors[index]

    def bucket_features(self, word: str, buckets: int = 8) -> list[str]:
        """Discrete sign-bucket features for CRF consumption.

        The first ``buckets`` dimensions are rendered as
        ``emb<i>=+``/``emb<i>=-`` indicators; OOV words get none, which
        itself is informative.
        """
        if self.vectors is None or word.lower() not in self.vocab:
            return []
        vec = self.vector(word)
        limit = min(buckets, len(vec))
        return [
            f"emb{i}={'+' if vec[i] >= 0 else '-'}" for i in range(limit)
        ]


__all__ = ["WordEmbeddings"]
