"""Linear-chain Conditional Random Field, from scratch.

Implements Lafferty et al. [10] for sequence labeling: log-linear
emission features per token plus first-order label transition weights,
trained by maximising the regularised conditional log-likelihood with
exact forward-backward gradients and scipy's L-BFGS-B, decoded with
Viterbi.

The implementation is deliberately self-contained (no sklearn /
crfsuite exist offline) but not a toy: log-space forward-backward,
L2 regularisation, feature hashing-free explicit feature indexing,
serialisation, and probability output via posterior marginals.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.optimize import minimize


def _logsumexp_into(lattice: np.ndarray, axis: int, out: np.ndarray) -> None:
    """``out = log(sum(exp(lattice), axis))``, destroying ``lattice``.

    The order is max -> exp -> sum -> log -> + peak, all in place: the
    recursions call this once per token on an [n_labels, n_labels]
    scratch array, where allocation and dispatch are the whole cost.
    """
    peak = np.maximum.reduce(lattice, axis=axis, keepdims=True)
    lattice -= peak
    np.exp(lattice, out=lattice)
    np.add.reduce(lattice, axis=axis, out=out)
    np.log(out, out=out)
    out += peak.reshape(out.shape)


@dataclass
class EncodedSentence:
    """One sentence as feature ids: ``ids[bounds[t]:bounds[t + 1]]`` are
    token ``t``'s ids, ascending and unique (the order the emission sum
    adds their rows in), plus label ids when training."""

    ids: np.ndarray
    bounds: list[int]
    labels: np.ndarray | None = None

    @classmethod
    def from_ids(
        cls, token_ids: Sequence[Sequence[int]], labels: np.ndarray | None = None
    ) -> "EncodedSentence":
        flat: list[int] = []
        bounds = [0]
        for ids in token_ids:
            flat.extend(sorted(set(ids)))
            bounds.append(len(flat))
        return cls(np.asarray(flat, dtype=np.int64), bounds, labels)

    def __len__(self) -> int:
        return len(self.bounds) - 1

    @property
    def features(self) -> list[np.ndarray]:
        """Per-token id arrays (views into ``ids``)."""
        bounds = self.bounds
        return [self.ids[bounds[t] : bounds[t + 1]] for t in range(len(self))]


class LinearChainCRF:
    """Linear-chain CRF over string feature names and string labels.

    Usage::

        crf = LinearChainCRF(l2=0.1)
        crf.fit(list_of_feature_lists, list_of_label_lists)
        labels, confidences = crf.decode(feature_lists_of_one_sentence)
    """

    def __init__(self, l2: float = 0.1, max_iterations: int = 80):
        self.l2 = l2
        self.max_iterations = max_iterations
        self.feature_index: dict[str, int] = {}
        self.labels: list[str] = []
        self.label_index: dict[str, int] = {}
        self.emission: np.ndarray | None = None  # [n_features, n_labels]
        self.transition: np.ndarray | None = None  # [n_labels+1, n_labels]
        self.start_row = 0  # index n_labels in transition = start

    # -- encoding -------------------------------------------------------

    def _build_vocab(
        self,
        sentences: list[list[list[str]]],
        label_sequences: list[list[str]],
    ) -> None:
        features: set[str] = set()
        labels: set[str] = set()
        for sentence in sentences:
            for token_features in sentence:
                features.update(token_features)
        for sequence in label_sequences:
            labels.update(sequence)
        labels.add("O")
        self.feature_index = {name: i for i, name in enumerate(sorted(features))}
        self.labels = sorted(labels)
        self.label_index = {label: i for i, label in enumerate(self.labels)}

    def _encode(
        self, sentence: list[list[str]], labels: list[str] | None = None
    ) -> EncodedSentence:
        index = self.feature_index
        encoded_labels = None
        if labels is not None:
            encoded_labels = np.asarray(
                [self.label_index[label] for label in labels], dtype=np.int64
            )
        return EncodedSentence.from_ids(
            [
                [index[name] for name in token_features if name in index]
                for token_features in sentence
            ],
            encoded_labels,
        )

    # -- potentials -------------------------------------------------------

    def _scores(self, encoded: EncodedSentence, emission: np.ndarray) -> np.ndarray:
        """Emission score matrix S[t, y]: one gather for the sentence,
        then each token's rows summed in ascending id order."""
        rows = emission[encoded.ids]
        bounds = encoded.bounds
        scores = np.zeros((len(encoded), emission.shape[1]))
        for t in range(len(encoded)):
            if bounds[t] < bounds[t + 1]:
                np.add.reduce(rows[bounds[t] : bounds[t + 1]], axis=0, out=scores[t])
        return scores

    # -- the lattice: one Viterbi recursion, one forward-backward -------------

    def _viterbi(self, scores: np.ndarray, transition: np.ndarray) -> list[int]:
        """The highest-scoring label-id path of one sentence."""
        n_tokens, n_labels = scores.shape
        trans = transition[:n_labels]
        best = transition[n_labels] + scores[0]
        backptr = np.empty((n_tokens, n_labels), dtype=np.intp)
        candidate = np.empty((n_labels, n_labels))
        for t in range(1, n_tokens):
            np.add(best[:, None], trans, out=candidate)
            candidate.argmax(axis=0, out=backptr[t])
            best = np.maximum.reduce(candidate, axis=0)
            best += scores[t]
        label = int(best.argmax())
        path = [label]
        for pointers in backptr[:0:-1].tolist():
            label = pointers[label]
            path.append(label)
        path.reverse()
        return path

    def _forward_backward(
        self, scores: np.ndarray, transition: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """Log alpha, log beta and log partition for one sentence."""
        n_tokens, n_labels = scores.shape
        trans = transition[:n_labels]
        lattice = np.empty((n_labels, n_labels))
        alpha = np.empty((n_tokens, n_labels))
        alpha[0] = transition[n_labels] + scores[0]
        for t in range(1, n_tokens):
            np.add(alpha[t - 1][:, None], trans, out=lattice)
            _logsumexp_into(lattice, 0, alpha[t])
            alpha[t] += scores[t]
        beta = np.zeros((n_tokens, n_labels))
        for t in range(n_tokens - 2, -1, -1):
            np.add(trans, scores[t + 1] + beta[t + 1], out=lattice)
            _logsumexp_into(lattice, 1, beta[t])
        log_z = np.empty(())
        _logsumexp_into(alpha[-1].copy(), 0, log_z)
        return alpha, beta, float(log_z)

    # -- training ---------------------------------------------------------

    def fit(
        self,
        sentences: list[list[list[str]]],
        label_sequences: list[list[str]],
    ) -> "LinearChainCRF":
        """Train on (feature-lists, BIO labels) pairs."""
        if len(sentences) != len(label_sequences):
            raise ValueError("sentences and labels must align")
        data = [
            (sentence, labels)
            for sentence, labels in zip(sentences, label_sequences)
            if sentence
        ]
        self._build_vocab([s for s, _ in data], [l for _, l in data])
        encoded = [self._encode(s, l) for s, l in data]
        token_ids = [sentence.features for sentence in encoded]
        n_features = len(self.feature_index)
        n_labels = len(self.labels)
        emission_size = n_features * n_labels
        transition_size = (n_labels + 1) * n_labels

        def unpack(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            emission = theta[:emission_size].reshape(n_features, n_labels)
            transition = theta[emission_size:].reshape(n_labels + 1, n_labels)
            return emission, transition

        def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
            emission, transition = unpack(theta)
            grad_emission = np.zeros_like(emission)
            grad_transition = np.zeros_like(transition)
            negative_ll = 0.0
            trans = transition[:n_labels]
            for sentence, features in zip(encoded, token_ids):
                scores = self._scores(sentence, emission)
                alpha, beta, log_z = self._forward_backward(scores, transition)
                labels = sentence.labels
                n_tokens = scores.shape[0]

                # empirical score
                path_score = transition[n_labels, labels[0]] + scores[0, labels[0]]
                for t in range(1, n_tokens):
                    path_score += trans[labels[t - 1], labels[t]] + scores[t, labels[t]]
                negative_ll -= path_score - log_z

                # expected counts
                marginals = np.exp(alpha + beta - log_z)  # [n_tokens, n_labels]
                for t, ids in enumerate(features):
                    if len(ids):
                        grad_emission[ids] += marginals[t]
                        grad_emission[ids, labels[t]] -= 1.0
                grad_transition[n_labels] += marginals[0]
                grad_transition[n_labels, labels[0]] -= 1.0
                for t in range(1, n_tokens):
                    pairwise = (
                        alpha[t - 1][:, None]
                        + trans
                        + (scores[t] + beta[t])[None, :]
                        - log_z
                    )
                    grad_transition[:n_labels] += np.exp(pairwise)
                    grad_transition[labels[t - 1], labels[t]] -= 1.0

            negative_ll += 0.5 * self.l2 * float(np.dot(theta, theta))
            grad = np.concatenate(
                [grad_emission.ravel(), grad_transition.ravel()]
            ) + self.l2 * theta
            return negative_ll, grad

        theta0 = np.zeros(emission_size + transition_size)
        result = minimize(
            objective,
            theta0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iterations},
        )
        self.emission, self.transition = unpack(result.x)
        return self

    # -- inference ----------------------------------------------------------

    def _require_trained(self) -> None:
        if self.emission is None or self.transition is None:
            raise RuntimeError("CRF is not trained; call fit() or load()")

    def _posteriors(self, scores: np.ndarray) -> np.ndarray:
        """P(label | position) for every token, [n_tokens, n_labels]."""
        alpha, beta, log_z = self._forward_backward(scores, self.transition)
        return np.exp(alpha + beta - log_z)

    def decode(
        self, sentence: list[list[str]] | EncodedSentence
    ) -> tuple[list[str], list[float] | None]:
        """Viterbi labels of one sentence (feature-name lists, or ids
        already resolved against :attr:`feature_index`) and each chosen
        label's posterior.

        The one inference path: the sentence is encoded once, scored
        once and decoded once.  The forward-backward pass runs only when
        the path leaves ``O``; an all-``O`` sentence has no span to
        score and its confidences are ``None``.
        """
        self._require_trained()
        if not isinstance(sentence, EncodedSentence):
            sentence = self._encode(sentence)
        if not len(sentence):
            return [], None
        scores = self._scores(sentence, self.emission)
        path = self._viterbi(scores, self.transition)
        labels = [self.labels[i] for i in path]
        if path.count(self.label_index["O"]) == len(path):
            return labels, None
        chosen = self._posteriors(scores)[np.arange(len(path)), path]
        return labels, chosen.tolist()

    # -- persistence ----------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Serialise the trained model to a JSON+NPZ pair."""
        self._require_trained()
        path = Path(path)
        np.savez_compressed(
            path.with_suffix(".npz"),
            emission=self.emission,
            transition=self.transition,
        )
        path.with_suffix(".json").write_text(
            json.dumps(
                {
                    "labels": self.labels,
                    "features": sorted(
                        self.feature_index, key=self.feature_index.get
                    ),
                    "l2": self.l2,
                }
            )
        )

    @classmethod
    def load(cls, path: str | Path) -> "LinearChainCRF":
        """Inverse of :meth:`save`."""
        path = Path(path)
        meta = json.loads(path.with_suffix(".json").read_text())
        arrays = np.load(path.with_suffix(".npz"))
        model = cls(l2=meta.get("l2", 0.1))
        model.labels = list(meta["labels"])
        model.label_index = {label: i for i, label in enumerate(model.labels)}
        model.feature_index = {name: i for i, name in enumerate(meta["features"])}
        model.emission = arrays["emission"]
        model.transition = arrays["transition"]
        return model


__all__ = ["LinearChainCRF"]
