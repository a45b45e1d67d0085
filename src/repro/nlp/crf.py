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
from itertools import accumulate
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.optimize import minimize

#: Elements one decoding step hands a ufunc at most: a wider step is cut
#: into runs of ``STEP_ELEMENTS // n_labels ** 2`` sentences.  numpy gives
#: up the GIL around any loop of more than 500 elements, and a hand-off
#: per microsecond-sized call is what two extract workers lose time to
#: (5 sentences a step instead of 4, at 11 labels: forward-backward of two
#: threads 117 -> 219 ms, 330 -> 3 200 context switches a pass).
STEP_ELEMENTS = 500
#: Rows of the buffer of ``[n_labels, n_labels]`` candidate blocks whose
#: ``argmax`` is deferred: the lattice memory of a decode, whatever the batch.
PENDING_ROWS = 256


def _logsumexp_into(lattice: np.ndarray, axis: int, out: np.ndarray) -> None:
    """``out = log(sum(exp(lattice), axis))``, destroying ``lattice``.

    The order is max -> exp -> sum -> log -> + peak, all in place: the
    recursions call this once per time index on a
    ``[sentences, n_labels, n_labels]`` scratch array, where allocation
    and dispatch are the whole cost.
    """
    peak = np.maximum.reduce(lattice, axis=axis, keepdims=True)
    lattice -= peak
    np.exp(lattice, out=lattice)
    np.add.reduce(lattice, axis=axis, out=out)
    np.log(out, out=out)
    out += peak.reshape(out.shape)


@dataclass
class EncodedBatch:
    """Sentences as feature ids, flat: sentence ``s`` is the tokens
    ``starts[s]:starts[s + 1]`` (``lengths[s]`` of them).  ``ids`` holds
    each token's ids ascending and unique (the order the emission sum
    adds their rows in), the tokens that have equally many ids side by
    side: ``by_width[w]`` lists the tokens with ``w`` ids, ``order`` is
    those lists end to end -- the token behind each run of ``ids``.
    Label ids, flat, when training."""

    ids: np.ndarray
    by_width: dict[int, list[int]]
    order: list[int]
    lengths: list[int]
    starts: list[int]
    labels: np.ndarray | None = None

    @classmethod
    def from_ids(
        cls,
        sentences: Sequence[Sequence[Sequence[int]]],
        labels: np.ndarray | None = None,
    ) -> "EncodedBatch":
        tokens = [sorted(set(ids)) for sentence in sentences for ids in sentence]
        by_width: dict[int, list[int]] = {}
        for i, ids in enumerate(tokens):
            by_width.setdefault(len(ids), []).append(i)
        order = [i for group in by_width.values() for i in group]
        flat = np.asarray([f for i in order for f in tokens[i]], dtype=np.int64)
        lengths = [len(sentence) for sentence in sentences]
        starts = list(accumulate(lengths, initial=0))
        return cls(flat, by_width, order, lengths, starts, labels)

    @property
    def features(self) -> list[np.ndarray]:
        """Per-token id arrays (views into ``ids``), in token order."""
        views: list[np.ndarray] = [self.ids] * len(self.order)
        at = 0
        for width, group in self.by_width.items():
            for i in group:
                views[i] = self.ids[at : at + width]
                at += width
        return views


class _Packing:
    """Time-major layout of some sentences of a ragged batch.

    The sentences are ranked longest first, so the ones still running at
    time index ``t`` are a prefix of the ranking and row
    ``offsets[t] + rank`` is the ``t``-th token of sentence ``order[rank]``:
    one recursion step per time index covers every sentence without a
    mask or a padded cell, and each sentence sees exactly the arithmetic
    it would see alone.  ``rows[r]`` is the batch's (sentence-major)
    token index of row ``r``; ``steps`` are the ``(previous row, row,
    count)`` runs of the time indices after the first, in row order, a
    time index that more than ``width`` sentences reach cut into several.
    """

    def __init__(self, batch: EncodedBatch, members: Sequence[int], width: int):
        self.lengths = lengths = batch.lengths
        starts = batch.starts
        self.order = sorted(
            (s for s in members if lengths[s]), key=lengths.__getitem__, reverse=True
        )
        self.offsets = [0]
        self.rows: list[int] = []
        self.steps: list[tuple[int, int, int]] = []
        self.width = width
        active = len(self.order)
        for t in range(lengths[self.order[0]] if self.order else 0):
            while lengths[self.order[active - 1]] <= t:
                active -= 1
            self.rows.extend(starts[s] + t for s in self.order[:active])
            if t:
                row, previous = self.offsets[t], self.offsets[t - 1]
                self.steps.extend(
                    (previous + a, row + a, min(width, active - a))
                    for a in range(0, active, width)
                )
            self.offsets.append(len(self.rows))
        #: each ranked sentence's last row
        self.last = [
            self.offsets[lengths[s] - 1] + rank for rank, s in enumerate(self.order)
        ]


class LinearChainCRF:
    """Linear-chain CRF over string feature names and string labels.

    Usage::

        crf = LinearChainCRF(l2=0.1)
        crf.fit(list_of_feature_lists, list_of_label_lists)
        (labels, confidences), *_ = crf.decode_many(feature_lists_of_sentences)
    """

    def __init__(self, l2: float = 0.1, max_iterations: int = 80):
        self.l2 = l2
        self.max_iterations = max_iterations
        self.feature_index: dict[str, int] = {}
        self.labels: list[str] = []
        self.label_index: dict[str, int] = {}
        self.emission: np.ndarray | None = None  # [n_features, n_labels]
        self.transition: np.ndarray | None = None  # [n_labels+1, n_labels], last row = start

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
        self,
        sentences: Sequence[list[list[str]]],
        label_sequences: Sequence[list[str]] | None = None,
    ) -> EncodedBatch:
        index = self.feature_index
        labels = None
        if label_sequences is not None:
            labels = np.asarray(
                [self.label_index[y] for sequence in label_sequences for y in sequence],
                dtype=np.int64,
            )
        return EncodedBatch.from_ids(
            [
                [
                    [index[name] for name in token_features if name in index]
                    for token_features in sentence
                ]
                for sentence in sentences
            ],
            labels,
        )

    # -- potentials -------------------------------------------------------

    def _scores(self, encoded: EncodedBatch, emission: np.ndarray) -> np.ndarray:
        """Emission score matrix S[token, y] of the whole batch: one
        gather, then each token's rows summed in ascending id order --
        the tokens that have equally many ids in one reduction."""
        rows = emission[encoded.ids]
        n_labels = emission.shape[1]
        summed = np.zeros((len(encoded.order), n_labels))  # in ``order``
        at = done = 0
        for width, group in encoded.by_width.items():
            if width:
                block = rows[at : at + len(group) * width]
                np.add.reduce(
                    block.reshape(len(group), width, n_labels),
                    axis=1,
                    out=summed[done : done + len(group)],
                )
            at += len(group) * width
            done += len(group)
        scores = np.empty_like(summed)
        scores[encoded.order] = summed
        return scores

    # -- the lattice: one Viterbi recursion, one forward-backward -------------

    def _viterbi(
        self, scores: np.ndarray, transition: np.ndarray, packing: _Packing
    ) -> list[list[int]]:
        """The highest-scoring label-id path of each packed sentence, in
        ``packing.order``.

        A step keeps its ``[count, from, to]`` candidate block instead of
        reducing it to back-pointers on the spot, and one ``argmax`` per
        full buffer recovers them: a call saved per step, and the call
        that is left is long enough to be worth the GIL it gives up.
        """
        n_labels = scores.shape[1]
        trans = transition[:n_labels]
        best = scores[packing.rows]
        head = len(packing.order)  # the rows of time index 0
        best[:head] += transition[n_labels]
        backptr = np.empty((len(best) - head, n_labels), dtype=np.intp)
        pending = np.empty((min(PENDING_ROWS, len(backptr)), n_labels, n_labels))
        done = held = 0  # rows of ``backptr`` filled, blocks waiting in ``pending``
        for previous, row, count in packing.steps:
            if held + count > len(pending):
                np.argmax(pending[:held], axis=1, out=backptr[done : done + held])
                done, held = done + held, 0
            block = pending[held : held + count]
            np.add(best[previous : previous + count, :, None], trans, out=block)
            target = best[row : row + count]
            target += np.maximum.reduce(block, axis=1)
            held += count
        np.argmax(pending[:held], axis=1, out=backptr[done:])
        pointers = backptr.tolist()
        offsets = packing.offsets
        paths = []
        for rank, label in enumerate(np.argmax(best[packing.last], axis=1).tolist()):
            path = [label]
            for t in range(packing.lengths[packing.order[rank]] - 1, 0, -1):
                label = pointers[offsets[t] - head + rank][label]
                path.append(label)
            path.reverse()
            paths.append(path)
        return paths

    def _forward_backward(
        self, scores: np.ndarray, transition: np.ndarray, packing: _Packing
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Log alpha and log beta per token and log partition per
        sentence, laid out like the batch; only the packed sentences'
        entries are computed."""
        n_labels = scores.shape[1]
        trans = transition[:n_labels]
        rows = packing.rows
        emitted = scores[rows]
        head = len(packing.order)  # the rows of time index 0
        lattice = np.empty((packing.width, n_labels, n_labels))
        alpha = np.empty_like(emitted)
        np.add(transition[n_labels], emitted[:head], out=alpha[:head])
        for previous, row, count in packing.steps:
            block = lattice[:count]
            np.add(alpha[previous : previous + count, :, None], trans, out=block)
            target = alpha[row : row + count]
            _logsumexp_into(block, 1, target)
            target += emitted[row : row + count]
        beta = np.zeros_like(emitted)
        for previous, row, count in reversed(packing.steps):
            block = lattice[:count]
            arriving = emitted[row : row + count] + beta[row : row + count]
            np.add(trans, arriving[:, None, :], out=block)
            _logsumexp_into(block, 2, beta[previous : previous + count])
        log_z = np.empty(len(packing.order))
        _logsumexp_into(alpha[packing.last], 1, log_z)
        by_token = np.empty((2,) + scores.shape)
        by_token[0, rows] = alpha
        by_token[1, rows] = beta
        by_sentence = np.empty(len(packing.lengths))
        by_sentence[packing.order] = log_z
        return by_token[0], by_token[1], by_sentence

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
        encoded = self._encode([s for s, _ in data], [l for _, l in data])
        packing = _Packing(encoded, range(len(data)), PENDING_ROWS)  # one thread: wide steps
        token_ids = encoded.features
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
            # one recursion over the packed training set; the sums below
            # stay sentence by sentence, token by token: their order is
            # the gradient's last digits, and the optimiser's path
            every = self._scores(encoded, emission)
            lattice = self._forward_backward(every, transition, packing)
            for s, log_z in enumerate(lattice[2].tolist()):
                span = slice(encoded.starts[s], encoded.starts[s + 1])
                scores, alpha, beta = every[span], lattice[0][span], lattice[1][span]
                labels = encoded.labels[span]
                n_tokens = scores.shape[0]

                # empirical score
                path_score = transition[n_labels, labels[0]] + scores[0, labels[0]]
                for t in range(1, n_tokens):
                    path_score += trans[labels[t - 1], labels[t]] + scores[t, labels[t]]
                negative_ll -= path_score - log_z

                # expected counts
                marginals = np.exp(alpha + beta - log_z)  # [n_tokens, n_labels]
                for t, ids in enumerate(token_ids[span]):
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

    def decode_many(
        self, batch: Sequence[list[list[str]]] | EncodedBatch
    ) -> list[tuple[list[str], list[float] | None]]:
        """Viterbi labels of each sentence of a batch (feature-name
        lists, or ids already resolved against :attr:`feature_index`)
        and each chosen label's posterior.

        The one inference path: the batch is encoded once, scored once
        and decoded in one packed recursion.  The forward-backward pass
        packs only the sentences whose path leaves ``O``; an all-``O``
        sentence has no span to score and its confidences are ``None``,
        like an empty sentence's.
        """
        self._require_trained()
        if not isinstance(batch, EncodedBatch):
            batch = self._encode(batch)
        width = min(PENDING_ROWS, max(1, STEP_ELEMENTS // len(self.labels) ** 2))
        packing = _Packing(batch, range(len(batch.lengths)), width)
        paths: dict[int, list[int]] = {}
        confidences: dict[int, list[float]] = {}
        if packing.order:
            scores = self._scores(batch, self.emission)
            paths.update(zip(packing.order, self._viterbi(scores, self.transition, packing)))
            outside = self.label_index["O"]
            leaving = [s for s, p in paths.items() if p.count(outside) != len(p)]
            if leaving:
                alpha, beta, log_z = self._forward_backward(
                    scores, self.transition, _Packing(batch, leaving, width)
                )
                spans = [range(batch.starts[s], batch.starts[s + 1]) for s in leaving]
                tokens = [i for span in spans for i in span]
                chosen = [y for s in leaving for y in paths[s]]
                owner = [s for s, span in zip(leaving, spans) for _ in span]
                exponent = alpha[tokens, chosen] + beta[tokens, chosen] - log_z[owner]
                values = iter(np.exp(exponent).tolist())
                for s, span in zip(leaving, spans):
                    confidences[s] = [next(values) for _ in span]
        return [
            ([self.labels[y] for y in paths.get(s, ())], confidences.get(s))
            for s in range(len(batch.lengths))
        ]

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
