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

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np
from scipy.optimize import minimize

#: Elements a decoding step hands a ufunc at most (a wider step is cut into
#: runs of ``STEP_ELEMENTS // n_labels ** 2`` sentences): numpy gives up the
#: GIL around any longer loop, and a hand-off per microsecond-sized call is
#: what two extract workers lose time to (5 sentences a step instead of 4, at
#: 11 labels: forward-backward of two threads 117 -> 219 ms a pass).
STEP_ELEMENTS = 500
#: Rows of the buffer of candidate blocks whose ``argmax`` is deferred: the
#: lattice memory of a decode, whatever the batch.
PENDING_ROWS = 256


def _logsumexp_into(lattice: np.ndarray, axis: int, out: np.ndarray) -> None:
    """``out = log(sum(exp(lattice), axis))``, destroying ``lattice``.

    The order is max -> exp -> sum -> log -> + peak, all in place: the
    recursions call this once per step on a ``[sentences, n_labels,
    n_labels]`` scratch, where allocation and dispatch are the whole cost.
    """
    peak = np.maximum.reduce(lattice, axis=axis, keepdims=True)
    lattice -= peak
    np.exp(lattice, out=lattice)
    np.add.reduce(lattice, axis=axis, out=out)
    np.log(out, out=out)
    out += peak.reshape(out.shape)


@dataclass
class EncodedBatch:
    """Sentences as feature ids: ``tokens[i]`` are token ``i``'s ids,
    ascending and unique (the order the emission sum adds their rows
    in), and sentence ``s`` is the tokens ``starts[s]:starts[s + 1]``.
    ``ids`` is the flat array the CRF gathers with, the tokens that have
    equally many ids side by side: ``by_width[w]`` lists the tokens with
    ``w`` ids, ``order`` is those lists end to end."""

    tokens: list[list[int]]
    ids: np.ndarray
    by_width: dict[int, list[int]]
    order: list[int]
    lengths: list[int]
    starts: list[int]

    @classmethod
    def from_ids(cls, sentences: Sequence[Sequence[Sequence[int]]]) -> "EncodedBatch":
        tokens = [sorted(set(ids)) for sentence in sentences for ids in sentence]
        by_width: dict[int, list[int]] = {}
        for i, ids in enumerate(tokens):
            by_width.setdefault(len(ids), []).append(i)
        order = [i for group in by_width.values() for i in group]
        flat = np.asarray([f for i in order for f in tokens[i]], dtype=np.int64)
        lengths = [len(sentence) for sentence in sentences]
        starts = list(accumulate(lengths, initial=0))
        return cls(tokens, flat, by_width, order, lengths, starts)


class _Packing:
    """Time-major layout of some sentences of a batch, no padding.

    The sentences are ranked longest first, so those still running at
    time index ``t`` are a prefix of the ranking and row ``offsets[t] +
    rank`` is token ``t`` of sentence ``order[rank]``: one step per time
    index covers them all, unmasked, each seeing exactly the arithmetic
    it would see alone.  ``rows[r]`` is the batch's token index of row
    ``r``; ``steps`` are the ``(previous row, row, count)`` runs of the
    later time indices, at most ``width`` sentences each; ``last`` is
    each ranked sentence's final row.
    """

    def __init__(self, batch: EncodedBatch, members: Sequence[int], width: int):
        self.lengths = lengths = batch.lengths
        self.width = width
        self.order = sorted(
            (s for s in members if lengths[s]), key=lengths.__getitem__, reverse=True
        )
        firsts = [batch.starts[s] for s in self.order]
        self.offsets = [0]
        self.rows: list[int] = []
        self.steps: list[tuple[int, int, int]] = []
        active = len(self.order)
        for t in range(lengths[self.order[0]] if self.order else 0):
            while lengths[self.order[active - 1]] <= t:
                active -= 1
            self.rows.extend(first + t for first in firsts[:active])
            if t:
                row, previous = self.offsets[t], self.offsets[t - 1]
                self.steps.extend(
                    (previous + a, row + a, min(width, active - a))
                    for a in range(0, active, width)
                )
            self.offsets.append(len(self.rows))
        self.last = [self.offsets[lengths[s] - 1] + r for r, s in enumerate(self.order)]


class LinearChainCRF:
    """Linear-chain CRF over string feature names and string labels.

    Usage::

        crf = LinearChainCRF(l2=0.1)
        crf.fit(list_of_feature_lists, list_of_label_lists)
        (labels, confidences), *_ = crf.decode_many(batch_of_feature_ids)
    """

    def __init__(self, l2: float = 0.1, max_iterations: int = 80):
        self.l2 = l2
        self.max_iterations = max_iterations
        self.feature_index: dict[str, int] = {}
        self.labels: list[str] = []
        self.label_index: dict[str, int] = {}
        self.emission: np.ndarray | None = None  # [n_features, n_labels]
        self.transition: np.ndarray | None = None  # [n_labels+1, n_labels]

    # -- encoding -------------------------------------------------------

    def _build_vocab(
        self, sentences: list[list[list[str]]], label_sequences: list[list[str]]
    ) -> None:
        features = {f for sentence in sentences for names in sentence for f in names}
        self.feature_index = {name: i for i, name in enumerate(sorted(features))}
        self.labels = sorted({"O"}.union(*label_sequences))
        self.label_index = {label: i for i, label in enumerate(self.labels)}

    def _encode(self, sentences: Sequence[list[list[str]]]) -> EncodedBatch:
        index = self.feature_index
        return EncodedBatch.from_ids(
            [
                [[index[name] for name in names if name in index] for names in sentence]
                for sentence in sentences
            ]
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
                block = block.reshape(len(group), width, n_labels)
                np.add.reduce(block, axis=1, out=summed[done : done + len(group)])
            at += len(group) * width
            done += len(group)
        scores = np.empty_like(summed)
        scores[encoded.order] = summed
        return scores

    # -- the lattice: one Viterbi recursion, one forward-backward -------------

    def _viterbi(
        self, scores: np.ndarray, transition: np.ndarray, packing: _Packing
    ) -> dict[int, list[int]]:
        """The highest-scoring label-id path of each packed sentence.  A
        step keeps its ``[count, from, to]`` candidate block and one
        ``argmax`` per full buffer recovers the back-pointers: a call
        saved per step, the one left long enough to be worth its GIL."""
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
        paths = {}
        finals = np.argmax(best[packing.last], axis=1).tolist()
        for rank, (s, label) in enumerate(zip(packing.order, finals)):
            paths[s] = path = [label]
            for t in range(packing.lengths[s] - 1, 0, -1):
                label = pointers[packing.offsets[t] - head + rank][label]
                path.append(label)
            path.reverse()
        return paths

    def _forward_backward(
        self, scores: np.ndarray, transition: np.ndarray, packing: _Packing
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Log alpha and log beta per token and log partition per
        sentence, laid out like the batch; only the packed sentences'
        entries are computed."""
        n_labels = scores.shape[1]
        trans = transition[:n_labels]
        emitted = scores[packing.rows]
        head = len(packing.order)  # the rows of time index 0
        lattice = np.empty((packing.width, n_labels, n_labels))
        alpha, beta = packed = np.zeros((2,) + emitted.shape)
        np.add(transition[n_labels], emitted[:head], out=alpha[:head])
        for previous, row, count in packing.steps:
            block = lattice[:count]
            np.add(alpha[previous : previous + count, :, None], trans, out=block)
            target = alpha[row : row + count]
            _logsumexp_into(block, 1, target)
            target += emitted[row : row + count]
        for previous, row, count in reversed(packing.steps):
            block = lattice[:count]
            arriving = emitted[row : row + count] + beta[row : row + count]
            np.add(trans, arriving[:, None, :], out=block)
            _logsumexp_into(block, 2, beta[previous : previous + count])
        log_z = np.empty(len(packing.order))
        _logsumexp_into(alpha[packing.last], 1, log_z)
        by_token = np.empty((2,) + scores.shape)
        by_token[:, packing.rows] = packed
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
        data = [(s, labels) for s, labels in zip(sentences, label_sequences) if s]
        self._build_vocab([s for s, _ in data], [labels for _, labels in data])
        encoded = self._encode([s for s, _ in data])
        every_label = np.asarray(
            [self.label_index[y] for _, labels in data for y in labels], dtype=np.int64
        )
        token_ids = [np.asarray(ids, dtype=np.int64) for ids in encoded.tokens]
        # one optimiser thread: steps as wide as the lattice buffer
        packing = _Packing(encoded, range(len(data)), PENDING_ROWS)
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
            # one packed recursion; the sums stay sentence by sentence, token
            # by token: their order is the gradient's last digits
            every = self._scores(encoded, emission)
            lattice = self._forward_backward(every, transition, packing)
            for s, log_z in enumerate(lattice[2].tolist()):
                span = slice(encoded.starts[s], encoded.starts[s + 1])
                scores, alpha, beta = every[span], lattice[0][span], lattice[1][span]
                labels = every_label[span]
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
            grad = np.concatenate([grad_emission.ravel(), grad_transition.ravel()])
            return negative_ll, grad + self.l2 * theta

        result = minimize(
            objective,
            np.zeros(emission_size + transition_size),
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
        self, batch: EncodedBatch
    ) -> list[tuple[list[str], list[float] | None]]:
        """Viterbi labels of each sentence of a batch (ids resolved
        against :attr:`feature_index`) and each chosen label's posterior.

        The one inference path: encoded once, scored once, decoded in
        one packed recursion.  Forward-backward packs only the sentences
        whose path leaves ``O``; an all-``O`` sentence has no span to
        score and its confidences are ``None``, like an empty one's.
        """
        self._require_trained()
        everyone = range(len(batch.lengths))
        width = min(PENDING_ROWS, max(1, STEP_ELEMENTS // len(self.labels) ** 2))
        packing = _Packing(batch, everyone, width)
        if not packing.order:
            return [([], None) for _ in everyone]
        scores = self._scores(batch, self.emission)
        paths = self._viterbi(scores, self.transition, packing)
        outside = self.label_index["O"]
        leaving = [s for s, p in paths.items() if p.count(outside) != len(p)]
        confidences: dict[int, list[float]] = {}
        if leaving:
            alpha, beta, log_z = self._forward_backward(
                scores, self.transition, _Packing(batch, leaving, width)
            )
            starts = batch.starts
            tokens = [i for s in leaving for i in range(starts[s], starts[s + 1])]
            chosen = [y for s in leaving for y in paths[s]]
            owner = [s for s in leaving for _ in paths[s]]
            exponent = alpha[tokens, chosen] + beta[tokens, chosen] - log_z[owner]
            values = iter(np.exp(exponent).tolist())
            confidences = {s: [next(values) for _ in paths[s]] for s in leaving}
        return [
            ([self.labels[y] for y in paths.get(s, ())], confidences.get(s))
            for s in everyone
        ]


__all__ = ["LinearChainCRF"]
