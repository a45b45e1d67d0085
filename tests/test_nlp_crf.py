"""Unit tests for the linear-chain CRF."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crf_oracle
from repro.nlp.crf import EncodedBatch, LinearChainCRF, _Packing
from repro.nlp.ner import decode_bio
from repro.nlp.tokenize import tokenize_sentences


def toy_features(words):
    return [[f"w={w}", f"p1={w[0]}"] for w in words]


def make_toy_data(n, seed=0):
    """Words starting with 'a' are labelled A; after 'a'-words, 'b'-words
    are B (tests transitions); everything else O."""
    rng = random.Random(seed)
    vocab = ["ant", "apple", "bog", "bat", "cat", "dog"]
    X, Y = [], []
    for _ in range(n):
        words = [rng.choice(vocab) for _ in range(rng.randint(3, 9))]
        labels = []
        for i, w in enumerate(words):
            if w.startswith("a"):
                labels.append("A")
            elif w.startswith("b") and i > 0 and words[i - 1].startswith("a"):
                labels.append("B")
            else:
                labels.append("O")
        X.append(toy_features(words))
        Y.append(labels)
    return X, Y


def decode(crf, sentence):
    """Labels and confidences of one sentence: a batch of one."""
    (decoded,) = crf.decode_many(crf._encode([sentence]))
    return decoded


def lattice(crf, encoded, emission=None, transition=None):
    """``(scores, alpha, beta, log_z)`` of a batch, one wide packing."""
    emission = crf.emission if emission is None else emission
    transition = crf.transition if transition is None else transition
    scores = crf._scores(encoded, emission)
    packing = _Packing(encoded, range(len(encoded.lengths)), 256)
    return (scores, *crf._forward_backward(scores, transition, packing))


@pytest.fixture(scope="module")
def toy_crf():
    X, Y = make_toy_data(120)
    return LinearChainCRF(l2=0.01, max_iterations=80).fit(X, Y)


class TestTraining:
    def test_learns_emissions_and_transitions(self, toy_crf):
        X, Y = make_toy_data(40, seed=1)
        correct = total = 0
        for feats, labels in zip(X, Y):
            pred = decode(toy_crf, feats)[0]
            correct += sum(p == g for p, g in zip(pred, labels))
            total += len(labels)
        assert correct / total > 0.97

    def test_transition_signal_used(self, toy_crf):
        # 'bat' after an 'a'-word must be B, standalone must be O --
        # emission features alone cannot distinguish these.
        pred = decode(toy_crf, [["w=ant", "p1=a"], ["w=bat", "p1=b"]])[0]
        assert pred == ["A", "B"]
        pred2 = decode(toy_crf, [["w=cat", "p1=c"], ["w=bat", "p1=b"]])[0]
        assert pred2 == ["O", "O"]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            LinearChainCRF().fit([[["f"]]], [])

    def test_unknown_features_ignored_at_predict(self, toy_crf):
        pred = decode(toy_crf, [["w=zebra", "never-seen"]])[0]
        assert len(pred) == 1


def marginals(crf, sentence):
    """P(label | position) rows of one sentence, [n_tokens, n_labels]."""
    _scores, alpha, beta, log_z = lattice(crf, crf._encode([sentence]))
    return np.exp(alpha + beta - log_z[0])


class TestInference:
    def test_marginals_sum_to_one(self, toy_crf):
        for row in marginals(toy_crf, [["w=ant"], ["w=bog"], ["w=cat"]]):
            assert abs(row.sum() - 1.0) < 1e-6

    def test_marginals_agree_with_viterbi_when_confident(self, toy_crf):
        feats = [["w=ant", "p1=a"], ["w=cat", "p1=c"]]
        viterbi, _ = decode(toy_crf, feats)
        rows = marginals(toy_crf, feats)
        argmax = [toy_crf.labels[i] for i in rows.argmax(axis=1)]
        assert viterbi == argmax

    def test_empty_sentence(self, toy_crf):
        assert decode(toy_crf, []) == ([], None)

    def test_untrained_raises(self):
        with pytest.raises(RuntimeError):
            LinearChainCRF().decode_many(EncodedBatch.from_ids([[[0]]]))


class TestGradient:
    def test_gradient_matches_finite_differences(self):
        """The analytic gradient must match numeric differentiation."""
        X, Y = make_toy_data(4, seed=3)
        crf = LinearChainCRF(l2=0.1)
        crf._build_vocab(X, Y)
        encoded = [crf._encode([s]) for s in X]
        targets = [[crf.label_index[y] for y in labels] for labels in Y]
        n_features = len(crf.feature_index)
        n_labels = len(crf.labels)
        size = n_features * n_labels + (n_labels + 1) * n_labels
        rng = np.random.default_rng(0)
        theta = rng.normal(scale=0.1, size=size)

        def objective(t):
            emission = t[: n_features * n_labels].reshape(n_features, n_labels)
            transition = t[n_features * n_labels :].reshape(n_labels + 1, n_labels)
            value = 0.0
            for sentence, labels in zip(encoded, targets):
                scores, _a, _b, (log_z,) = lattice(crf, sentence, emission, transition)
                path = transition[n_labels, labels[0]] + scores[0, labels[0]]
                for i in range(1, len(labels)):
                    path += transition[labels[i - 1], labels[i]] + scores[i, labels[i]]
                value -= path - log_z
            return value + 0.5 * crf.l2 * float(t @ t)

        # analytic gradient via the internal objective
        emission_size = n_features * n_labels

        def full(t):
            emission = t[:emission_size].reshape(n_features, n_labels)
            transition = t[emission_size:].reshape(n_labels + 1, n_labels)
            grad_e = np.zeros_like(emission)
            grad_t = np.zeros_like(transition)
            value = 0.0
            trans = transition[:n_labels]
            for sentence, labels in zip(encoded, targets):
                scores, alpha, beta, (log_z,) = lattice(crf, sentence, emission, transition)
                path = transition[n_labels, labels[0]] + scores[0, labels[0]]
                for i in range(1, len(labels)):
                    path += trans[labels[i - 1], labels[i]] + scores[i, labels[i]]
                value -= path - log_z
                marg = np.exp(alpha + beta - log_z)
                for i, ids in enumerate(sentence.tokens):
                    if len(ids):
                        grad_e[ids] += marg[i]
                        grad_e[ids, labels[i]] -= 1.0
                grad_t[n_labels] += marg[0]
                grad_t[n_labels, labels[0]] -= 1.0
                for i in range(1, len(labels)):
                    pair = (
                        alpha[i - 1][:, None] + trans + (scores[i] + beta[i])[None, :] - log_z
                    )
                    grad_t[:n_labels] += np.exp(pair)
                    grad_t[labels[i - 1], labels[i]] -= 1.0
            value += 0.5 * crf.l2 * float(t @ t)
            grad = np.concatenate([grad_e.ravel(), grad_t.ravel()]) + crf.l2 * t
            return value, grad

        _value, grad = full(theta)
        eps = 1e-5
        indices = rng.choice(size, size=12, replace=False)
        for index in indices:
            bump = np.zeros(size)
            bump[index] = eps
            numeric = (objective(theta + bump) - objective(theta - bump)) / (2 * eps)
            assert abs(numeric - grad[index]) < 1e-4, index


# -- decode against the brute-force oracle ------------------------------

WEIGHT = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False, width=32)


@st.composite
def tiny_crfs(draw):
    """An untrained-but-weighted CRF (L <= 4 labels, <= 5 features) and
    one sentence (n <= 4 tokens) of known and unknown feature names."""
    n_labels = draw(st.integers(1, 4))
    n_features = draw(st.integers(1, 5))
    crf = LinearChainCRF()
    crf.labels = sorted(["O", "B-X", "I-X", "B-Y"][:n_labels])
    crf.label_index = {label: i for i, label in enumerate(crf.labels)}
    crf.feature_index = {f"f{i}": i for i in range(n_features)}
    crf.emission = np.array(
        draw(st.lists(st.lists(WEIGHT, min_size=n_labels, max_size=n_labels),
                      min_size=n_features, max_size=n_features))
    )
    crf.transition = np.array(
        draw(st.lists(st.lists(WEIGHT, min_size=n_labels, max_size=n_labels),
                      min_size=n_labels + 1, max_size=n_labels + 1))
    )
    names = st.sampled_from([f"f{i}" for i in range(n_features)] + ["unseen"])
    sentence = draw(st.lists(st.lists(names, max_size=4), min_size=1, max_size=4))
    return crf, sentence


class TestDecodeAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(tiny_crfs())
    def test_labels_and_posteriors_match_brute_force(self, case):
        crf, sentence = case
        ids = [
            sorted({crf.feature_index[f] for f in token if f in crf.feature_index})
            for token in sentence
        ]
        best, log_z, posteriors = crf_oracle.solve(
            crf.emission.tolist(), crf.transition.tolist(), ids
        )
        labels, confidences = decode(crf, sentence)
        path = [crf.label_index[label] for label in labels]
        assert path in best

        rows = marginals(crf, sentence)
        assert np.abs(rows.sum(axis=1) - 1.0).max() < 1e-9
        assert np.abs(rows - np.asarray(posteriors)).max() < 1e-9
        assert abs(lattice(crf, crf._encode([sentence]))[3][0] - log_z) < 1e-9

        if set(labels) == {"O"}:
            assert confidences is None
        else:
            assert confidences == rows[np.arange(len(path)), path].tolist()


class TestDecodeIsTheOtherTwo:
    """``decode(f)``'s confidences are the chosen labels' marginals,
    float for float, whichever way the sentence was encoded."""

    TEXTS = (
        "The wannacry ransomware encrypts files across mapped drives. "
        "Analysts reviewed the weekly numbers without any findings. "
        "Analysts attribute the campaign to lazarus group",
        "wannacry",
    )

    def check(self, crf, features):
        labels, confidences = decode(crf, features)
        if set(labels) <= {"O"}:
            assert confidences is None
            return labels
        path = [crf.label_index[label] for label in labels]
        rows = marginals(crf, features)
        assert confidences == rows[np.arange(len(path)), path].tolist()
        return labels

    def test_names_and_ids_decode_alike_on_real_sentences(self, small_recognizer):
        crf, extractor = small_recognizer.crf, small_recognizer.features
        seen = set()
        for sentence in (s for text in self.TEXTS for s in tokenize_sentences(text)):
            names = extractor.extract(sentence.tokens)
            encoded = extractor.encode([sentence.tokens], crf.feature_index)
            reference = crf._encode([names])
            assert encoded.ids.tolist() == reference.ids.tolist()
            assert encoded.by_width == reference.by_width
            assert encoded.tokens == [
                sorted({crf.feature_index[f] for f in token if f in crf.feature_index})
                for token in names
            ]
            labels = self.check(crf, names)
            assert crf.decode_many(encoded) == [decode(crf, names)]
            spans = decode_bio(sentence.tokens, *decode(crf, names))
            if set(labels) == {"O"}:
                seen.add("all-O")
                assert spans == []
            elif labels[-1] != "O":
                seen.add("span ends on the last token")
                assert spans[-1].end == len(sentence.tokens)
            if len(sentence.tokens) == 1:
                seen.add("one token")
        assert seen == {"all-O", "span ends on the last token", "one token"}

    def test_empty_sentence(self, toy_crf):
        assert toy_crf.decode_many(EncodedBatch.from_ids([])) == []
        assert toy_crf.decode_many(EncodedBatch.from_ids([[], []])) == [([], None)] * 2

    def test_token_without_a_known_feature_scores_a_zero_row(self, toy_crf):
        features = [["w=ant", "p1=a"], ["never-seen"], ["w=bat", "p1=b"]]
        scores = toy_crf._scores(toy_crf._encode([features]), toy_crf.emission)
        assert not scores[1].any() and scores[0].any()
        self.check(toy_crf, features)

    def test_all_outside_sentence_computes_no_posteriors(self, toy_crf, monkeypatch):
        def boom(*_args):
            raise AssertionError("forward-backward ran for an all-O batch")

        monkeypatch.setattr(toy_crf, "_forward_backward", boom)
        outside = [["w=cat", "p1=c"], ["w=dog", "p1=d"]]
        batch = toy_crf._encode([outside, [], outside[:1]])
        assert toy_crf.decode_many(batch) == [
            (["O", "O"], None),
            ([], None),
            (["O"], None),
        ]


# -- the packed batch against its own sentences, one at a time ---------------


@st.composite
def ragged_batches(draw):
    """1-12 sentences of 0-40 tokens over the toy vocabulary, most words
    all-``O``, with duplicates and one-token sentences drawn on purpose."""
    word = st.sampled_from(["ant", "apple", "bog", "bat", "cat", "dog", "emu"])
    sentence = st.lists(word, max_size=40).map(toy_features)
    batch = draw(st.lists(sentence, min_size=1, max_size=12))
    for source in draw(st.lists(st.integers(0, len(batch) - 1), max_size=3)):
        batch.append(batch[source])
    if draw(st.booleans()):
        batch.insert(draw(st.integers(0, len(batch))), [["w=cat", "p1=c"]])
    return batch[:12]


class TestPackedDecode:
    @settings(max_examples=120, deadline=None)
    @given(ragged_batches())
    def test_a_sentence_decodes_alike_alone_and_in_any_batch(self, toy_crf, batch):
        packed = toy_crf.decode_many(toy_crf._encode(batch))
        assert len(packed) == len(batch)
        for sentence, decoded in zip(batch, packed):
            assert decoded == decode(toy_crf, sentence)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(tiny_crfs(), min_size=1, max_size=6), st.integers(0, 5))
    def test_batch_matches_brute_force(self, cases, pick):
        """Sentences drawn for several tiny CRFs, decoded by one of them
        in one batch, against the path table of ``crf_oracle``."""
        crf = cases[pick % len(cases)][0]
        batch = [sentence for _crf, sentence in cases] + [[]]
        encoded = crf._encode(batch)
        decoded = crf.decode_many(encoded)
        _scores, alpha, beta, log_zs = lattice(crf, encoded)
        for s, (sentence, (labels, confidences)) in enumerate(zip(batch, decoded)):
            if not sentence:
                assert (labels, confidences) == ([], None)
                continue
            ids = encoded.tokens[encoded.starts[s] : encoded.starts[s + 1]]
            best, log_z, posteriors = crf_oracle.solve(
                crf.emission.tolist(), crf.transition.tolist(), ids
            )
            path = [crf.label_index[label] for label in labels]
            assert path in best
            span = slice(encoded.starts[s], encoded.starts[s + 1])
            rows = np.exp(alpha[span] + beta[span] - log_zs[s])
            assert abs(log_zs[s] - log_z) < 1e-9
            assert np.abs(rows - np.asarray(posteriors)).max() < 1e-9
            if set(labels) == {"O"}:
                assert confidences is None
            else:
                assert confidences == rows[np.arange(len(path)), path].tolist()

    def test_one_report_is_a_handful_of_dispatches(self, toy_crf, monkeypatch):
        """Sentence lengths (9, 4, 4, 1), every one leaving ``O``: one
        forward and one backward step per time index after the first
        plus one ``log Z`` for all four, and the back-pointers in a
        constant number of ``argmax`` calls -- not one per token."""
        import repro.nlp.crf as module

        calls = {"logsumexp": 0, "argmax": 0}

        def counted(name, inner):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            module, "_logsumexp_into", counted("logsumexp", module._logsumexp_into)
        )
        monkeypatch.setattr(np, "argmax", counted("argmax", np.argmax))
        ant = ["w=ant", "p1=a"]
        batch = [[ant] * 4, [ant] * 9, [ant], [ant] * 4]
        decoded = toy_crf.decode_many(toy_crf._encode(batch))
        assert [labels for labels, _ in decoded] == [["A"] * len(s) for s in batch]
        assert calls["logsumexp"] <= 2 * (9 - 1) + 1
        assert calls["argmax"] == 2  # the deferred back-pointers, the last labels

    def test_one_long_sentence_beside_many_short_ones_is_not_padded(self, toy_crf):
        """5 000 tokens next to 500 one-token sentences: equal to the
        sentences decoded alone, and no ``[batch, longest]`` array --
        that would be 501 x 5 000 x 3 doubles = 60 MB for the scores
        alone; the whole decode stays under 8 MB."""
        import tracemalloc

        rng = random.Random(5)
        long = toy_features(rng.choices(["ant", "bat", "cat"], k=5000))
        short = [toy_features([w]) for w in rng.choices(["ant", "cat"], k=500)]
        batch = toy_crf._encode(short[:250] + [long] + short[250:])
        tracemalloc.start()
        decoded = toy_crf.decode_many(batch)
        _now, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 8 * 2**20
        alone = {w: decode(toy_crf, toy_features([w])) for w in ("ant", "cat")}
        assert decoded.pop(250) == decode(toy_crf, long)
        assert decoded == [alone[s[0][0][2:]] for s in short]

    def test_two_threads_share_one_recogniser(self, small_recognizer):
        import threading

        from conftest import training_texts

        texts = training_texts(scenario_count=10)
        assert len(texts) == 20
        serial = [small_recognizer.extract(text) for text in texts]
        results: dict[str, list] = {}

        def work(name):
            results[name] = [small_recognizer.extract(text) for text in texts]

        threads = [
            threading.Thread(target=work, args=(name,), name=name)
            for name in ("extract-a", "extract-b")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert results == {"extract-a": serial, "extract-b": serial}
