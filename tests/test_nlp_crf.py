"""Unit tests for the linear-chain CRF."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crf_oracle
from repro.nlp.crf import EncodedSentence, LinearChainCRF
from repro.nlp.tokenize import tokenize_sentences


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
        X.append([[f"w={w}", f"p1={w[0]}"] for w in words])
        Y.append(labels)
    return X, Y


@pytest.fixture(scope="module")
def toy_crf():
    X, Y = make_toy_data(120)
    return LinearChainCRF(l2=0.01, max_iterations=80).fit(X, Y)


class TestTraining:
    def test_learns_emissions_and_transitions(self, toy_crf):
        X, Y = make_toy_data(40, seed=1)
        correct = total = 0
        for feats, labels in zip(X, Y):
            pred = toy_crf.decode(feats)[0]
            correct += sum(p == g for p, g in zip(pred, labels))
            total += len(labels)
        assert correct / total > 0.97

    def test_transition_signal_used(self, toy_crf):
        # 'bat' after an 'a'-word must be B, standalone must be O --
        # emission features alone cannot distinguish these.
        pred = toy_crf.decode([["w=ant", "p1=a"], ["w=bat", "p1=b"]])[0]
        assert pred == ["A", "B"]
        pred2 = toy_crf.decode([["w=cat", "p1=c"], ["w=bat", "p1=b"]])[0]
        assert pred2 == ["O", "O"]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            LinearChainCRF().fit([[["f"]]], [])

    def test_unknown_features_ignored_at_predict(self, toy_crf):
        pred = toy_crf.decode([["w=zebra", "never-seen"]])[0]
        assert len(pred) == 1


def marginals(crf, sentence):
    """P(label | position) rows of one sentence, [n_tokens, n_labels]."""
    return crf._posteriors(crf._scores(crf._encode(sentence), crf.emission))


class TestInference:
    def test_marginals_sum_to_one(self, toy_crf):
        for row in marginals(toy_crf, [["w=ant"], ["w=bog"], ["w=cat"]]):
            assert abs(row.sum() - 1.0) < 1e-6

    def test_marginals_agree_with_viterbi_when_confident(self, toy_crf):
        feats = [["w=ant", "p1=a"], ["w=cat", "p1=c"]]
        viterbi, _ = toy_crf.decode(feats)
        rows = marginals(toy_crf, feats)
        argmax = [toy_crf.labels[i] for i in rows.argmax(axis=1)]
        assert viterbi == argmax

    def test_empty_sentence(self, toy_crf):
        assert toy_crf.decode([]) == ([], None)

    def test_untrained_raises(self):
        with pytest.raises(RuntimeError):
            LinearChainCRF().decode([["f"]])


class TestPersistence:
    def test_save_load_round_trip(self, toy_crf, tmp_path):
        path = tmp_path / "model"
        toy_crf.save(path)
        loaded = LinearChainCRF.load(path)
        feats = [["w=ant", "p1=a"], ["w=bat", "p1=b"], ["w=cat", "p1=c"]]
        assert loaded.decode(feats) == toy_crf.decode(feats)
        np.testing.assert_allclose(loaded.emission, toy_crf.emission)
        np.testing.assert_allclose(loaded.transition, toy_crf.transition)


class TestGradient:
    def test_gradient_matches_finite_differences(self):
        """The analytic gradient must match numeric differentiation."""
        X, Y = make_toy_data(4, seed=3)
        crf = LinearChainCRF(l2=0.1)
        crf._build_vocab(X, Y)
        encoded = [crf._encode(s, l) for s, l in zip(X, Y)]
        n_features = len(crf.feature_index)
        n_labels = len(crf.labels)
        size = n_features * n_labels + (n_labels + 1) * n_labels
        rng = np.random.default_rng(0)
        theta = rng.normal(scale=0.1, size=size)

        def objective(t):
            emission = t[: n_features * n_labels].reshape(n_features, n_labels)
            transition = t[n_features * n_labels :].reshape(n_labels + 1, n_labels)
            value = 0.0
            for sentence in encoded:
                scores = crf._scores(sentence, emission)
                _a, _b, log_z = crf._forward_backward(scores, transition)
                labels = sentence.labels
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
            for sentence in encoded:
                scores = crf._scores(sentence, emission)
                alpha, beta, log_z = crf._forward_backward(scores, transition)
                labels = sentence.labels
                path = transition[n_labels, labels[0]] + scores[0, labels[0]]
                for i in range(1, len(labels)):
                    path += trans[labels[i - 1], labels[i]] + scores[i, labels[i]]
                value -= path - log_z
                marg = np.exp(alpha + beta - log_z)
                for i, ids in enumerate(sentence.features):
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
        labels, confidences = crf.decode(sentence)
        path = [crf.label_index[label] for label in labels]
        assert path in best

        rows = marginals(crf, sentence)
        assert np.abs(rows.sum(axis=1) - 1.0).max() < 1e-9
        assert np.abs(rows - np.asarray(posteriors)).max() < 1e-9
        scores = crf._scores(crf._encode(sentence), crf.emission)
        assert abs(crf._forward_backward(scores, crf.transition)[2] - log_z) < 1e-9

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
        labels, confidences = crf.decode(features)
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
            encoded = extractor.encode(sentence.tokens, crf.feature_index)
            assert encoded.ids.tolist() == crf._encode(names).ids.tolist()
            assert encoded.bounds == crf._encode(names).bounds
            labels = self.check(crf, names)
            assert crf.decode(encoded) == crf.decode(names)
            spans = small_recognizer.recognize_tokens(sentence.tokens)
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
        assert toy_crf.decode([]) == ([], None)
        assert toy_crf.decode(EncodedSentence.from_ids([])) == ([], None)

    def test_token_without_a_known_feature_scores_a_zero_row(self, toy_crf):
        features = [["w=ant", "p1=a"], ["never-seen"], ["w=bat", "p1=b"]]
        scores = toy_crf._scores(toy_crf._encode(features), toy_crf.emission)
        assert not scores[1].any() and scores[0].any()
        self.check(toy_crf, features)

    def test_all_outside_sentence_computes_no_posteriors(self, toy_crf, monkeypatch):
        def boom(*_args):
            raise AssertionError("forward-backward ran for an all-O sentence")

        monkeypatch.setattr(toy_crf, "_forward_backward", boom)
        features = [["w=cat", "p1=c"], ["w=dog", "p1=d"]]
        assert toy_crf.decode(features) == (["O", "O"], None)
