"""CRF feature extraction.

Feature templates follow the paper (section 2.4): word lemmas, POS
tags and word embeddings, plus the standard shape/affix/context
templates and gazetteer-membership indicators.  Features are string
names; a trained CRF knows them by index, and on the inference path
the extractor resolves templates straight to those ids
(:meth:`FeatureExtractor.encode`) instead of formatting names the CRF
would look up again.

Gazetteer membership enters as a *feature*, not a decision -- that is
what lets the CRF recognise names absent from the curated lists by
leaning on lemma/POS/context evidence instead.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.nlp.crf import EncodedBatch
from repro.nlp.embeddings import WordEmbeddings
from repro.nlp.gazetteer import Gazetteer
from repro.nlp.lemma import lemmatize
from repro.nlp.pos import tag as pos_tag
from repro.nlp.tokenize import Token
from repro.runtime import named_lock

_DIGIT_RE = re.compile(r"\d")

#: Distinct words one extractor keeps resolved templates for.  Words
#: past the cap are resolved on every occurrence; nothing is evicted,
#: so the frequent vocabulary (seen first) stays cached.
WORD_CACHE_CAP = 1 << 14


def word_shape(word: str) -> str:
    """Compressed orthographic shape: 'WannaCry' -> 'XxXx', '10.0' -> 'd.d'."""
    out: list[str] = []
    for char in word[:12]:
        if char.isupper():
            symbol = "X"
        elif char.islower():
            symbol = "x"
        elif char.isdigit():
            symbol = "d"
        else:
            symbol = char
        if not out or out[-1] != symbol:
            out.append(symbol)
    return "".join(out)


class _Templates:
    """The feature templates of one extractor, resolved one way.

    With ``index=None`` a template resolves to its name (training: the
    index does not exist yet); with a trained CRF's feature index it
    resolves to the name's id, and names the CRF never saw resolve to
    nothing.  Either way a template yields a tuple the caller splices
    into the token's feature list.

    The word-local templates and the ``w[-k]=`` / ``w[+k]=`` context
    templates depend on the word alone, the ``pos`` templates on the tag
    alone, so both are resolved once per distinct word / tag and kept.
    ``words`` is shared by the extract workers: lookups take no lock (a
    dict read is atomic, and entries are immutable once stored); only an
    insert, which must check the cap and store in one step, does.
    """

    def __init__(self, extractor: "FeatureExtractor", index: Mapping[str, int] | None):
        self.extractor = extractor
        self.index = index
        self.offsets = range(1, extractor.window + 1)
        self.words: dict[str, tuple] = {}
        self._lock = named_lock("nlp.feature_cache")
        self.tags: dict[str, tuple] = {}
        self.bias = self.resolve("bias")
        self.bos = self.resolve("bos")
        self.eos = self.resolve("eos")
        self.before_start = [self.resolve(f"w[-{k}]=<s>") for k in self.offsets]
        self.after_end = [self.resolve(f"w[+{k}]=</s>") for k in self.offsets]

    def resolve(self, *names: str) -> tuple:
        if self.index is None:
            return names
        return tuple(i for i in map(self.index.get, names) if i is not None)

    def word(self, word: str) -> tuple[tuple, tuple, tuple]:
        """``(local, as_left, as_right)``: the word's own features, and
        the context feature it gives the token ``k`` places to its right
        (``as_left[k - 1]``, ``w[-k]=``) and left (``as_right[k - 1]``)."""
        entry = self.words.get(word)
        if entry is None:
            entry = self._resolve_word(word)
            if len(self.words) < WORD_CACHE_CAP:  # a full cache stays lock-free
                with self._lock:
                    if len(self.words) < WORD_CACHE_CAP:
                        self.words[word] = entry
        return entry

    def _resolve_word(self, word: str) -> tuple[tuple, tuple, tuple]:
        lower = word.lower()
        names = [
            f"w={lower}",
            f"lemma={lemmatize(word)}",
            f"shape={word_shape(word)}",
            f"pre2={lower[:2]}",
            f"pre3={lower[:3]}",
            f"suf2={lower[-2:]}",
            f"suf3={lower[-3:]}",
        ]
        if word[:1].isupper():
            names.append("cap")
        if _DIGIT_RE.search(word):
            names.append("hasdigit")
        if "-" in word:
            names.append("hashyphen")
        embeddings = self.extractor.embeddings
        if embeddings is not None:
            names.extend(
                embeddings.bucket_features(lower, self.extractor.embedding_buckets)
            )
        return (
            self.resolve(*names),
            tuple(self.resolve(f"w[-{k}]={lower}") for k in self.offsets),
            tuple(self.resolve(f"w[+{k}]={lower}") for k in self.offsets),
        )

    def tag(self, tag: str) -> tuple[tuple, tuple, tuple]:
        """``(pos, as_left, as_right)``, laid out like :meth:`word`."""
        entry = self.tags.get(tag)
        if entry is None:
            entry = self.tags[tag] = (
                self.resolve(f"pos={tag}"),
                tuple(self.resolve(f"pos[-{k}]={tag}") for k in self.offsets),
                tuple(self.resolve(f"pos[+{k}]={tag}") for k in self.offsets),
            )
        return entry


@dataclass
class FeatureExtractor:
    """Turns a tokenized sentence into per-token features.

    Parameters
    ----------
    gazetteer:
        Optional curated lists for membership indicator features.
    embeddings:
        Optional trained embeddings for sign-bucket features.
    window:
        Context window size for neighbouring word/POS features.
    """

    gazetteer: Gazetteer | None = None
    embeddings: WordEmbeddings | None = None
    window: int = 2
    embedding_buckets: int = 8
    #: templates resolved against the feature index last passed to
    #: :meth:`encode` (one recogniser has one CRF, hence one index)
    _cache: _Templates | None = field(default=None, init=False, repr=False)

    def extract(self, tokens: Sequence[Token]) -> list[list[str]]:
        """Feature-name lists for every token of one sentence."""
        return self._features(tokens, _Templates(self, None))

    def encode(
        self, sentences: Sequence[Sequence[Token]], feature_index: Mapping[str, int]
    ) -> EncodedBatch:
        """The features of :meth:`extract`, sentence by sentence, as ids
        in ``feature_index`` (names outside it dropped): one flat batch,
        ready for the CRF."""
        templates = self._cache
        if templates is None or templates.index is not feature_index:
            templates = self._cache = _Templates(self, feature_index)
        return EncodedBatch.from_ids([self._features(s, templates) for s in sentences])

    def _features(self, tokens: Sequence[Token], templates: _Templates) -> list[list]:
        words = [token.text for token in tokens]
        word_entries = [templates.word(word) for word in words]
        tag_entries = [templates.tag(tag) for tag in pos_tag(list(tokens))]
        gaz_types = self._gazetteer_types(words)

        features: list[list] = []
        n = len(tokens)
        for i, token in enumerate(tokens):
            feats = list(templates.bias)
            feats += word_entries[i][0]
            feats += tag_entries[i][0]
            if token.is_ioc:
                feats += templates.resolve("ioc", f"ioctype={token.ioc_type.value}")
            if gaz_types[i]:
                feats += templates.resolve(*[f"gaz={t}" for t in gaz_types[i]])
            for k in templates.offsets:
                if i - k >= 0:
                    feats += word_entries[i - k][1][k - 1]
                    feats += tag_entries[i - k][1][k - 1]
                else:
                    feats += templates.before_start[k - 1]
                if i + k < n:
                    feats += word_entries[i + k][2][k - 1]
                    feats += tag_entries[i + k][2][k - 1]
                else:
                    feats += templates.after_end[k - 1]
            if i == 0:
                feats += templates.bos
            if i == n - 1:
                feats += templates.eos
            features.append(feats)
        return features

    def _gazetteer_types(self, words: list[str]) -> list[set[str]]:
        per_token: list[set[str]] = [set() for _ in words]
        if self.gazetteer is None:
            return per_token
        for start, end, entity_type in self.gazetteer.match(words):
            for i in range(start, min(end, len(words))):
                per_token[i].add(entity_type.value)
        return per_token


__all__ = ["FeatureExtractor", "WORD_CACHE_CAP", "word_shape"]
