"""Lightweight part-of-speech tagger.

A deterministic lexicon-plus-heuristics tagger producing a compact
Penn-style tag set.  POS tags feed two consumers: CRF features
(section 2.4: "features such as word lemmas, pos tags, and word
embeddings") and the shallow dependency parser behind relation
extraction.  Closed-class words come from an explicit lexicon; open
class words are resolved by suffix/shape heuristics with a
verb-lexicon assist, then repaired by a short list of contextual rules
(determiner -> noun, ``to`` + base verb, modal + verb).
"""

from __future__ import annotations

from repro.nlp.tokenize import Token

#: Closed-class lexicon: word -> tag.
_LEXICON: dict[str, str] = {}
for _word in (
    "the a an this that these those its his her their our your any some "
    "each every no all both several many few most other another such"
).split():
    _LEXICON[_word] = "DT"
for _word in (
    "in on at by for with from to of over under through against via "
    "during before after between within across onto into alongside "
    "inside behind without toward towards per"
).split():
    _LEXICON[_word] = "IN"
for _word in "and or but nor so yet".split():
    _LEXICON[_word] = "CC"
for _word in (
    "he she it they we you i who which what them him us me itself themselves"
).split():
    _LEXICON[_word] = "PRP"
for _word in "will would can could may might must shall should".split():
    _LEXICON[_word] = "MD"
for _word in "is are was were be been being am".split():
    _LEXICON[_word] = "VB"
for _word in "has have had do does did".split():
    _LEXICON[_word] = "VB"
for _word in "not never also still already once again".split():
    _LEXICON[_word] = "RB"
for _word in "when where while if because although that as since whether".split():
    _LEXICON[_word] = "IN"

#: Verbs common in threat reports (base forms); inflections are derived.
_VERB_STEMS = frozenset(
    (
        "use employ leverage utilize deploy drop write install create plant "
        "execute run launch spawn invoke connect beacon communicate contact "
        "download fetch retrieve exploit abuse weaponize target attack "
        "compromise infect modify alter change tamper delete remove erase "
        "wipe encrypt lock send exfiltrate spread propagate distribute "
        "attribute link indicate affect impact describe analyze relate "
        "observe report identify detect block monitor harvest steal collect "
        "inject persist escalate scan move track disable "
        "enable perform contain include appear remain become urge apply "
        "review keep share release believe continue survive consider find "
        "tie reach expand strike return say show reveal warn confirm "
        "publish mask register establish try gain"
    ).split()
)


def _verb_form(lower: str) -> str | None:
    """Tag if ``lower`` is an inflection of a known verb stem."""
    if lower in _VERB_STEMS:
        return "VB"
    if lower.endswith("s") and lower[:-1] in _VERB_STEMS:
        return "VBZ"
    if lower.endswith("es") and lower[:-2] in _VERB_STEMS:
        return "VBZ"
    if lower.endswith("ies") and lower[:-3] + "y" in _VERB_STEMS:
        return "VBZ"
    if lower.endswith("ed"):
        stem = lower[:-2]
        if stem in _VERB_STEMS or lower[:-1] in _VERB_STEMS:
            return "VBD"
        if stem and stem[-1:] == stem[-2:-1] and stem[:-1] in _VERB_STEMS:
            return "VBD"
        if stem + "e" in _VERB_STEMS:
            return "VBD"
        if lower[:-3] + "y" in _VERB_STEMS and lower.endswith("ied"):
            return "VBD"
    if lower.endswith("ing"):
        stem = lower[:-3]
        if stem in _VERB_STEMS or stem + "e" in _VERB_STEMS:
            return "VBG"
        if stem and stem[-1:] == stem[-2:-1] and stem[:-1] in _VERB_STEMS:
            return "VBG"
    return None


def _heuristic(word: str) -> str:
    lower = word.lower()
    if not word:
        return "NN"
    if word[0].isdigit():
        return "CD"
    if not any(ch.isalnum() for ch in word):
        return "PUNCT"
    verb = _verb_form(lower)
    if verb:
        return verb
    if lower.endswith("ly"):
        return "RB"
    if lower.endswith(("ous", "ive", "able", "ible", "ful", "ical")):
        return "JJ"
    if len(lower) >= 6 and lower.endswith(("al", "ic")):
        return "JJ"
    if lower.endswith(("tion", "sion", "ment", "ness", "ity", "ware", "ism", "ist")):
        return "NN"
    if lower.endswith("ing"):
        return "VBG"
    if lower.endswith("ed"):
        return "VBN"
    if word[0].isupper():
        return "NNP"
    if lower.endswith("s"):
        return "NNS"
    return "NN"


def tag(tokens: list[Token]) -> list[str]:
    """POS tags for a tokenized sentence.

    IOC tokens are always nouns (they name artifacts); contextual
    repair passes run afterwards.  The tags are also left on the tokens
    (``Token.pos``), so a sentence tagged for the CRF features is not
    tagged again for the dependency parse.
    """
    tags: list[str] = []
    for token in tokens:
        if token.is_ioc:
            tags.append("NNP")
            continue
        lower = token.text.lower()
        tags.append(_LEXICON.get(lower) or _heuristic(token.text))

    # Repair pass 1: determiner/adjective must be followed by a nominal
    # eventually; a 'VB*' right after DT/JJ inside an NP is a noun
    # ('the drop', 'a scheduled task').
    for i in range(1, len(tags)):
        if tags[i].startswith("VB") and tags[i - 1] in ("DT", "JJ"):
            following_noun = i + 1 < len(tags) and tags[i + 1].startswith("NN")
            if tags[i] in ("VBG", "VBN", "VBD") and following_noun:
                tags[i] = "JJ"  # 'a scheduled task'
            elif not following_noun:
                tags[i] = "NN"
    # Repair pass 1b: a participle right after a verb, preposition or
    # conjunction that is followed by a nominal heads a noun phrase
    # ('employs scheduled task', 'via signed updates') -- adjectival.
    for i in range(1, len(tags) - 1):
        if (
            tags[i] in ("VBN", "VBG")
            and tags[i + 1].startswith("NN")
            and (tags[i - 1].startswith("VB") or tags[i - 1] in ("IN", "TO", "CC"))
        ):
            tags[i] = "JJ"
    # Repair pass 2: 'to' + base verb is infinitival.
    for i in range(len(tags) - 1):
        if tokens[i].text.lower() == "to" and tags[i + 1] == "VB":
            tags[i] = "TO"
    # Repair pass 3: modal + anything verb-ish keeps verb reading.
    for i in range(len(tags) - 1):
        if tags[i] == "MD" and tags[i + 1].startswith("NN"):
            if _verb_form(tokens[i + 1].text.lower()):
                tags[i + 1] = "VB"
    for token, token_tag in zip(tokens, tags):
        token.pos = token_tag
    return tags


def is_verb_like(word: str) -> bool:
    """Whether ``word`` inflects from a known verb stem (LF guard)."""
    return _verb_form(word.lower()) is not None


__all__ = ["is_verb_like", "tag"]
