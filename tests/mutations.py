"""Token-level mutations of line-oriented documents, for fuzzing the scene
and dump parsers with hypothesis."""

from __future__ import annotations

from hypothesis import strategies as st

# Numbers at and past every range edge the parsers guard, the keywords of
# both formats, and plain junk.
TOKENS = (
    "0", "-1", "1", "2", "16", "-16", "0.5", "-0.19", "nan", "-nan", "inf",
    "-inf", "1e400", "-1e400", "1e-400", "99999999999999999999",
    "1" + "0" * 400, "x", "",
    ".", "#", "..#.", "-", "domain", "grid", "arm", "map", "endmap",
    "agent", "start", "goal", "thickness", "substeps", "obstacle",
    "segment", "disc", "base", "links", "resolution", "limits", "path",
    "endpath", "cost_steps", "lb", "w1l", "w2l", "wh",
)


@st.composite
def mutated(draw, doc: str, max_edits: int = 4) -> str:
    """``doc`` with 1..max_edits tokens replaced, inserted or deleted; every
    token of the document is equally likely to be hit."""
    lines = [line.split(" ") for line in doc.splitlines()]
    for _ in range(draw(st.integers(1, max_edits))):
        slots = [(i, k) for i, words in enumerate(lines)
                 for k in range(len(words) + 1)]
        i, k = draw(st.sampled_from(slots))
        words = lines[i]
        op = draw(st.sampled_from(("replace", "insert", "delete")))
        token = draw(st.sampled_from(TOKENS))
        if op == "insert" or k == len(words):
            words.insert(k, token)
        elif op == "replace":
            words[k] = token
        else:
            del words[k]
    return "\n".join(" ".join(words) for words in lines) + "\n"
