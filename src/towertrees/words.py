"""Free group words over a lowercase generator alphabet.

A word is a plain string: lowercase letters are generators, uppercase
letters their inverses, and the empty string is the identity.  All
functions return freely reduced words.
"""

from __future__ import annotations

import string

LETTERS = set(string.ascii_letters)


def wreduce(w: str) -> str:
    """Freely reduce a word (cancel adjacent letter/inverse pairs)."""
    out: list[str] = []
    for ch in w:
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def is_reduced(w: str) -> bool:
    return all(w[i] != w[i + 1].swapcase() for i in range(len(w) - 1))


def winv(w: str) -> str:
    """Inverse word: reverse the letters and swap case."""
    return w[::-1].swapcase()


def wmul(*ws: str) -> str:
    return wreduce("".join(ws))


def check_word(w: str) -> str:
    """Validate a word: letters only, freely reduced."""
    for ch in w:
        if ch not in LETTERS:
            raise ValueError(f"bad group letter {ch!r} in word {w!r}")
    if not is_reduced(w):
        raise ValueError(f"word {w!r} is not freely reduced")
    return w
