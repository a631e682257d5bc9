"""LIKE and GLOB pattern matching.

The paper notes the LIKE implementation alone is over 50 LOC in SQLancer;
several of the SQLite bugs it found (Listing 7) involve LIKE's interaction
with affinity and collation, so getting these exactly right matters.

``like_match`` implements SQL LIKE: ``%`` matches any sequence (including
empty), ``_`` matches exactly one character, and an optional escape
character quotes the next character.  Case sensitivity is a parameter
because dialects differ (SQLite: ASCII-case-insensitive by default;
PostgreSQL: case-sensitive; MySQL: case-insensitive under the default
collation).

``glob_match`` implements SQLite GLOB: ``*``, ``?`` and ``[...]`` character
classes (with ``^`` negation and ``a-z`` ranges), always case-sensitive.
"""

from __future__ import annotations


def _ascii_fold(c: str) -> str:
    if "A" <= c <= "Z":
        return chr(ord(c) + 32)
    return c


def like_match(text: str, pattern: str, case_sensitive: bool = False,
               escape: str | None = None) -> bool:
    """Match *text* against a SQL LIKE *pattern*."""
    if not case_sensitive:
        text = "".join(_ascii_fold(c) for c in text)
        pattern = "".join(
            c if escape is not None and c == escape else _ascii_fold(c)
            for c in pattern
        )
    return _like(text, 0, pattern, 0, escape)


def _like(text: str, ti: int, pat: str, pi: int, escape: str | None) -> bool:
    tn, pn = len(text), len(pat)
    while pi < pn:
        c = pat[pi]
        if escape is not None and c == escape:
            if pi + 1 >= pn:
                return False  # dangling escape matches nothing
            pi += 1
            if ti >= tn or text[ti] != pat[pi]:
                return False
            ti += 1
            pi += 1
        elif c == "%":
            # Collapse consecutive wildcards, then try every suffix.
            while pi < pn and pat[pi] in "%":
                pi += 1
            if pi == pn:
                return True
            for start in range(ti, tn + 1):
                if _like(text, start, pat, pi, escape):
                    return True
            return False
        elif c == "_":
            if ti >= tn:
                return False
            ti += 1
            pi += 1
        else:
            if ti >= tn or text[ti] != c:
                return False
            ti += 1
            pi += 1
    return ti == tn


def glob_match(text: str, pattern: str) -> bool:
    """Match *text* against a SQLite GLOB *pattern* (case-sensitive)."""
    return _glob(text, 0, pattern, 0)


def _glob(text: str, ti: int, pat: str, pi: int) -> bool:
    tn, pn = len(text), len(pat)
    while pi < pn:
        c = pat[pi]
        if c == "*":
            while pi < pn and pat[pi] == "*":
                pi += 1
            if pi == pn:
                return True
            for start in range(ti, tn + 1):
                if _glob(text, start, pat, pi):
                    return True
            return False
        if c == "?":
            if ti >= tn:
                return False
            ti += 1
            pi += 1
            continue
        if c == "[":
            if ti >= tn:
                return False
            matched, next_pi = _match_class(text[ti], pat, pi)
            if not matched:
                return False
            ti += 1
            pi = next_pi
            continue
        if ti >= tn or text[ti] != c:
            return False
        ti += 1
        pi += 1
    return ti == tn


def _match_class(ch: str, pat: str, pi: int) -> tuple[bool, int]:
    """Match one character against ``[...]`` starting at ``pat[pi] == '['``.

    Returns ``(matched, index_after_class)``.  An unterminated class never
    matches (SQLite behaviour).
    """
    i = pi + 1
    n = len(pat)
    negate = False
    if i < n and pat[i] == "^":
        negate = True
        i += 1
    matched = False
    first = True
    while i < n and (pat[i] != "]" or first):
        first = False
        if i + 2 < n and pat[i + 1] == "-" and pat[i + 2] != "]":
            if pat[i] <= ch <= pat[i + 2]:
                matched = True
            i += 3
        else:
            if pat[i] == ch:
                matched = True
            i += 1
    if i >= n:
        return False, n  # unterminated class
    return matched != negate, i + 1
