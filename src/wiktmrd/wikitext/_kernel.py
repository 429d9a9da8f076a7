"""Pure-Python scanning kernel.

All functions take UTF-8 bytes and return byte offsets. The scan is a token
automaton over two-byte tokens ("{{", "}}", "[[", "]]"): a recognized token
consumes two bytes whether or not it binds, anything else consumes one.
Fuzz tests check it against an independent recursive-descent scanner.
"""

from __future__ import annotations

import re

MAX_TEMPLATE_DEPTH = 8


def template_spans(data: bytes) -> list[tuple[int, int]]:
    """Spans of maximal balanced "{{...}}" groups.

    Opens beyond MAX_TEMPLATE_DEPTH are literal text; unclosed opens yield no span,
    but balanced groups inside them are still reported.
    """
    closed: list[tuple[int, int]] = []
    stack: list[int] = []
    # the next "{{" and "}}"; the one a step does not consume stays valid,
    # since the two tokens cannot overlap
    o = data.find(b"{{")
    c = data.find(b"}}")
    while c != -1:
        if o != -1 and o < c:
            if len(stack) < MAX_TEMPLATE_DEPTH:
                stack.append(o)
            o = data.find(b"{{", o + 2)
        else:
            if stack:
                closed.append((stack.pop(), c + 2))
            c = data.find(b"}}", c + 2)
    if not closed:
        return closed
    # keep only spans not contained in another closed span
    closed.sort(key=lambda se: (se[0], -se[1]))
    out = [closed[0]]
    for span in closed[1:]:
        if span[0] >= out[-1][1]:
            out.append(span)
    return out


def wikilink_spans(data: bytes) -> list[tuple[int, int]]:
    """Spans of "[[...]]" pairs; a second "[[" restarts the link."""
    spans: list[tuple[int, int]] = []
    open_pos = -1
    # as in template_spans, the token a step does not consume stays valid
    o = data.find(b"[[")
    c = data.find(b"]]")
    while c != -1:
        if o != -1 and o < c:
            open_pos = o
            o = data.find(b"[[", o + 2)
        else:
            if open_pos >= 0:
                spans.append((open_pos, c + 2))
                open_pos = -1
            c = data.find(b"]]", c + 2)
    return spans


def heading_spans(data: bytes) -> list[tuple[int, int, int, int, int]]:
    """Per heading line: (line_start, line_end, level, inner_start, inner_end).

    line_end excludes the newline. The "=" runs must not overlap; trailing
    spaces, tabs and CR are ignored. Level is capped at 6; excess markers
    belong to the inner text.
    """
    out: list[tuple[int, int, int, int, int]] = []
    n = len(data)
    ls = 0
    while ls < n:
        le = data.find(b"\n", ls)
        if le == -1:
            le = n
        if ls < le and data[ls] == 0x3D:  # '='
            e = le
            while e > ls and data[e - 1] in b" \t\r":
                e -= 1
            lead = 1
            while ls + lead < e and data[ls + lead] == 0x3D:
                lead += 1
            trail = 0
            while e - 1 - trail >= ls and data[e - 1 - trail] == 0x3D:
                trail += 1
            if trail >= 1 and lead + trail <= e - ls:
                level = min(lead, trail, 6)
                out.append((ls, le, level, ls + level, e - level))
        ls = le + 1
    return out


# per needle: the four bracket tokens, tried before the needle itself
_MARK_TOKENS = {needle: re.compile(rb"\{\{|\[\[|\}\}|\]\]|" + re.escape(bytes([needle])))
                for needle in (0x7C, 0x3D)}


def top_level_marks(data: bytes, start: int, end: int, needle: int) -> list[int]:
    """Positions of `needle` ("|" 0x7C or "=" 0x3D) at bracket depth 0 within
    [start, end).

    "{{" and "[[" raise one shared depth counter, "}}" and "]]" lower it;
    unmatched closers are literal. The token automaton runs over the matches
    of one compiled regex, so the bytes between tokens cost no Python step.
    """
    marks: list[int] = []
    depth = 0
    for m in _MARK_TOKENS[needle].finditer(data, start, end):
        pos = m.start()
        c = data[pos]
        if c == needle:
            if not depth:
                marks.append(pos)
        elif c == 0x7B or c == 0x5B:  # "{{" or "[["
            depth += 1
        elif depth:
            depth -= 1
    return marks
