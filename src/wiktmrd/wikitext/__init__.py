"""Structural wikitext scanning: templates, wikilinks, headings, markup stripping.

Scanning never fails on malformed input; broken markup just yields fewer
results. All source spans are byte offsets into the UTF-8 encoding of the
scanned string, so `text.encode()[start:end]` recovers the source slice.
A scanned template splits its parameters out of the source bytes on first
access, so a caller that only reads template names never pays for them.

The byte-level scanning primitives live in the pure-Python `_kernel`
module; this module builds the public objects from their spans.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import _kernel

MAX_TEMPLATE_DEPTH = _kernel.MAX_TEMPLATE_DEPTH

_PIPE = 0x7C
_EQ = 0x3D
_QUOTE_RUN = re.compile(r"''+")


def kernel_name() -> str:
    """The scanning kernel in use: always "python", the only one there is.
    Kept because perfbench/run.py records it with every benchmark result."""
    return "python"


@dataclass
class Template:
    """One {{...}} occurrence. Positional params are verbatim, named params
    are whitespace-trimmed (MediaWiki convention); both keep source order.

    A template from scan_templates splits its params on first access to
    either of them; until then it holds its name, span and source bytes.
    """

    name: str
    positional_params: list[str] = field(default_factory=list)
    named_params: dict[str, str] = field(default_factory=dict)
    source_span: tuple[int, int] = (0, 0)

    def __getattr__(self, attr):
        # reached only while a scanned template's params are still unsplit
        source = self.__dict__.pop("_source", None)
        if source is None:
            raise AttributeError(attr)
        self.positional_params, self.named_params = _split_params(*source)
        return getattr(self, attr)

    def first_param(self) -> str:
        """First positional param, falling back to the "1" named param."""
        if self.positional_params:
            return self.positional_params[0]
        return self.named_params.get("1", "")


@dataclass
class WikiLink:
    target: str
    label: str
    source_span: tuple[int, int] = (0, 0)


@dataclass
class Heading:
    level: int
    inner_text: str
    source_span: tuple[int, int] = (0, 0)


def encode(text: str) -> bytes:
    return text.encode("utf-8", "surrogatepass")


def decode(data: bytes) -> str:
    return data.decode("utf-8", "surrogatepass")


def scan_templates(text: str | bytes) -> list[Template]:
    """All top-level templates in source order.

    Nested templates stay inside the enclosing template's parameter strings.
    An unclosed "{{" produces no template, but balanced groups inside it are
    still found. Groups with an empty name are not templates; any balanced
    groups inside them are promoted instead. A caller that already holds the
    UTF-8 bytes may pass them.
    """
    data = text if isinstance(text, bytes) else encode(text)
    out: list[Template] = []
    _collect_templates(data, _kernel.template_spans(data), 0, out)
    return out


def _collect_templates(data: bytes, spans, shift: int, out: list[Template]) -> None:
    for s, e in spans:
        tpl = _build_template(data, s, e, shift)
        if tpl is not None:
            out.append(tpl)
        else:
            body = data[s + 2:e - 2]
            _collect_templates(body, _kernel.template_spans(body), shift + s + 2, out)


def _build_template(data: bytes, s: int, e: int, shift: int = 0) -> Template | None:
    bs, be = s + 2, e - 2
    name_end = _first_mark(data, bs, be, _PIPE)
    name = decode(data[bs:name_end]).strip()
    if not name:
        return None
    tpl = Template.__new__(Template)
    tpl.name = name
    tpl.source_span = (shift + s, shift + e)
    tpl._source = (data, name_end, be)
    return tpl


def _first_mark(data: bytes, start: int, end: int, needle: int) -> int:
    """Position of the first `needle` byte at bracket depth 0 in [start, end),
    else `end`. Only a "{{" or "[[" before the first `needle` byte can raise
    the depth there, so the bracket scan runs only when one comes first."""
    pos = data.find(needle, start, end)
    if pos == -1:
        return end
    if data.find(b"{{", start, pos) == -1 and data.find(b"[[", start, pos) == -1:
        return pos
    marks = _kernel.top_level_marks(data, start, end, needle)
    return marks[0] if marks else end


def _split_params(data: bytes, pipe: int, end: int) -> tuple[list[str], dict[str, str]]:
    """Positional and named params of the template body that ends at `end`
    and whose name ends at `pipe`, its first top-level "|" (or `end`)."""
    positional: list[str] = []
    named: dict[str, str] = {}
    if pipe == end:
        return positional, named
    if data.find(b"{{", pipe, end) == -1 and data.find(b"[[", pipe, end) == -1:
        # no brackets: every "|" and "=" is at depth 0
        for segment in decode(data[pipe + 1:end]).split("|"):
            key, eq, value = segment.partition("=")
            key = key.strip()
            if eq and key:
                named[key] = value.strip()
            else:
                positional.append(segment)
        return positional, named
    pipes = _kernel.top_level_marks(data, pipe, end, _PIPE)
    for seg_start, seg_end in zip([p + 1 for p in pipes], pipes[1:] + [end]):
        eq = _first_mark(data, seg_start, seg_end, _EQ)
        key = decode(data[seg_start:eq]).strip() if eq < seg_end else ""
        if key:
            named[key] = decode(data[eq + 1:seg_end]).strip()
        else:
            positional.append(decode(data[seg_start:seg_end]))
    return positional, named


def scan_wikilinks(text: str) -> list[WikiLink]:
    """All [[...]] links in source order; "[[a|b]]" has target a, label b.

    Namespace-prefixed targets are returned verbatim. Links with an empty
    target are dropped; an empty label falls back to the target.
    """
    data = encode(text)
    out = []
    for s, e in _kernel.wikilink_spans(data):
        link = _build_wikilink(data, s, e)
        if link is not None:
            out.append(link)
    return out


def _build_wikilink(data: bytes, s: int, e: int) -> WikiLink | None:
    target = _link_target(data, s, e)
    if not target:
        return None
    pipe = data.find(b"|", s + 2, e - 2)
    label = decode(data[pipe + 1:e - 2]).strip() if pipe != -1 else ""
    return WikiLink(target=target, label=label or target, source_span=(s, e))


def _link_target(data: bytes, s: int, e: int) -> str:
    """Target of the link at data[s:e]: its text up to the first "|",
    trimmed; empty for a link that is no link."""
    pipe = data.find(b"|", s + 2, e - 2)
    return decode(data[s + 2:e - 2 if pipe == -1 else pipe]).strip()


def scan_headings(text: str | bytes) -> list[Heading]:
    """One Heading per "=...=" line; level = min of the marker runs, max 6.

    The span covers the whole line without its newline; inner text is kept
    untrimmed. A caller that already holds the UTF-8 bytes may pass them.
    """
    data = text if isinstance(text, bytes) else encode(text)
    return [
        Heading(level=lvl, inner_text=decode(data[is_:ie]), source_span=(ls, le))
        for ls, le, lvl, is_, ie in _kernel.heading_spans(data)
    ]


def strip_markup(text: str) -> str:
    """Plain text: links become their labels, templates vanish, quote runs
    ('' and ''') are dropped, whitespace collapses to single spaces."""
    s = text
    for _ in range(4):
        if "{{" not in s and "[[" not in s:
            break  # no template or link left to remove
        t = _strip_once(s)
        if t == s:
            break
        s = t
    if "''" in s:
        s = _QUOTE_RUN.sub("", s)
    return " ".join(s.split())


def _strip_once(text: str) -> str:
    data = encode(text)
    events = [(s, e, False) for s, e in _kernel.template_spans(data)]
    events += [(s, e, True) for s, e in _kernel.wikilink_spans(data)]
    if not events:
        return text
    events.sort()
    parts = []
    pos = 0
    for s, e, is_link in events:
        if s < pos:
            continue
        parts.append(decode(data[pos:s]))
        if is_link:
            inner = data[s + 2:e - 2]
            pipe = inner.find(b"|")
            target = decode(inner if pipe == -1 else inner[:pipe]).strip()
            label = target if pipe == -1 else decode(inner[pipe + 1:]).strip()
            parts.append(label or target)
        pos = e
    parts.append(decode(data[pos:]))
    return "".join(parts)
