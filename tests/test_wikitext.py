"""Scanner tests: worked examples, reference-oracle equivalence, properties."""

import re

import pytest
from hypothesis import example, given, settings, strategies as st

from wiktmrd import wikitext as wt
from wiktmrd.wikitext import _kernel


# ---------------------------------------------------------------------------
# Reference scanner: an independent recursive-descent implementation used as
# the oracle for well-formed nesting. It shares no code with the kernel.
# ---------------------------------------------------------------------------

def ref_scan_templates(text):
    data = text.encode("utf-8", "surrogatepass")
    results = []
    i = 0
    while i < len(data) - 1:
        if data[i:i + 2] == b"{{":
            parsed = _ref_parse(data, i, 1)
            if parsed is None:
                i += 2
                continue
            end, tpl = parsed
            if tpl is not None:
                results.append(tpl)
            else:
                # group without a name: promote valid templates inside it
                inner = wt.decode(data[i + 2:end - 2])
                for sub in ref_scan_templates(inner):
                    s, e = sub.source_span
                    sub.source_span = (s + i + 2, e + i + 2)
                    results.append(sub)
            i = end
        else:
            i += 1
    return results


def _ref_parse(data, start, depth):
    """Parse one {{...}} group starting at `start`; None when unclosed."""
    i = start + 2
    segments = [[]]  # byte chunks per top-level segment
    while i < len(data):
        two = data[i:i + 2]
        if two == b"}}":
            return i + 2, _ref_build(data, start, i + 2, segments)
        if two == b"{{" and depth < wt.MAX_TEMPLATE_DEPTH:
            sub = _ref_parse(data, i, depth + 1)
            if sub is not None:
                segments[-1].append(data[i:sub[0]])
                i = sub[0]
                continue
            segments[-1].append(two)
            i += 2
            continue
        if two == b"[[":
            close = data.find(b"]]", i)
            if close != -1:
                segments[-1].append(data[i:close + 2])
                i = close + 2
                continue
        if two[:1] == b"|":
            segments.append([])
            i += 1
            continue
        segments[-1].append(two[:1])
        i += 1
    return None


def _ref_build(data, start, end, segments):
    joined = [wt.decode(b"".join(chunks)) for chunks in segments]
    name = joined[0].strip()
    if not name:
        return None
    tpl = wt.Template(name=name, source_span=(start, end))
    for seg in joined[1:]:
        head, sep, tail = seg.partition("=")
        if sep and head.strip():
            tpl.named_params[head.strip()] = tail.strip()
        else:
            tpl.positional_params.append(seg)
    return tpl


def ref_top_level_marks(data, start, end, needle):
    """The token automaton of _kernel.top_level_marks, one byte per step."""
    marks = []
    depth = 0
    i = start
    while i < end:
        c = data[i]
        if i + 1 < end:
            c2 = data[i + 1]
            if (c == 0x7B and c2 == 0x7B) or (c == 0x5B and c2 == 0x5B):
                depth += 1
                i += 2
                continue
            if (c == 0x7D and c2 == 0x7D) or (c == 0x5D and c2 == 0x5D):
                if depth > 0:
                    depth -= 1
                i += 2
                continue
        if c == needle and depth == 0:
            marks.append(i)
        i += 1
    return marks


def ref_split_template(data, s, e):
    """(name, positional, named) of the template at data[s:e], every "|" and
    "=" found by a full bracket-depth scan of its segment."""
    bs, be = s + 2, e - 2
    pipes = ref_top_level_marks(data, bs, be, 0x7C)
    name = data[bs:pipes[0] if pipes else be].decode("utf-8", "surrogatepass").strip()
    positional, named = [], {}
    for seg_start, seg_end in zip([p + 1 for p in pipes], pipes[1:] + [be]):
        eqs = ref_top_level_marks(data, seg_start, seg_end, 0x3D)
        key = data[seg_start:eqs[0]].decode("utf-8", "surrogatepass").strip() if eqs else ""
        if key:
            named[key] = data[eqs[0] + 1:seg_end].decode("utf-8", "surrogatepass").strip()
        else:
            positional.append(data[seg_start:seg_end].decode("utf-8", "surrogatepass"))
    return name, positional, named


def ref_strip_markup(text):
    """strip_markup without its shortcuts: strip templates and links until
    nothing changes (at most 4 passes), drop quote runs, collapse spaces."""
    s = text
    for _ in range(4):
        t = _ref_strip_once(s)
        if t == s:
            break
        s = t
    return " ".join(re.sub(r"''+", "", s).split())


def _ref_strip_once(text):
    data = text.encode("utf-8", "surrogatepass")
    events = [(s, e, False) for s, e in _kernel.template_spans(data)]
    events += [(s, e, True) for s, e in _kernel.wikilink_spans(data)]
    events.sort()
    parts = []
    pos = 0
    for s, e, is_link in events:
        if s < pos:
            continue
        parts.append(data[pos:s].decode("utf-8", "surrogatepass"))
        if is_link:
            inner = data[s + 2:e - 2].decode("utf-8", "surrogatepass")
            target, pipe, label = inner.partition("|")
            parts.append(label.strip() if pipe and label.strip() else target.strip())
        pos = e
    parts.append(data[pos:].decode("utf-8", "surrogatepass"))
    return "".join(parts)


# ---------------------------------------------------------------------------
# Worked examples
# ---------------------------------------------------------------------------

def test_scan_templates_translation_template():
    tpls = wt.scan_templates("{{t+|fi|pensas}}")
    assert len(tpls) == 1
    assert tpls[0].name == "t+"
    assert tpls[0].positional_params == ["fi", "pensas"]
    assert tpls[0].named_params == {}


def test_scan_templates_empty_input():
    assert wt.scan_templates("") == []


def test_scan_templates_nested_named():
    # expected value computed by the reference scanner (and hand-traced)
    expected = ref_scan_templates("{{a|x={{b|1}}|y}}")
    got = wt.scan_templates("{{a|x={{b|1}}|y}}")
    assert got == expected
    assert len(got) == 1
    assert got[0].name == "a"
    assert got[0].named_params == {"x": "{{b|1}}"}
    assert got[0].positional_params == ["y"]


def test_scan_templates_unclosed_outer_keeps_inner():
    tpls = wt.scan_templates("{{a|{{b}}")
    assert [t.name for t in tpls] == ["b"]


def test_scan_wikilinks_examples():
    links = wt.scan_wikilinks("fi=[[enkeli]]")
    assert len(links) == 1 and links[0].target == "enkeli" == links[0].label

    links = wt.scan_wikilinks("* Korean: [[수풀]] (supul)")
    assert len(links) == 1 and links[0].target == "수풀"

    assert wt.scan_wikilinks("no links here") == []


def test_scan_wikilinks_piped():
    links = wt.scan_wikilinks("[[a|b]]")
    assert links[0].target == "a" and links[0].label == "b"


def test_scan_wikilinks_unclosed():
    assert wt.scan_wikilinks("[[never closed") == []


def test_scan_headings_examples():
    hs = wt.scan_headings("==English==\n")
    assert hs == [wt.Heading(level=2, inner_text="English", source_span=(0, 11))]

    hs = wt.scan_headings("= {{-sq-}} =\n")
    assert hs[0].level == 1 and hs[0].inner_text == " {{-sq-}} "

    assert wt.scan_headings("plain paragraph") == []


def test_scan_headings_asymmetric_markers():
    # level is the smaller marker run; excess markers join the inner text
    hs = wt.scan_headings("===x==\n")
    assert hs[0].level == 2 and hs[0].inner_text == "=x"


def test_strip_markup_examples():
    assert wt.strip_markup("[[dog]]s bark") == "dogs bark"
    assert wt.strip_markup("{{t+|fi|pensas}}") == ""
    assert wt.strip_markup("''a'' [[b|c]]") == "a c"


def test_strip_markup_whitespace_collapse():
    assert wt.strip_markup("  a \n\n b\t c  ") == "a b c"


# ---------------------------------------------------------------------------
# Fuzz strategies
# ---------------------------------------------------------------------------

markup_text = st.text(
    alphabet=st.sampled_from(list("{}[]|=#*:'\n abcxyzщ수")), max_size=120)
any_text = st.one_of(markup_text, st.text(max_size=80))
# mostly brackets, pipes and quotes: near misses of every markup shortcut
bracket_text = st.lists(st.sampled_from(
    ["{{", "}}", "[[", "]]", "{", "]", "|", "=", "''", "'", " ", "\t", "a", "b"]),
    max_size=30).map("".join)


@st.composite
def balanced_doc(draw, depth=0):
    """Well-formed wikitext: templates/links with bounded nesting, plain text."""
    plain = st.text(alphabet=st.sampled_from(list("abc xyzйж,.")), max_size=8)
    n = draw(st.integers(0, 4))
    parts = []
    for _ in range(n):
        kind = draw(st.integers(0, 3))
        if kind == 0 or depth >= 4:
            parts.append(draw(plain))
        elif kind == 1:
            name = draw(st.text(alphabet=st.sampled_from(list("abz-")), min_size=1, max_size=6))
            params = draw(st.lists(st.one_of(plain, balanced_doc(depth=depth + 1)), max_size=3))
            parts.append("{{" + name + "".join("|" + p for p in params) + "}}")
        elif kind == 2:
            target = draw(st.text(alphabet=st.sampled_from(list("abcж")), min_size=1, max_size=6))
            label = draw(st.one_of(st.none(), plain))
            parts.append("[[" + target + ("|" + label if label is not None else "") + "]]")
        else:
            parts.append(draw(plain))
    return "".join(parts)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@given(balanced_doc())
@settings(max_examples=300)
def test_reference_oracle_agreement(text):
    assert wt.scan_templates(text) == ref_scan_templates(text)
    # params split lazily, after the whole body was scanned for names only
    expected = ref_scan_templates(text)
    got = wt.scan_templates(text)
    assert [(t.name, t.source_span) for t in got] == [
        (t.name, t.source_span) for t in expected]
    for tpl, ref in reversed(list(zip(got, expected))):
        assert tpl.named_params == ref.named_params
        assert tpl.positional_params == ref.positional_params
        assert tpl.first_param() == ref.first_param()


@given(st.one_of(any_text, bracket_text, bracket_text.map(lambda t: "{{a" + t + "}}")))
@example("{{a[[b|c]]|d}}")  # a "|" inside a link in the name
@example("{{a|[[b=c]]=d|{{e|f=g}}}}")  # an "=" inside a link in a param
@settings(max_examples=500)
def test_template_params_match_full_depth_scan(text):
    data = wt.encode(text)
    for tpl in wt.scan_templates(text):
        assert ((tpl.name, tpl.positional_params, tpl.named_params)
                == ref_split_template(data, *tpl.source_span))


# bracket tokens, their halves, both needles and UTF-8 text, in runs long
# enough for ranges from a few bytes to a wide translation block
marks_text = st.lists(st.sampled_from(
    ["{{", "}}", "[[", "]]", "{", "}", "[", "]", "|", "=", "a", "щ", "\n"]),
    max_size=600).map("".join)


@given(marks_text, st.integers(0, 2000), st.integers(0, 2000), st.sampled_from([0x7C, 0x3D]))
@example("{{a|b}}|[[c|d]]=", 0, 16, 0x7C)
@example("}}|]]=[[|{{=", 0, 12, 0x3D)
@settings(max_examples=500)
def test_top_level_marks_matches_reference(text, a, b, needle):
    data = wt.encode(text)
    start = a % (len(data) + 1)
    end = start + b % (len(data) - start + 1)
    assert (_kernel.top_level_marks(data, start, end, needle)
            == ref_top_level_marks(data, start, end, needle))


@given(st.one_of(any_text, bracket_text))
@settings(max_examples=500)
def test_strip_markup_matches_reference(text):
    assert wt.strip_markup(text) == ref_strip_markup(text)


@given(any_text)
@settings(max_examples=400)
def test_no_crash_and_order(text):
    for items in (wt.scan_templates(text), wt.scan_wikilinks(text), wt.scan_headings(text)):
        starts = [it.source_span[0] for it in items]
        assert starts == sorted(starts)
        assert all(starts[i] < starts[i + 1] for i in range(len(starts) - 1))
    wt.strip_markup(text)


@given(any_text)
@settings(max_examples=300)
def test_template_span_round_trip(text):
    from hypothesis import assume
    # cap-degenerate nesting re-scans under a different depth context
    assume(text.count("{{") <= wt.MAX_TEMPLATE_DEPTH)
    data = wt.encode(text)
    for tpl in wt.scan_templates(text):
        s, e = tpl.source_span
        piece = wt.decode(data[s:e])
        assert piece.startswith("{{") and piece.endswith("}}")
        for again in (wt.scan_templates(piece), wt.scan_templates(data[s:e])):
            assert len(again) == 1
            assert again[0].name == tpl.name
            assert again[0].positional_params == tpl.positional_params
            assert again[0].named_params == tpl.named_params
            assert again[0].source_span == (0, e - s)


@given(any_text)
@settings(max_examples=300)
def test_link_and_heading_span_round_trip(text):
    data = wt.encode(text)
    for link in wt.scan_wikilinks(text):
        s, e = link.source_span
        again = wt.scan_wikilinks(wt.decode(data[s:e]))
        assert len(again) == 1
        assert (again[0].target, again[0].label) == (link.target, link.label)
    for h in wt.scan_headings(text):
        s, e = h.source_span
        again = wt.scan_headings(wt.decode(data[s:e]))
        assert len(again) == 1
        assert (again[0].level, again[0].inner_text) == (h.level, h.inner_text)


def test_kernel_contract():
    """perfbench records kernel_name() in every result, and its tracer and
    relations/translations call the primitives through wikitext._kernel."""
    assert wt.kernel_name() == "python"
    assert wt._kernel is _kernel
    for name in ("template_spans", "wikilink_spans", "heading_spans", "top_level_marks"):
        assert callable(getattr(_kernel, name))
    assert wt.MAX_TEMPLATE_DEPTH == _kernel.MAX_TEMPLATE_DEPTH
