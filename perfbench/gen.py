"""Seeded synthetic Wiktionary dumps and the oracle of what parsing them yields.

`make_dump(spec, seed)` returns the dump's XML bytes together with an
`Oracle`: the row counts the store must end up with, the parse counters the
run must report, and, for a sample of words, the exact answers that
`MrdStore.reverse_lookup` and `MrdStore.lookup_word` must give. The counts
are derived from the page structures the generator chose, never from the
program, so a parser or store defect shows as a mismatch.

The same (spec, seed) always yields byte-identical XML. The shape of the
pages (how many sections, meanings, relations and translation lines) is
dealt from seed-shuffled decks, so every seed gives a dump of the same
make-up; see `_PageMaker.pick`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from xml.sax.saxutils import escape, quoteattr

# Registered translation languages (code, English name); English stays last.
TRANSLATION_LANGS = (
    ("fi", "Finnish"), ("de", "German"), ("fr", "French"), ("ru", "Russian"),
    ("sv", "Swedish"), ("pl", "Polish"), ("it", "Italian"), ("es", "Spanish"),
    ("nl", "Dutch"), ("pt", "Portuguese"), ("cs", "Czech"), ("hu", "Hungarian"),
    ("tr", "Turkish"), ("da", "Danish"), ("et", "Estonian"), ("is", "Icelandic"),
    ("ga", "Irish"), ("la", "Latin"), ("uk", "Ukrainian"), ("no", "Norwegian"),
    ("af", "Afrikaans"), ("ar", "Arabic"), ("be", "Belarusian"), ("bg", "Bulgarian"),
    ("cy", "Welsh"), ("eo", "Esperanto"), ("eu", "Basque"), ("he", "Hebrew"),
    ("hr", "Croatian"), ("hy", "Armenian"), ("lt", "Lithuanian"), ("lv", "Latvian"),
    ("ro", "Romanian"), ("sk", "Slovak"), ("sl", "Slovenian"), ("sq", "Albanian"),
    ("sw", "Swahili"), ("vi", "Vietnamese"),
    ("ja", "Japanese"), ("zh", "Chinese"), ("ko", "Korean"), ("en", "English"),
)
EN_SECTION_LANGS = (("en", "English"), ("fr", "French"), ("de", "German"),
                    ("fi", "Finnish"), ("sv", "Swedish"), ("it", "Italian"))
RU_SECTION_CODES = ("ru", "en", "de", "fr", "uk", "pl")
UNREGISTERED_NAME = "Elvish"       # not in the registry: its lines are skipped
UNREGISTERED_CODE = "qqq"          # not in the registry: ru block params skipped

EN_POS = ("Noun", "Verb", "Adjective", "Adverb")
EN_RELATIONS = ("Synonyms", "Antonyms", "Hyponyms", "Hypernyms", "Coordinate terms")
RU_POS_TEMPLATES = ("сущ ru m a 1a", "гл ru 1a", "прил ru 1a", "нареч")
RU_RELATIONS = ("Синонимы", "Антонимы", "Гиперонимы", "Гипонимы")

_LATIN = ("ka", "lo", "mi", "ne", "ru", "sa", "to", "vi", "be", "da", "fe", "gu",
          "ha", "jo", "pe", "ri", "su", "ta", "ul", "or", "an", "es", "in", "ok")
_CYRILLIC = ("ка", "ло", "ми", "не", "ру", "са", "то", "ви", "бе", "да", "фе", "гу",
             "ха", "жо", "пе", "ри", "су", "та", "ул", "ор", "ан", "ес", "ин", "ок")


@dataclass(frozen=True)
class DumpSpec:
    """What one synthetic dump looks like."""
    dialect: str                 # "en" | "ru"
    pages: int                   # main-namespace content pages (before redirects etc.)
    vocab: int                   # distinct translation words per language
    langs_per_block: tuple[int, int]   # translation lines (en) / params (ru) per box
    seed_salt: str = ""


@dataclass
class Oracle:
    """Everything the generator knows a correct parse must produce."""
    pages_seen: int = 0
    pages_redirect: int = 0
    pages_namespace: int = 0
    sections_skipped: int = 0
    translation_lines_skipped: int = 0
    tables: dict[str, int] = field(default_factory=lambda: dict.fromkeys(
        ("page", "lang_pos", "meaning", "relation", "translation",
         "translation_entry", "inflection"), 0))
    # word -> {(title, code)} that reverse_lookup(word) must return
    reverse: dict[str, set[tuple[str, str]]] = field(default_factory=dict)
    # title -> number of lang_pos sections lookup_word(title) must return
    sections: dict[str, int] = field(default_factory=dict)
    titles: list[str] = field(default_factory=list)

    @property
    def pages_parsed(self) -> int:
        return self.pages_seen - self.pages_redirect - self.pages_namespace


def _word(rng: random.Random, syllables, n: int) -> str:
    return "".join(rng.choice(syllables) for _ in range(n))


class _Titles:
    """Unique pseudo-word titles."""

    def __init__(self, rng, syllables):
        self.rng = rng
        self.syllables = syllables
        self.taken: set[str] = set()

    def new(self) -> str:
        while True:
            t = _word(self.rng, self.syllables, self.rng.randint(2, 4))
            if t not in self.taken:
                self.taken.add(t)
                return t


class _PageMaker:
    def __init__(self, spec: DumpSpec, seed: int):
        self.spec = spec
        self.rng = random.Random(f"{seed}:{spec.dialect}:{spec.seed_salt}")
        self.oracle = Oracle()
        syl = _LATIN if spec.dialect == "en" else _CYRILLIC
        self.titles = _Titles(self.rng, syl)
        # per-language translation vocabulary; index-suffixed so words are distinct
        self.vocab = {code: [f"{_word(self.rng, _LATIN, 2)}{code}{i}"
                             for i in range(spec.vocab)]
                      for code, _ in TRANSLATION_LANGS}
        self.plain_words = [_word(self.rng, syl, 3) for _ in range(400)]
        self.decks: dict[str, list] = {}

    # -- the shape of a page -------------------------------------------------------

    def pick(self, key: str, options) -> object:
        """The next of `options` from a seed-shuffled deck for `key` that
        holds each option once and is dealt again when empty. Over a dump
        every option of a choice comes up in the same share whatever the
        seed, so dumps of different seeds have the same make-up (how many
        sections, meanings, relations and translations) and cost the program
        alike; the seed decides which page gets which shape and every word."""
        deck = self.decks.get(key)
        if not deck:
            deck = self.decks[key] = list(options)
            self.rng.shuffle(deck)
        return deck.pop()

    def chance(self, key: str, k: int, n: int) -> bool:
        """True k times in every n draws for `key`."""
        return self.pick(key, (True,) * k + (False,) * (n - k))

    # -- oracle bookkeeping ----------------------------------------------------

    def _translation(self, title: str, code: str, word: str):
        self.oracle.tables["translation_entry"] += 1
        self.oracle.reverse.setdefault(word, set()).add((title, code))

    def _lang_pos(self, title: str):
        self.oracle.tables["lang_pos"] += 1
        self.oracle.sections[title] = self.oracle.sections.get(title, 0) + 1

    # -- en dialect --------------------------------------------------------------

    def en_page(self, title: str) -> str:
        rng = self.rng
        parts = []
        langs = [EN_SECTION_LANGS[0]] + rng.sample(EN_SECTION_LANGS[1:],
                                                   self.pick("en.langs", (0, 1, 2)))
        for code, name in langs:
            parts.append(f"=={name}==\n")
            etyms = self.pick("en.etyms", (0, 0, 2))
            blocks = range(1, etyms + 1) if etyms else (0,)
            for etym in blocks:
                level = 3
                if etym:
                    parts.append(f"===Etymology {etym}===\nFrom {{{{etyl|enm|{code}}}}} "
                                 f"{{{{m|enm|{title}{etym}}}}}.\n\n")
                    level = 4
                elif self.chance("en.etym_text", 1, 2):
                    parts.append(f"===Etymology===\nFrom {{{{inh|{code}|ang|{title}an}}}}.\n\n")
                    parts.append("===Pronunciation===\n* {{IPA|/" + title + "/}}\n\n")
                for pos in rng.sample(EN_POS, self.pick("en.pos", (1, 2))):
                    parts.append(self._en_pos_block(title, code, pos, level))
        return "".join(parts)

    def _en_pos_block(self, title, code, pos, level) -> str:
        rng = self.rng
        h = "=" * level
        sub = "=" * (level + 1)
        out = [f"{h}{pos}{h}\n{{{{{code}-{pos.lower()}}}}}\n\n"]
        self._lang_pos(title)
        if self.chance("en.form_of", 1, 25):
            # word-form entry: a single form-of definition becomes an inflection,
            # unless its lemma is the page itself
            lemma = rng.choice(self.plain_words)
            while lemma == title:
                lemma = rng.choice(self.plain_words)
            out.append(f"# {{{{plural of|{lemma}}}}}\n\n")
            self.oracle.tables["meaning"] += 1
            self.oracle.tables["inflection"] += 1
            return "".join(out)
        glosses = []
        for k in range(self.pick("en.glosses", (2, 3, 4))):
            gloss = rng.choice(self.plain_words)
            glosses.append(gloss)
            link = rng.choice(self.plain_words)
            out.append(f"# {{{{lb|{code}|informal}}}} A [[{link}]] that is ''{gloss}'' "
                       f"for {title} ({k}), with [[{link}|some]] {{{{gloss|{gloss} sense}}}}.\n")
            if self.chance("en.example", 3, 10):
                out.append(f"#: ''The {title} was {gloss}.''\n")
            self.oracle.tables["meaning"] += 1
        out.append("\n")
        for rel in rng.sample(EN_RELATIONS, self.pick("en.relations", (1, 2, 3))):
            out.append(f"{sub}{rel}{sub}\n")
            for _ in range(self.pick("en.relation_lines", (1, 2, 3))):
                # one record per link, per {{l}} template or per bare word
                kind = self.pick("en.relation_kind", ("sense", "sense", "l", "bare"))
                if kind == "sense":
                    n = self.pick("en.sense_links", (1, 2, 3))
                    words = ", ".join(f"[[{w}]]" for w in rng.sample(self.plain_words, n))
                    out.append(f"* {{{{sense|{rng.choice(glosses)}}}}} {words}\n")
                elif kind == "l":
                    n = 1
                    out.append(f"* {{{{l|{code}|{rng.choice(self.plain_words)}}}}}\n")
                else:
                    n = self.pick("en.bare_words", (1, 2))
                    out.append("* " + ", ".join(rng.sample(self.plain_words, n)) + "\n")
                self.oracle.tables["relation"] += n
            out.append("\n")
        if code == "en":
            out.append(f"{sub}Translations{sub}\n")
            for k in range(self.pick("en.boxes", (1, 2))):
                out.append(f"{{{{trans-top|{glosses[k % len(glosses)]} ({title})}}}}\n")
                self.oracle.tables["translation"] += 1
                lo, hi = self.spec.langs_per_block
                for lcode, lname in rng.sample(TRANSLATION_LANGS[:-1],
                                               self.pick("en.box_lines", range(lo, hi + 1))):
                    out.append(self._en_translation_line(title, lcode, lname))
                if self.chance("en.unregistered", 1, 5):
                    out.append(f"* {UNREGISTERED_NAME}: {{{{t|qya|{title}}}}}\n")
                    self.oracle.translation_lines_skipped += 1
                out.append("{{trans-bottom}}\n")
            out.append("\n")
        return "".join(out)

    def _en_translation_line(self, title, code, name) -> str:
        rng = self.rng
        words = rng.sample(self.vocab[code], self.pick("en.line_words", (1, 2)))
        for w in words:
            self._translation(title, code, w)
        if code in ("ko", "ja", "zh"):
            # bare links with a transliteration, no t-templates
            return f"* {name}: " + ", ".join(f"[[{w}]] ({w[:3]})" for w in words) + "\n"
        rendered = ", ".join(
            f"{{{{{rng.choice(('t', 't+', 't-'))}|{code}|{w}"
            + (f"|tr={w[:4]}" if self.chance("en.tr", 1, 5) else "") + "}}"
            for w in words)
        return f"* {name}: {rendered}\n"

    # -- ru dialect --------------------------------------------------------------

    def ru_page(self, title: str) -> str:
        rng = self.rng
        parts = []
        codes = ["ru"] + rng.sample(RU_SECTION_CODES[1:], self.pick("ru.langs", (0, 1)))
        for code in codes:
            parts.append(f"= {{{{-{code}-}}}} =\n\n")
            homonyms = self.pick("ru.homonyms", (0, 0, 0, 2))
            if homonyms:
                for k in range(1, homonyms + 1):
                    parts.append(f"== {{{{заголовок|{k}}}}} ==\n")
                    parts.append(self._ru_block(title, code))
            else:
                parts.append(self._ru_block(title, code))
        return "".join(parts)

    def _ru_block(self, title, code) -> str:
        rng = self.rng
        pos = rng.choice(RU_POS_TEMPLATES)
        self._lang_pos(title)
        out = [f"=== Морфологические и синтаксические свойства ===\n{{{{{pos}}}}}\n\n",
               "=== Семантические свойства ===\n\n==== Значение ====\n"]
        n_mean = self.pick("ru.meanings", (1, 2, 3))
        for k in range(n_mean):
            out.append(f"# {{{{разг.|{code}}}}} [[{rng.choice(self.plain_words)}]] "
                       f"для {title} ({k}).\n")
            self.oracle.tables["meaning"] += 1
        out.append("\n")
        for rel in rng.sample(RU_RELATIONS, self.pick("ru.relations", (1, 2, 3))):
            out.append(f"==== {rel} ====\n")
            for _ in range(self.pick(f"ru.relation_lines{n_mean}",
                                     range(1, n_mean + 1))):
                if self.chance("ru.empty_line", 1, 4):
                    out.append("# -\n")
                    continue
                n = self.pick("ru.links", (1, 2, 3))
                out.append("# " + ", ".join(f"[[{w}]]" for w in
                                             rng.sample(self.plain_words, n)) + "\n")
                self.oracle.tables["relation"] += n
            out.append("\n")
        if code == "ru":
            out.append("=== Перевод ===\n")
            for k in range(self.pick("ru.boxes", (1, 2))):
                out.append(f"{{{{перев-блок|{rng.choice(self.plain_words)}\n")
                self.oracle.tables["translation"] += 1
                lo, hi = self.spec.langs_per_block
                for lcode, _ in rng.sample(TRANSLATION_LANGS[:-1],
                                           self.pick("ru.box_params", range(lo, hi + 1))):
                    if lcode == "ru":
                        continue
                    words = rng.sample(self.vocab[lcode], self.pick("ru.param_words", (1, 2, 3)))
                    for w in words:
                        self._translation(title, lcode, w)
                    out.append(f"|{lcode}=" + ", ".join(f"[[{w}]]" for w in words) + "\n")
                if self.chance("ru.unregistered", 1, 5):
                    out.append(f"|{UNREGISTERED_CODE}=[[{title}]]\n")
                    self.oracle.translation_lines_skipped += 1
                out.append("}}\n")
            out.append("\n")
        return "".join(out)

    # -- pages that are skipped, malformed or pathological ----------------------

    def odd_page(self, k: int) -> tuple[str, str, int, str | None]:
        """(title, text, ns, redirect target); updates the oracle."""
        rng = self.rng
        o = self.oracle
        kind = k % 8
        if kind == 0:  # redirect
            target = rng.choice(self.plain_words)
            o.pages_seen += 1
            o.pages_redirect += 1
            return self.titles.new(), f"#REDIRECT [[{target}]]", 0, target
        if kind == 1:  # colon title in the main namespace
            o.pages_seen += 1
            o.pages_namespace += 1
            return f"Appendix:{self.titles.new()}", "Some [[text]].", 0, None
        if kind == 2:  # another namespace: never reaches the parser
            return f"Template:{self.titles.new()}", "{{{1}}}", 10, None
        title = self.titles.new()
        o.pages_seen += 1
        o.tables["page"] += 1
        o.titles.append(title)
        o.sections[title] = 0
        head = "==English==" if self.spec.dialect == "en" else "= {{-ru-}} ="
        defs = "===Noun===" if self.spec.dialect == "en" else "==== Значение ===="
        if kind == 3:  # only an unregistered language section
            o.sections_skipped += 1
            bad = ("==Klingonish==" if self.spec.dialect == "en"
                   else "= {{-qqq-}} =")
            return title, f"{bad}\n===Noun===\n# [[thing]]\n", 0, None
        if kind == 4:  # no headings at all, unbalanced markup
            return title, "plain text with [[unclosed and {{broken|markup\n", 0, None
        # kinds 5-7: one section with one definition that is malformed,
        # deeply nested or longer than a stored wiki text may be
        self._lang_pos(title)
        o.tables["meaning"] += 1
        if kind == 5:
            body = "# a {{unclosed|template [[and link and ]] }} tail }}"
        elif kind == 6:
            body = "# " + "{{x|" * 40 + "deep" + "}}" * 40
        else:
            body = "# [[long]] " + " ".join(rng.choice(self.plain_words)
                                            for _ in range(9000))
        if self.spec.dialect == "en":
            return title, f"{head}\n{defs}\n{body}\n", 0, None
        return title, (f"{head}\n=== Морфологические и синтаксические свойства ===\n"
                       f"{{{{сущ ru m a 1a}}}}\n{defs}\n{body}\n"), 0, None


def _page_xml(i: int, title: str, text: str, ns: int, redirect: str | None) -> str:
    redirect_el = f"    <redirect title={quoteattr(redirect)} />\n" if redirect else ""
    return (f"  <page>\n    <title>{escape(title)}</title>\n    <ns>{ns}</ns>\n"
            f"    <id>{i + 1}</id>\n{redirect_el}"
            f"    <revision><id>{100000 + i}</id>"
            f'<text xml:space="preserve">{escape(text)}</text></revision>\n  </page>\n')


def make_dump(spec: DumpSpec, seed: int) -> tuple[bytes, Oracle]:
    """The dump's XML bytes and the oracle for parsing it."""
    b = _PageMaker(spec, seed)
    out = [f'<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.10/" '
           f'xml:lang="{spec.dialect}">\n'
           f"  <siteinfo><sitename>Wiktionary</sitename>"
           f"<dbname>{spec.dialect}wiktionary</dbname></siteinfo>\n"]
    odd = 0
    for i in range(spec.pages):
        if i % 50 == 7:
            title, text, ns, redirect = b.odd_page(odd)
            odd += 1
        else:
            title = b.titles.new()
            text = b.en_page(title) if spec.dialect == "en" else b.ru_page(title)
            ns, redirect = 0, None
            b.oracle.pages_seen += 1
            b.oracle.tables["page"] += 1
            b.oracle.titles.append(title)
        out.append(_page_xml(i, title, text, ns, redirect))
    out.append("</mediawiki>\n")
    return "".join(out).encode("utf-8"), b.oracle


def empty_dump(dialect: str) -> bytes:
    """A well-formed dump with no pages: what `wiktmrd parse` costs before work."""
    return (f'<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.10/" '
            f'xml:lang="{dialect}">\n  <siteinfo><sitename>Wiktionary</sitename>'
            f"</siteinfo>\n</mediawiki>\n").encode("utf-8")


def query_samples(oracle: Oracle, seed: int, n_lookup: int, n_reverse: int):
    """Closed-loop request lists: titles for lookup_word and words for
    reverse_lookup. Exactly one request in three asks for a missing key: a
    miss is much cheaper than a hit, so a mix left to chance would move the
    median between the two from seed to seed."""
    rng = random.Random(f"{seed}:queries")

    def mix(present: list[str], n: int) -> list[str]:
        misses = n // 3
        out = [rng.choice(present) for _ in range(n - misses)]
        out += [f"absent{rng.randrange(10**6)}" for _ in range(misses)]
        rng.shuffle(out)
        return out

    return mix(oracle.titles, n_lookup), mix(sorted(oracle.reverse), n_reverse)
