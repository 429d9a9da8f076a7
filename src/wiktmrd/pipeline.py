"""Dump ingestion and the extract / analyze / save pipeline.

A run streams pages out of a (possibly compressed) MediaWiki pages-articles
XML export, analyzes each page into the rows store.save_word takes, and saves
them in record order. Checkpoints are written inside the same transaction
as the data, every `checkpoint_interval` pages, so a killed run resumes from
the last checkpoint and produces output identical to an uninterrupted run.
Pages are analyzed in worker processes while this process reads the dump
and writes the store; commits stay in record order.
"""

from __future__ import annotations

import bz2
import contextlib
import gzip
import hashlib
import itertools
import multiprocessing
import os
import sys
import time
import xml.etree.ElementTree as ET
import zlib
from dataclasses import dataclass, field

from . import entry, relations, translations
from .registry import (RELATION_HEADINGS_EN, RELATION_HEADINGS_RU, Registry,
                       builtin_registry, load_registry)
from .store import Checkpoint, ChecksumMismatch, MrdStore

# test seam: abort the process abruptly (no cleanup, like kill -9) after this
# many pages have been saved; exercises crash recovery end to end
_CRASH_ENV = "WIKTMRD_CRASH_AFTER_PAGES"

_SKIP_EXAMPLES = 5  # titles named per skip reason in the end-of-run summary
# pages read from the dump and not yet saved: two batches of half as many
_MAX_IN_FLIGHT = 64
# how damaged XML, a cut compressed stream and corrupt compressed bytes fail
_DUMP_DAMAGE = (ET.ParseError, EOFError, OSError, zlib.error)

# The editions a dump can come from, by their `parse --dialect` name. Each call
# looks its translation extractor up in the module, where a wrapper may sit.
EDITIONS = {
    "en": entry.Edition(
        language_level=2, resolve_language=entry.resolve_language_en,
        split_pos=entry.split_pos_en, definitions_heading=None,
        relation_headings=RELATION_HEADINGS_EN, bind_relation_lines=relations.bind_by_sense,
        extract_translations=lambda *args: translations.extract_translations_en(*args)),
    "ru": entry.Edition(
        language_level=1, resolve_language=entry.resolve_language_ru,
        split_pos=entry.split_pos_ru, definitions_heading="значение",
        relation_headings=RELATION_HEADINGS_RU, bind_relation_lines=relations.bind_by_position,
        extract_translations=lambda *args: translations.extract_translations_ru(*args)),
}


def edition_for(dialect: str) -> entry.Edition:
    """The Edition record of a `parse --dialect` name; unknown names are refused."""
    edition = EDITIONS.get(dialect)
    if edition is None:
        raise ValueError(f"unsupported dialect: {dialect!r}")
    return edition


class MalformedDump(Exception):
    def __init__(self, byte_offset: int, detail: str):
        super().__init__(f"malformed dump at byte offset {byte_offset}: {detail}")
        self.byte_offset = byte_offset
        self.detail = detail


@dataclass
class ParseConfig:
    dialect: str
    dump_path: str
    store_path: str
    start_record: int | None = None  # None: resume from a matching checkpoint
    registry_path: str | None = None
    worker_count: int = 1
    checkpoint_interval: int = 1000


@dataclass
class ParseReport:
    pages_seen: int = 0
    pages_parsed: int = 0
    pages_skipped_redirect: int = 0
    pages_skipped_namespace: int = 0
    pages_failed: int = 0
    sections_skipped_unknown_language: int = 0
    translation_lines_skipped: int = 0
    wiki_text_truncated: int = 0  # texts stored cut by this run (store.MAX_WIKI_TEXT_BYTES)
    elapsed: float = 0.0
    pages_per_second: float = 0.0


# the report fields a checkpoint carries over to the run that resumes from it
_CHECKPOINT_COUNTERS = ("sections_skipped_unknown_language", "translation_lines_skipped",
                        "pages_failed", "wiki_text_truncated")


# ---------------------------------------------------------------------------
# Dump reading
# ---------------------------------------------------------------------------

def open_dump(path):
    """Open plain, gzip or bzip2 XML by magic bytes."""
    with open(path, "rb") as probe:
        magic = probe.read(3)
    if magic.startswith(b"BZh"):
        return bz2.open(path, "rb")
    if magic.startswith(b"\x1f\x8b"):
        return gzip.open(path, "rb")
    return open(path, "rb")


def dump_identity(path) -> str:
    """Fingerprint of the dump: hash of the first 64 KiB of XML, the file's
    size and its last 64 KiB as stored, so dumps sharing a head differ."""
    digest = hashlib.sha256()
    f = open_dump(path)
    try:
        digest.update(f.read(65536))
    except _DUMP_DAMAGE as exc:
        raise MalformedDump(0, str(exc)) from exc
    finally:
        f.close()
    with open(path, "rb") as raw:
        size = raw.seek(0, os.SEEK_END)
        raw.seek(max(0, size - 65536))
        digest.update(b"%d\n" % size)
        digest.update(raw.read())
    return digest.hexdigest()


def _localname(tag) -> str:
    return tag.rsplit("}", 1)[-1] if isinstance(tag, str) else ""


def _child(elem, name):
    for c in elem:
        if _localname(c.tag) == name:
            return c
    return None


def iterate_dump(dump_path):
    """Yield main-namespace pages in file order, record_id counted from 0.

    Truncated or invalid XML, or a cut or corrupt compressed stream, raises
    MalformedDump with the offset in the XML; pages completed before the
    damage are still yielded first.
    """
    stream = open_dump(dump_path)
    record_id = 0
    root = None
    try:
        for event, elem in ET.iterparse(stream, events=("start", "end")):
            if event == "start":
                if root is None:
                    root = elem
                continue
            if _localname(elem.tag) != "page":
                continue
            page = _page_from_element(elem, record_id)
            elem.clear()
            root.clear()
            if page is not None:
                record_id += 1
                yield page
    except _DUMP_DAMAGE as exc:
        raise MalformedDump(stream.tell(), str(exc)) from exc
    finally:
        stream.close()


def _page_from_element(elem, record_id):
    ns = _child(elem, "ns")
    if ns is not None and (ns.text or "").strip() not in ("", "0"):
        return None
    title_el = _child(elem, "title")
    title = (title_el.text or "") if title_el is not None else ""
    if not title:
        return None
    revision = _child(elem, "revision")
    text_el = _child(revision, "text") if revision is not None else None
    text = (text_el.text or "") if text_el is not None else ""
    is_redirect = _child(elem, "redirect") is not None
    return entry.Page(title=title, raw_text=text,
                      is_redirect=is_redirect, record_id=record_id)


# ---------------------------------------------------------------------------
# Analysis (pure, parallelizable)
# ---------------------------------------------------------------------------

@dataclass
class AnalyzedPage:
    record_id: int
    title: str
    kind: str  # "parsed" | "redirect" | "namespace" | "failed"
    lang_pos: list[tuple] = field(default_factory=list)  # store.save_word's rows
    skipped_sections: int = 0
    skipped_lines: int = 0
    error: str = ""


def analyze_page(page: entry.Page, edition: entry.Edition, registry: Registry) -> AnalyzedPage:
    if page.is_redirect:
        return AnalyzedPage(page.record_id, page.title, "redirect")
    if ":" in page.title:
        return AnalyzedPage(page.record_id, page.title, "namespace")
    try:
        sections, skipped = entry.split_language_sections(page, edition, registry)
        lang_pos = []
        skipped_lines = 0
        seen_ordinals: dict[tuple[str, str], set[int]] = {}
        for sec in sections:
            for ps in entry.split_pos_sections(sec):
                meanings = entry.extract_definitions(ps)
                soft = entry.classify_soft_redirect(page.title, meanings)
                records = relations.extract_relations(ps, meanings)
                boxes, sk = edition.extract_translations(ps, registry)
                skipped_lines += len(sk)
                # duplicated headings act like extra homonym blocks; keep
                # (lang, pos, etymology) unique within the page
                key = (ps.language, ps.pos)
                taken = seen_ordinals.setdefault(key, set())
                ordinal = ps.etymology_ordinal
                if ordinal in taken:
                    ordinal = max(taken) + 1
                taken.add(ordinal)
                lang_pos.append((ps.language, ps.pos, ordinal, meanings, records, boxes, soft))
        return AnalyzedPage(page.record_id, page.title, "parsed", lang_pos,
                            skipped_sections=len(skipped), skipped_lines=skipped_lines)
    except Exception as exc:  # robustness contract: one page never kills a run
        return AnalyzedPage(page.record_id, page.title, "failed", error=repr(exc))


_pool_args: tuple = ()  # (edition, registry) of the run


def _pool_init(edition: entry.Edition, registry: Registry):
    # the workers are forked, so the edition and the registry the run loaded
    # reach them without a second read or a pickle
    global _pool_args
    _pool_args = edition, registry


def _pool_analyze(page):
    return analyze_page(page, *_pool_args)


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------

def run_parse(config: ParseConfig) -> ParseReport:
    edition = edition_for(config.dialect)
    t0 = time.monotonic()
    registry = (load_registry(config.registry_path)
                if config.registry_path else builtin_registry())
    identity = dump_identity(config.dump_path)
    with MrdStore(config.store_path, dialect=config.dialect) as store:
        report = _run_parse_inner(config, edition, store, registry, identity)
    report.elapsed = time.monotonic() - t0
    report.pages_per_second = report.pages_seen / report.elapsed if report.elapsed else 0.0
    return report


def _resolve_start(config, store, identity) -> tuple[int, dict]:
    cp = store.load_checkpoint()
    start = cp.last_record_id if config.start_record is None else config.start_record
    if start == 0:
        return 0, {}
    if config.start_record is None or cp.dump_identity:
        _check_identity(cp, identity)
    # below the checkpoint, its counters count pages this run counts again
    return start, dict(cp.counters) if start >= cp.last_record_id else {}


def _check_identity(cp, identity):
    if cp.dump_identity != identity:
        raise ChecksumMismatch(
            f"checkpoint belongs to dump {cp.dump_identity[:12]}…, "
            f"current dump is {identity[:12]}… (the identity covers the dump file "
            f"as stored, compression included, and checkpoints from earlier versions "
            f"never match; to reparse, pass --start-record 0 or use a fresh store)")


def _run_parse_inner(config, edition, store, registry, identity) -> ParseReport:
    start, base_counters = _resolve_start(config, store, identity)
    report = ParseReport()
    crash_after = int(os.environ.get(_CRASH_ENV, "0") or "0")

    def pages():
        for page in iterate_dump(config.dump_path):
            if page.record_id >= start:
                yield page

    def results():
        # Workers analyse; this process reads the dump and writes the store.
        # Pages go to the pool in batches of _MAX_IN_FLIGHT // 2, and the next
        # batch is read and queued before the results of the one before are
        # taken: the workers always have a batch to analyse, and at most
        # _MAX_IN_FLIGHT pages are read but not saved. The pool starts with
        # the first batch, so a run with nothing to analyse (an empty dump,
        # a resume past the last record) starts no process.
        todo = pages()
        batch = list(itertools.islice(todo, _MAX_IN_FLIGHT // 2))
        if not batch:
            return
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(config.worker_count, initializer=_pool_init,
                      initargs=(edition, registry)) as pool:
            analysed = ()
            while batch:
                queued = pool.imap(_pool_analyze, batch, chunksize=8)
                yield from analysed
                analysed = queued
                batch = list(itertools.islice(todo, _MAX_IN_FLIGHT // 2))
            yield from analysed

    def checkpoint_counters():
        merged = dict(base_counters)
        for name in _CHECKPOINT_COUNTERS:
            merged[name] = base_counters.get(name, 0) + getattr(report, name)
        return merged

    next_record = start
    saved = 0
    in_batch = 0
    skip_examples: dict[str, list[str]] = {"redirect": [], "namespace": []}
    store.begin()
    store.prepare_load()
    # an error in the loop closes the results at once, which terminates the
    # pool instead of leaving it to garbage collection
    with contextlib.closing(results()) as analysed:
        for result in analysed:
            report.pages_seen += 1
            next_record = result.record_id + 1
            examples = skip_examples.get(result.kind)
            if examples is not None and len(examples) < _SKIP_EXAMPLES:
                examples.append(result.title)
            if result.kind == "redirect":
                report.pages_skipped_redirect += 1
            elif result.kind == "namespace":
                report.pages_skipped_namespace += 1
            elif result.kind == "failed":
                report.pages_failed += 1
                print(f"failed page: {result.title}: {result.error}", file=sys.stderr)
            else:
                report.wiki_text_truncated += store.save_word(
                    result.title, result.record_id, result.lang_pos)
                report.pages_parsed += 1
                report.sections_skipped_unknown_language += result.skipped_sections
                report.translation_lines_skipped += result.skipped_lines
                saved += 1
                if crash_after and saved >= crash_after:
                    os._exit(86)  # abrupt death: no commit, no cleanup
            in_batch += 1
            if in_batch >= config.checkpoint_interval:
                store.save_checkpoint(Checkpoint(next_record, identity, checkpoint_counters()))
                store.commit()
                store.begin()
                in_batch = 0
    store.save_checkpoint(Checkpoint(next_record, identity, checkpoint_counters()))
    store.commit()
    store.build_index_tables()
    for kind, count in (("redirect", report.pages_skipped_redirect),
                        ("namespace", report.pages_skipped_namespace)):
        if count:
            more = ", ..." if count > len(skip_examples[kind]) else ""
            print(f"skipped {kind} pages: {count} ({', '.join(skip_examples[kind])}{more})",
                  file=sys.stderr)
    return report
