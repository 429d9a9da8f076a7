"""Command-line surface: parse, stats, lookup, compare, languages."""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import stats as stats_mod
from . import wikitext as wt
from .pipeline import MalformedDump, ParseConfig, run_parse
from .registry import builtin_registry, load_registry
from .store import ChecksumMismatch, MrdStore, StoreError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wiktmrd",
        description="Parse Wiktionary dumps into a machine-readable dictionary "
                    "store and report thesaurus statistics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a dump into a store")
    p.add_argument("--dialect", choices=("en", "ru"), required=True)
    p.add_argument("--dump", required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--start-record", type=int, default=None)
    p.add_argument("--registry", default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--checkpoint-interval", type=int, default=1000)

    p = sub.add_parser("stats", help="report store statistics")
    p.add_argument("--store", required=True)
    p.add_argument("--json", action="store_true",
                   help="JSON-lines output, one metric per line")

    p = sub.add_parser("lookup", help="print everything stored for a word")
    p.add_argument("--store", required=True)
    p.add_argument("word")
    p.add_argument("--lang", default=None)
    p.add_argument("--reverse", action="store_true",
                   help="find entries whose translations contain the word")

    p = sub.add_parser("compare", help="compare two stores")
    p.add_argument("--store-a", required=True)
    p.add_argument("--store-b", required=True)

    p = sub.add_parser("languages", help="list registered language codes")
    p.add_argument("--registry", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rc = 0
        if args.command == "parse":
            rc = _cmd_parse(args)
        elif args.command == "stats":
            rc = _cmd_stats(args)
        elif args.command == "lookup":
            rc = _cmd_lookup(args)
        elif args.command == "compare":
            rc = _cmd_compare(args)
        elif args.command == "languages":
            rc = _cmd_languages(args)
        sys.stdout.flush()
        return rc
    except (MalformedDump, ChecksumMismatch, StoreError, FileNotFoundError) as exc:
        # a missing --dump or --registry file: the message names its path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # downstream consumer (head, less) closed the pipe; not an error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _cmd_parse(args) -> int:
    report = run_parse(ParseConfig(
        dialect=args.dialect, dump_path=args.dump, store_path=args.store,
        start_record=args.start_record, registry_path=args.registry,
        worker_count=args.workers, checkpoint_interval=args.checkpoint_interval))
    print(f"pages seen:                 {report.pages_seen}")
    print(f"pages parsed:               {report.pages_parsed}")
    print(f"pages skipped (redirect):   {report.pages_skipped_redirect}")
    print(f"pages skipped (namespace):  {report.pages_skipped_namespace}")
    print(f"pages failed:               {report.pages_failed}")
    print(f"sections skipped (unknown language): {report.sections_skipped_unknown_language}")
    print(f"translation lines skipped:  {report.translation_lines_skipped}")
    print(f"elapsed: {report.elapsed:.2f} s ({report.pages_per_second:.0f} pages/s)")
    return 0


def _metric_lines(store: MrdStore):
    """(name, value, numerator, denominator) rows for the stats report."""
    sizes = store.table_sizes()
    for name in sorted(sizes):
        yield f"table_size.{name}", sizes[name], None, None
    ns = stats_mod.compute_native_stats(store)
    native = store.native_code
    yield "words_with_relations", ns.words_with_relations, None, None
    yield f"native_words.{native}", ns.native_words, None, None
    yield f"native_native_relations.{native}", ns.native_native_relations, None, None
    yield ("native_words_per_content_page_pct",
           round(ns.native_fraction * 100, 2), ns.native_words, ns.content_pages)
    yield ("words_with_relations_per_content_page_pct",
           round(ns.relations_fraction * 100, 2), ns.words_with_relations, ns.content_pages)
    yield ("avg_relations_per_native_word",
           round(ns.avg_relations_per_native_word, 2),
           ns.native_native_relations, ns.native_words)
    hist = stats_mod.relation_histogram(store)
    for n, count in enumerate(hist.buckets):
        label = "13plus" if n == hist.OVERFLOW else str(n)
        yield f"entries_with_relations.{label}", count, None, None
    dist = stats_mod.type_count_distribution(store)
    for k in sorted(dist.counts):
        yield f"words_with_relation_types.{k}", dist.counts[k], None, None
    empty_boxes = store.query(
        "SELECT COUNT(*) FROM translation t WHERE NOT EXISTS "
        "(SELECT 1 FROM translation_entry e WHERE e.translation_id=t.id)")[0][0]
    # bare translation headings count as one empty box; keep that visible
    yield "translation_boxes_empty", empty_boxes, None, None
    if ns.empty_store:
        yield "empty_store", 1, None, None


def _existing_store(path) -> MrdStore:
    """Open a store a read-only command reads; a missing one is an error,
    not a new empty store."""
    if not os.path.exists(path):
        raise StoreError(f"no store at {path}")
    return MrdStore(path)


def _cmd_stats(args) -> int:
    with _existing_store(args.store) as store:
        if args.json:
            for name, value, num, den in _metric_lines(store):
                print(json.dumps({"name": name, "value": value,
                                  "numerator": num, "denominator": den},
                                 ensure_ascii=False))
        else:
            for name, value, num, den in _metric_lines(store):
                if num is None:
                    print(f"{name:45s} {value}")
                else:
                    print(f"{name:45s} {value} [{num} / {den}]")
    return 0


def _cmd_lookup(args) -> int:
    with _existing_store(args.store) as store:
        if args.reverse:
            hits = store.reverse_lookup(args.word)
            if not hits:
                print(f"not found: no translation entry matches {args.word!r}",
                      file=sys.stderr)
                return 1
            for title, code in hits:
                print(f"{title}  (translated into {code} as {args.word})")
            return 0
        sections = store.lookup_word(args.word, args.lang)
        if not sections:
            print(f"not found: {args.word!r}", file=sys.stderr)
            return 1
        print(args.word)
        for sec in sections:
            _print_section(sec)
    return 0


def _print_section(sec: dict):
    etym = f", etymology {sec['etymology_ordinal']}" if sec["etymology_ordinal"] else ""
    print(f"  {sec['lang_code']} · {sec['pos']}{etym}")
    for form_kind, lemma in sec["inflections"]:
        print(f"    {form_kind} → {lemma}")
    for ordinal, text in sec["meanings"]:
        plain = wt.strip_markup(text) or text  # form-of templates strip to nothing
        print(f"    {ordinal}. {plain}")
    by_type: dict[str, list[str]] = {}
    for type_name, target, _ordinal in sec["relations"]:
        by_type.setdefault(type_name, []).append(wt.strip_markup(target))
    for type_name, words in by_type.items():
        print(f"    {type_name}: {', '.join(words)}")
    for box in sec["translations"]:
        gloss = f" ({wt.strip_markup(box['gloss'])})" if box["gloss"] else ""
        rendered = "; ".join(f"{code}: {wt.strip_markup(text)}"
                             for code, text in box["entries"])
        print(f"    translations{gloss}: {rendered}")


def _cmd_compare(args) -> int:
    with _existing_store(args.store_a) as a, _existing_store(args.store_b) as b:
        try:
            ratios = stats_mod.ratio_report(
                {k: v for k, v in a.table_sizes().items() if not k.startswith("index_")},
                {k: v for k, v in b.table_sizes().items() if not k.startswith("index_")})
        except stats_mod.MismatchedTables as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print("table size ratios (a / b):")
        for name, value in ratios.items():
            print(f"  {name:25s} {stats_mod.format_ratio(value)}")
        report = stats_mod.compare_dictionaries(a, b)
        print("word coverage per language (only-a / only-b / both):")
        for code, cov in report.per_language.items():
            print(f"  {code:12s} {cov.only_a} / {cov.only_b} / {cov.both}")
        print(f"languages only in a (red list): {', '.join(report.red_list_a) or '-'}")
        print(f"languages only in b (red list): {', '.join(report.red_list_b) or '-'}")
        print(f"better presented in a: {', '.join(report.better_in_a) or '-'}")
        print(f"better presented in b: {', '.join(report.better_in_b) or '-'}")
    return 0


def _cmd_languages(args) -> int:
    registry = load_registry(args.registry) if args.registry else builtin_registry()
    print(f"{len(registry.languages)} language codes registered")
    for code in sorted(registry.languages):
        lang = registry.languages[code]
        print(f"{code}\t{lang.english_name}\t{lang.russian_name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
