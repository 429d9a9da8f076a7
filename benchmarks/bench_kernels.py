#!/usr/bin/env python3
"""Benchmark the compiled scanning kernel against the pure-Python fallback.

Times the four byte-level primitives on a synthetic page corpus, then a full
page analysis (sectioning + relations + translations) under each kernel.

Usage:
    python benchmarks/bench_kernels.py [--mb 8] [--repeat 3]
"""

import argparse
import random
import time

from wiktmrd import entry, relations, translations
from wiktmrd import wikitext as wt
from wiktmrd.registry import builtin_registry
from wiktmrd.wikitext import _kernel_py

try:
    from wiktmrd.wikitext import _kernel_cy
except ImportError:
    _kernel_cy = None


def synthetic_page(rng, i):
    parts = [f"==English==\n\n===Etymology===\nFrom {{{{etyl|ang}}}} "
             f"{{{{term|w{i}}}}}.\n\n===Noun===\n{{{{en-noun}}}}\n\n"]
    for k in range(rng.randint(1, 4)):
        parts.append(f"# A [[sense{k}]] of thing {i}, ''with'' some [[markup|flair]] "
                     f"and a {{{{gloss|short gloss {k}}}}}.\n")
    parts.append("\n====Synonyms====\n")
    for k in range(rng.randint(1, 5)):
        parts.append(f"* {{{{sense|thing {k}}}}} [[syn{k}]], [[syn{k}x]]\n")
    parts.append("\n====Translations====\n{{trans-top|the thing}}\n")
    # registered language names, or every translation line would be skipped
    for code, name, word in (("fi", "Finnish", "sana"), ("ru", "Russian", "слово"),
                             ("ko", "Korean", "수풀")):
        parts.append(f"* {name}: {{{{t+|{code}|{word}{i % 19}}}}}\n")
    parts.append("{{trans-bottom}}\n")
    return "".join(parts)


def build_corpus(target_mb):
    rng = random.Random(7)
    pages = []
    total = 0
    i = 0
    while total < target_mb * 1_000_000:
        text = synthetic_page(rng, i)
        pages.append(text)
        total += len(text)
        i += 1
    return pages


def time_kernel(kernel, blobs, repeat):
    results = {}
    jobs = [
        ("template_spans", lambda d: kernel.template_spans(d)),
        ("wikilink_spans", lambda d: kernel.wikilink_spans(d)),
        ("heading_spans", lambda d: kernel.heading_spans(d)),
        ("top_level_marks", lambda d: kernel.top_level_marks(d, 0, len(d), 0x7C)),
    ]
    total_bytes = sum(len(b) for b in blobs)
    for name, fn in jobs:
        best = float("inf")
        for _ in range(repeat):
            t0 = time.perf_counter()
            for blob in blobs:
                fn(blob)
            best = min(best, time.perf_counter() - t0)
        results[name] = total_bytes / best / 1e6  # MB/s
    return results


def time_analysis(kernel, pages, repeat):
    registry = builtin_registry()
    cfg = registry.dialect_config("en")
    previous = wt._kernel
    wt._kernel = kernel
    try:
        best = float("inf")
        for _ in range(repeat):
            entries = skipped = 0
            t0 = time.perf_counter()
            for n, text in enumerate(pages):
                page = entry.Page(title=f"p{n}", raw_text=text)
                sections, _ = entry.split_language_sections(page, cfg, registry)
                for sec in sections:
                    for ps in entry.split_pos_sections(sec, cfg, registry):
                        meanings = entry.extract_definitions(ps, cfg, registry)
                        relations.extract_relations(ps, meanings, cfg, registry)
                        boxes, sk = translations.extract_translations_en(ps, registry)
                        entries += sum(len(e) for _, e in boxes)
                        skipped += len(sk)
            best = min(best, time.perf_counter() - t0)
        return len(pages) / best, entries, skipped
    finally:
        wt._kernel = previous


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mb", type=float, default=8.0,
                        help="corpus size in MB (default 8)")
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    pages = build_corpus(args.mb)
    blobs = [wt.encode(p) for p in pages]
    print(f"corpus: {len(pages)} pages, "
          f"{sum(len(b) for b in blobs) / 1e6:.1f} MB; best of {args.repeat}\n")

    lanes = [("python", _kernel_py)]
    if _kernel_cy is not None:
        lanes.append(("compiled", _kernel_cy))
    else:
        print("compiled kernel not built; showing the fallback only\n")

    primitive_rows = {name: time_kernel(kernel, blobs, args.repeat)
                      for name, kernel in lanes}
    width = max(len(n) for n in primitive_rows["python"])
    header = f"{'primitive':<{width}}  " + "  ".join(f"{n:>14}" for n, _ in lanes)
    if len(lanes) == 2:
        header += f"  {'speedup':>8}"
    print(header)
    for prim in primitive_rows["python"]:
        row = f"{prim:<{width}}  "
        row += "  ".join(f"{primitive_rows[n][prim]:>9.1f} MB/s" for n, _ in lanes)
        if len(lanes) == 2:
            speedup = primitive_rows["compiled"][prim] / primitive_rows["python"][prim]
            row += f"  {speedup:>7.1f}x"
        print(row)

    print("\nfull page analysis:")
    rates = {}
    for name, kernel in lanes:
        rates[name], entries, skipped = time_analysis(kernel, pages, args.repeat)
        print(f"  {name:>8}: {rates[name]:>8.0f} pages/s "
              f"({entries} translation entries, {skipped} lines skipped)")
    if len(lanes) == 2:
        print(f"   speedup: {rates['compiled'] / rates['python']:.2f}x")


if __name__ == "__main__":
    main()
