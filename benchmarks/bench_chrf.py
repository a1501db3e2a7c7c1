#!/usr/bin/env python3
"""Benchmark chrF: a per-pair `chrf` loop against one `chrf_batch` call.

Both score the same synthetic pairs; the run exits 1 if any score differs
between the two, and otherwise prints the time of each (best of
--repeats).

    python benchmarks/bench_chrf.py
    python benchmarks/bench_chrf.py --pairs 5000
"""

import argparse
import random
import sys
import time

from xlconsist.textmetrics import chrf, chrf_batch

LATIN_WORDS = (
    "capital country element planet river mountain ocean treaty president "
    "club city year inventor symbol formula answer republic kingdom empire"
).split()
CJK = "阿根廷布宜诺斯艾利斯东京莫斯科巴黎柏林罗马雅典首尔北京上海广州"
CYRILLIC = "москвасанктпетербургновгородказаньсибирь"


def make_pairs(n, seed=12345):
    rng = random.Random(seed)
    pairs = []
    for _ in range(n):
        kind = rng.random()
        if kind < 0.5:
            words = rng.choices(LATIN_WORDS, k=rng.randint(1, 8))
            ref = " ".join(words)
        elif kind < 0.8:
            ref = "".join(rng.choices(CJK, k=rng.randint(2, 12)))
        else:
            ref = "".join(rng.choices(CYRILLIC, k=rng.randint(3, 15)))
        mutation = rng.random()
        if mutation < 0.3:
            hyp = ref
        elif mutation < 0.7:
            hyp = ref[: max(1, int(len(ref) * rng.uniform(0.3, 0.9)))]
        else:
            hyp = ref[::-1]
        pairs.append((hyp, ref))
    return pairs


def best_time(fn, repeats):
    """(fastest wall time, result) over `repeats` calls of fn."""
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--pairs", type=int, default=2000)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    pairs = make_pairs(args.pairs)
    hyps = [hyp for hyp, _ in pairs]
    refs = [ref for _, ref in pairs]
    loop_s, loop_scores = best_time(
        lambda: [chrf(hyp, ref) for hyp, ref in pairs], args.repeats
    )
    batch_s, batch_scores = best_time(lambda: chrf_batch(hyps, refs), args.repeats)

    differing = sum(a != b for a, b in zip(loop_scores, batch_scores))
    if differing:
        print(f"{differing} of {len(pairs)} scores differ between chrf and chrf_batch")
        return 1

    print(f"{'path':<12} {'pairs':>8} {'seconds':>9} {'pairs/s':>10}")
    for label, seconds in (("chrf loop", loop_s), ("chrf_batch", batch_s)):
        print(f"{label:<12} {len(pairs):>8} {seconds:>9.3f} {len(pairs) / seconds:>10.0f}")
    print(f"\nspeedup: {loop_s / batch_s:.2f}x (identical scores on {len(pairs)} pairs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
