"""Time ``sample_quadruples`` as the corpus grows.

Run from the repository root, with the package on the path:

    PYTHONPATH=src python scripts/sampling_scale.py 60 300 625

Each argument is a ``cases_per_branch`` for a corpus of 4 articles with 4
branches each (N = 16 × cases_per_branch cases; 60, 300 and 625 give 960,
4800 and 10⁴). For each size the script builds the weight table the way
``casevec weights`` does, then draws batches of ``TrainConfig``'s default
size from one generator. It prints one line per size: N, the first call
(which may build per-table state), the median and count of the later
calls, and the process's peak RSS before the first draw and after the
last. Peak RSS is the high-water mark of the whole process, so a size can
only show a peak above those before it. Timings are wall clock.
"""

from __future__ import annotations

import resource
import statistics
import sys
from time import perf_counter

import numpy as np

from casevec.articles import build_corpus
from casevec.bm25 import build_index, compute_profiles
from casevec.relevance import pairwise_weights
from casevec.sampling import sample_quadruples
from casevec.synth import SynthSpec, generate
from casevec.text import TokenizerConfig
from casevec.training import TrainConfig

LATER_CALLS = 200


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(cases_per_branch: int) -> str:
    spec = SynthSpec(num_articles=4, branches_per_article=4, vocab_size=200, noise_rate=0.1,
                     seed=1, cases_per_branch=cases_per_branch)
    tok = TokenizerConfig()
    corpus = generate(spec)
    articles = build_corpus(corpus.article_specs, tok)
    profiles = compute_profiles(corpus.cases, articles, build_index(articles, tok))
    table = pairwise_weights(corpus.cases, profiles)
    del profiles
    n = TrainConfig().batch_quadruples
    rng = np.random.default_rng(0)
    rss_before = peak_rss_mb()
    times = []
    for _ in range(1 + LATER_CALLS):
        start = perf_counter()
        sample_quadruples(table, n, rng)
        times.append(perf_counter() - start)
    return (f"N={len(table.ids)} quadruples={n} first={times[0] * 1e3:.3f} ms"
            f" later_median={statistics.median(times[1:]) * 1e3:.3f} ms"
            f" (of {LATER_CALLS}) peak_rss_before={rss_before:.0f} MB"
            f" peak_rss_after={peak_rss_mb():.0f} MB")


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: sampling_scale.py CASES_PER_BRANCH...", file=sys.stderr)
        return 2
    for arg in argv:
        print(measure(int(arg)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
