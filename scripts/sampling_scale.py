"""Time the weight table and ``sample_quadruples`` as the corpus grows.

Run from the repository root, with the package on the path:

    PYTHONPATH=src python scripts/sampling_scale.py 60 300 625

Each argument is a ``cases_per_branch`` for a corpus of 4 articles with 4
branches each (N = 16 × cases_per_branch cases; 60, 300 and 625 give 960,
4800 and 10⁴). For each size the script builds the weight table the way
``casevec weights`` does, timing ``build_index``, ``compute_profiles``
and ``pairwise_weights`` once each, then draws batches of
``TrainConfig``'s default size from one generator. It prints one line per
size: N, the three stage times, the process's peak RSS after the weights,
a sha256 of the table's matrix bytes (equal on two commits when their
tables are bit-equal), the first draw (which may build per-table state),
the median and count of the later draws, and the peak RSS after the last.
Peak RSS is the high-water mark of the whole process, so a size can only
show a peak above those before it; run one size per process to see each
size's own peak. Timings are wall clock. BLAS and OpenMP get one thread,
as in ``perfbench/run.py``, so no BLAS call waits for a busy second CPU.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # must precede the first numpy import

import hashlib
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
    start = perf_counter()
    index = build_index(articles, tok)
    index_s = perf_counter() - start
    start = perf_counter()
    profiles = compute_profiles(corpus.cases, articles, index)
    profiles_s = perf_counter() - start
    start = perf_counter()
    table = pairwise_weights(corpus.cases, profiles)
    pairwise_s = perf_counter() - start
    rss_weights = peak_rss_mb()
    digest = hashlib.sha256(table.matrix).hexdigest()  # the buffer itself, not a tobytes() copy
    del profiles
    n = TrainConfig().batch_quadruples
    rng = np.random.default_rng(0)
    times = []
    for _ in range(1 + LATER_CALLS):
        start = perf_counter()
        sample_quadruples(table, n, rng)
        times.append(perf_counter() - start)
    return (f"N={len(table.ids)} index={index_s * 1e3:.2f} ms profiles={profiles_s * 1e3:.1f} ms"
            f" pairwise={pairwise_s * 1e3:.1f} ms peak_rss_weights={rss_weights:.0f} MB"
            f" sha256={digest} quadruples={n} first={times[0] * 1e3:.3f} ms"
            f" later_median={statistics.median(times[1:]) * 1e3:.3f} ms"
            f" (of {LATER_CALLS}) peak_rss_after={peak_rss_mb():.0f} MB")


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
