"""The scripts under ``scripts/`` still run against the package."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

from casevec.articles import build_corpus
from casevec.bm25 import build_index, compute_profiles
from casevec.relevance import pairwise_weights
from casevec.synth import SynthSpec, generate
from casevec.text import TokenizerConfig
from casevec.training import TrainConfig

ROOT = Path(__file__).resolve().parents[1]


def test_sampling_scale_prints_one_line_per_size():
    """``sampling_scale.py 2`` (N=32) prints one line of its fields, with
    the sha256 of the weight table ``pairwise_weights`` builds on the same
    corpus. It runs in its own process, since it sets the BLAS thread
    variables when imported."""
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    result = subprocess.run([sys.executable, "scripts/sampling_scale.py", "2"], cwd=ROOT,
                            env=env, capture_output=True, text=True, timeout=120, check=True)
    lines = result.stdout.splitlines()
    assert len(lines) == 1
    match = re.fullmatch(
        r"N=32 index=[\d.]+ ms profiles=[\d.]+ ms pairwise=[\d.]+ ms"
        r" peak_rss_weights=\d+ MB sha256=([0-9a-f]{64}) quadruples=(\d+) first=[\d.]+ ms"
        r" later_median=[\d.]+ ms \(of 200\) peak_rss_after=\d+ MB", lines[0])
    assert match, lines[0]
    assert int(match[2]) == TrainConfig().batch_quadruples
    spec = SynthSpec(num_articles=4, branches_per_article=4, vocab_size=200, noise_rate=0.1,
                     seed=1, cases_per_branch=2)
    tok = TokenizerConfig()
    corpus = generate(spec)
    articles = build_corpus(corpus.article_specs, tok)
    table = pairwise_weights(corpus.cases, compute_profiles(corpus.cases, articles,
                                                            build_index(articles, tok)))
    assert match[1] == hashlib.sha256(table.matrix).hexdigest()
