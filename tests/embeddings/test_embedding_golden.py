"""Golden embedding digest: inst2vec training and the anonymous-walk
sampler must not drift by a single bit.

Two things are pinned against ``tests/embeddings/goldens/embedding_digest.json``:

* the sha256 of ``w_in`` and ``w_out`` (dtype, shape and raw bytes) after
  a fixed small inst2vec training run over benchsuite programs, at the
  default batch size (so every scatter sees heavily repeated rows) and at
  a small one;
* the sha256 of the structural node features (node ids, then raw bytes)
  of every loop sub-PEG of a fixed set of benchsuite applications, at
  γ = 20 and γ = 30, with one generator threaded through the sub-PEGs as
  dataset extraction does, plus one draw from that generator afterwards.

A planted fault shows the inst2vec digest can fail: a scatter that sums
each row's updates first and then adds the sum (``w[r] += upd_r.sum(0)``)
rounds differently and must not match.

The inst2vec step reads ``np.einsum`` and ``np.exp``, whose float64 bits
depend on the host's compiled kernels as well as on the code.  The golden
therefore records a probe of those kernels; on a host where they compute
differently the inst2vec digests cannot be compared and those tests skip.

Regenerate after an intentional numeric change with::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/embeddings/test_embedding_golden.py -q
"""

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.benchsuite.registry import build_app
from repro.embeddings.anonwalk import AnonymousWalkSpace, structural_node_features
from repro.embeddings import inst2vec as inst2vec_module
from repro.embeddings.inst2vec import Inst2Vec
from repro.ir.lowering import lower_program
from repro.peg.builder import build_peg
from repro.peg.subgraph import all_loop_subpegs
from repro.profiler.interpreter import profile_program

GOLDEN = Path(__file__).resolve().parent / "goldens" / "embedding_digest.json"
_UPDATE = os.environ.get("REPRO_UPDATE_GOLDENS") == "1"

APPS = ("EP", "IS", "fib", "nqueens", "jacobi-2d", "2mm", "trmm", "syr2k", "CG")
INST2VEC_APPS = ("EP", "IS", "fib", "nqueens", "jacobi-2d")
INST2VEC_RUNS = {
    "default_batch": dict(epochs=2, rng=7),
    "small_batch": dict(epochs=3, batch_size=64, negatives=3, rng=11),
}
GAMMAS = (20, 30)


def _programs(apps):
    return [program for app in apps for program in build_app(app).programs]


@pytest.fixture(scope="module")
def subpegs():
    out = []
    for program in _programs(APPS):
        ir = lower_program(program)
        peg = build_peg(ir, profile_program(ir))
        for loop_id, subpeg in sorted(all_loop_subpegs(peg).items()):
            out.append(subpeg)
    return out


def inst2vec_digest(name):
    irs = [lower_program(p) for p in _programs(INST2VEC_APPS)]
    model = Inst2Vec(dim=48).train(irs, **INST2VEC_RUNS[name])
    digest = {}
    for key in ("w_in", "w_out"):
        data = np.ascontiguousarray(getattr(model, key))
        h = hashlib.sha256(f"{data.dtype} {data.shape}\n".encode())
        h.update(data.tobytes())
        digest[key] = h.hexdigest()
    return digest


def walk_digest(subpegs, gamma):
    rng = np.random.default_rng(2022 + gamma)
    space = AnonymousWalkSpace(4)
    h = hashlib.sha256()
    for subpeg in subpegs:
        node_ids, features = structural_node_features(
            subpeg, space, gamma=gamma, rng=rng
        )
        h.update(("\n".join(node_ids) + f"\n{features.shape}\n").encode())
        h.update(np.ascontiguousarray(features).tobytes())
    h.update(float(rng.random()).hex().encode())
    return h.hexdigest()


def kernel_probe():
    """Digest of the einsum contractions and the ``exp`` the inst2vec step
    uses, on fixed inputs: equal digests mean this host's kernels compute
    them as on the host that recorded the golden."""
    rng = np.random.default_rng(0)
    digest = hashlib.sha256()
    for batch, k, d in ((512, 5, 48), (37, 3, 200), (3, 1, 1)):
        v = rng.normal(size=(batch, d))
        u = rng.normal(size=(batch, d))
        u_neg = rng.normal(size=(batch, k, d))
        s = rng.normal(size=(batch, k))
        for out in (
            np.einsum("bd,bd->b", v, u),
            np.einsum("bd,bkd->bk", v, u_neg),
            np.einsum("bk,bkd->bd", s, u_neg),
            np.exp(-np.clip(s, -30.0, 30.0)),
        ):
            digest.update(np.ascontiguousarray(out).tobytes())
    return digest.hexdigest()


def _compute(subpegs):
    return {
        "kernel_probe": kernel_probe(),
        "inst2vec": {name: inst2vec_digest(name) for name in INST2VEC_RUNS},
        "walks": {str(g): walk_digest(subpegs, g) for g in GAMMAS},
        "subpegs": len(subpegs),
    }


@pytest.fixture(scope="module")
def golden(subpegs):
    if _UPDATE:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(
            json.dumps(_compute(subpegs), indent=2, sort_keys=True) + "\n"
        )
    assert GOLDEN.exists(), (
        f"missing golden {GOLDEN.name}; regenerate with REPRO_UPDATE_GOLDENS=1"
    )
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def inst2vec_golden(golden):
    if golden["kernel_probe"] != kernel_probe():
        pytest.skip("this host's einsum/exp kernels compute differently "
                    "than the host that recorded the golden")
    return golden["inst2vec"]


def test_golden_covers_every_run(golden, subpegs):
    assert sorted(golden["inst2vec"]) == sorted(INST2VEC_RUNS)
    assert sorted(golden["walks"]) == sorted(str(g) for g in GAMMAS)
    assert golden["subpegs"] == len(subpegs)


@pytest.mark.parametrize("name", sorted(INST2VEC_RUNS))
def test_inst2vec_digest_matches_golden(inst2vec_golden, name):
    assert inst2vec_digest(name) == inst2vec_golden[name], (
        f"inst2vec {name}: trained weights drifted from the golden digest"
    )


@pytest.mark.parametrize("gamma", GAMMAS)
def test_walk_digest_matches_golden(golden, subpegs, gamma):
    assert walk_digest(subpegs, gamma) == golden["walks"][str(gamma)], (
        f"structural features at gamma={gamma} drifted from the golden digest"
    )


def _sum_first_scatter(weights, indices, updates):
    for row in np.unique(indices):
        weights[row] += updates[indices == row].sum(0)


@pytest.mark.parametrize("name", sorted(INST2VEC_RUNS))
def test_sum_first_scatter_breaks_the_digest(inst2vec_golden, monkeypatch, name):
    monkeypatch.setattr(
        inst2vec_module, "_ordered_scatter_add", _sum_first_scatter
    )
    assert inst2vec_digest(name) != inst2vec_golden[name]
