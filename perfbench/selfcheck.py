"""Fast tests of the benchmark itself (a few seconds).

    python3 -m pytest -q perfbench/selfcheck.py

The file name keeps these tests out of a plain ``pytest`` collection of the
repository; name the file to run them.  They cover: every workload at a tiny
size runs with its checks passing; each check rejects a corrupted output;
the tracing wrappers leave results bit-identical; BENCHMARK.json names
exactly the metrics the runner reports.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for p in (os.path.join(ROOT, "src"), HERE):
    if p not in sys.path:
        sys.path.insert(0, p)

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from holorm import (braidgrpd, cli, qdilog, rmatrix, sampling,  # noqa: E402
                    selftest, weylrep)

TINY = {
    "STATESUM_SHAPES": ((3, 3, 3), (4, 2, 3)),
    "CROSSING_GENERIC": ((4, +1), (4, -1)),
    "CROSSING_PINCHED": ((3, +1), (3, -1)),
    "CROSSING_KASHAEV": (3,),
    "SELFTEST_NS": (2, 3),
    "SELFTEST_SEEDS": 1,
    "DILOG_POINTS": 4,
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    for name, value in TINY.items():
        monkeypatch.setattr(workloads, name, value)

    def make(name, seed=5):
        cls = workloads.WORKLOADS[name]
        cls.prepare()
        return cls(seed, str(tmp_path))
    return make


def failing(results) -> list:
    return [c.name for c in results if not c.passed]


# ------------------------------------------------------------ workloads run

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_runs_and_passes_its_checks(tiny, name):
    wl = tiny(name)
    r = run.timed_rounds(wl, 0.0, keep=True)
    assert r["failed"] == 0 and r["reasons"] == {}
    assert r["attempted"] == len(wl.items) * wl.ops_per_item == len(r["op_times"])
    results = wl.check()
    assert results and failing(results) == []


def test_rounds_are_whole(tiny):
    wl = tiny("statesum")
    r = run.timed_rounds(wl, 1e-9, keep=False)
    assert len(r["walls"]) == 1 and r["attempted"] == len(wl.items)


# ---------------------------------------------------- checks reject bad output

def scale_max_entry(A, factor=1 + 1e-6):
    A = np.array(A, copy=True)
    A[np.unravel_index(np.abs(A).argmax(), A.shape)] *= factor
    return A


@pytest.fixture
def statesum_case(tiny):
    wl = tiny("statesum")
    it = wl.items[0]
    lc, _, J, _ = wl.op(it)
    cfg, d = it["cfg"], it["d"]
    crossings = [workloads._crossing_of(cfg, d, lc, c) for c in d.crossings]
    ops = [(rmatrix.braiding_op(cd).as_operator(), c.pos)
           for cd, c in zip(crossings, d.crossings)]
    return it, d, lc, J, crossings, ops


def test_statesum_product_rejects_corruption(statesum_case):
    it, d, _, J, _, ops = statesum_case
    N, w, V = it["cfg"].N, d.width, it["V"]
    assert checks.statesum_product(J @ V, V, ops, N, w).passed
    assert not checks.statesum_product(scale_max_entry(J) @ V, V, ops, N, w).passed
    assert not checks.statesum_product(J.T @ V, V, ops, N, w).passed


def test_statesum_logdet_rejects_wrong_sign(statesum_case):
    it, d, lc, J, crossings, _ = statesum_case
    N, w = it["cfg"].N, d.width
    logdets = [cmath.log(rmatrix.det_braiding(cd)) for cd in crossings]
    cond = float(np.linalg.cond(J, 1))
    assert checks.statesum_logdet(J, logdets, N, w, cond).passed
    flipped = braidgrpd.build_diagram(braidgrpd.BraidWord(
        w, (-d.word.letters[0],) + d.word.letters[1:]))
    lc2 = braidgrpd.extend_log_coloring(flipped, it["top_b"], it["top_g"], it["mu"])
    J2 = braidgrpd.jfunc_eval(it["cfg"], flipped, lc2)
    assert not checks.statesum_logdet(J2, logdets, N, w, cond).passed


@pytest.fixture
def generic_crossing():
    cfg = qdilog.RootConfig(5)
    return sampling.random_crossing(cfg, np.random.default_rng(3), +1)


def test_recurrences_reject_corruption(generic_crossing):
    c = generic_crossing
    args = (c.zeta0(), (c.lc1.alpha, c.lc2.alpha, c.lc1p.alpha, c.lc2p.alpha),
            (c.lc1.mu, c.lc2.mu))
    E = rmatrix.rmat(c).entries
    assert checks.recurrences(checks.rtensor4(E), *args).passed
    assert not checks.recurrences(checks.rtensor4(scale_max_entry(E)), *args).passed
    assert not checks.recurrences(checks.rtensor4(E.T.copy()), *args).passed


@pytest.mark.parametrize("sign", (+1, -1))
def test_intertwining_rejects_corruption(sign):
    cfg = qdilog.RootConfig(5)
    c = sampling.random_crossing(cfg, np.random.default_rng(4), sign)
    images = weylrep.rw_images if sign > 0 else weylrep.rw_images_negative
    pi_in = weylrep.pi_tensor(cfg, c.lc1, c.lc2)
    pi_out = images(cfg, c.lc1, c.lc2, c.lc1p, c.lc2p)
    act = rmatrix.rmat(c).as_operator()
    assert checks.intertwining(act, pi_in, pi_out).passed
    assert not checks.intertwining(scale_max_entry(act), pi_in, pi_out).passed
    assert not checks.intertwining(act.T, pi_in, pi_out).passed


def test_factorization_and_determinant_reject_corruption(generic_crossing):
    c = generic_crossing
    B = rmatrix.braiding_op(c)
    factored = rmatrix.factorized_ops(c).braiding_matrix()
    assert checks.factorization(B.entries, factored).passed
    assert not checks.factorization(scale_max_entry(B.entries), factored).passed
    op = B.as_operator()
    assert checks.determinant("det", rmatrix.det_braiding(c), op).passed
    wrong_sign = rmatrix.det_braiding(workloads._inverse_crossing(c))
    assert not checks.determinant("det", wrong_sign, op).passed


def test_backward_r2_and_braid_relation_reject_corruption(generic_crossing):
    c = generic_crossing
    B = rmatrix.braiding_op(c).as_operator()
    Binv = rmatrix.braiding_op(workloads._inverse_crossing(c)).as_operator()
    assert checks.backward_r2(B, Binv, "R2").passed
    assert not checks.backward_r2(scale_max_entry(B), Binv, "R2").passed
    assert not checks.backward_r2(B.T, Binv, "R2").passed
    N = 3
    K = checks.braiding_from_rmat(rmatrix.kashaev_rmat(qdilog.RootConfig(N)).entries)
    assert checks.braid_relation(K, N).passed
    assert not checks.braid_relation(scale_max_entry(K), N).passed


def test_dilog_checks_reject_corruption():
    f = qdilog.Flattening.from_zeta0(0.3 - 0.1j, branch=1)
    z = cmath.exp(2j * cmath.pi * f.zeta0)
    assert checks.li2_mpmath(z, qdilog.li2(z)).passed
    assert not checks.li2_mpmath(z, qdilog.li2(z) * (1 + 1e-6)).passed
    L = qdilog.lifted_dilog(f)
    assert checks.lifted_dilog_mpmath(f.zeta0, f.zeta1, L).passed
    assert not checks.lifted_dilog_mpmath(f.zeta0, f.zeta1, L * (1 + 1e-6)).passed


def test_statesum_and_selftest_checks_reject_corrupted_kept_output(tiny):
    ss = tiny("statesum")
    run.timed_rounds(ss, 0.0, keep=True)
    col = ss.kept[0][1]
    col.colors[0] = type(col.colors[0])(col.colors[0].a, col.colors[0].b * (1 + 1e-6),
                                        col.colors[0].m)
    assert "characters vs log-coloring" in failing(ss.check())
    st = tiny("selftest")
    run.timed_rounds(st, 0.0, keep=True)
    st.kept[0] = [r for r in st.kept[0] if r.module != "weylrep"]
    assert failing(st.check()) == ["every suite reported"]


def test_crossing_check_rejects_a_corrupted_output_file(tiny):
    wl = tiny("crossing")
    run.timed_rounds(wl, 0.0, keep=True)
    assert failing(wl.check()) == []
    it = wl.items[0]
    with open(it["out"]) as fh:
        out = json.load(fh)
    E = checks.json_matrix(out["entries"])
    i, j = np.unravel_index(np.abs(E).argmax(), E.shape)
    out["entries"][i][j] = [v * (1 + 1e-6) for v in out["entries"][i][j]]
    with open(it["out"], "w") as fh:
        json.dump(out, fh)
    bad = set(failing(wl.check()))
    assert {"identical bytes in every round", "lossless round trip",
            "recurrences i-iv", "four-dilogarithm factorization"} <= bad


# ------------------------------------------------------------------- tracing

def test_tracing_leaves_results_bit_identical(tiny, tmp_path):
    ss = tiny("statesum")
    it = ss.items[0]
    plain_J = ss.op(it)[2]
    spec = tmp_path / "c.json"
    c = sampling.random_crossing(qdilog.RootConfig(4), np.random.default_rng(1), -1)
    spec.write_text(json.dumps(workloads.crossing_spec(c)))

    def cli_bytes():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(["rmat", "--N", "4", "--input", str(spec)]) == 0
        return buf.getvalue()

    def battery():
        return [(r.module, r.name, r.deviation)
                for r in selftest.run_all(Ns=[3], seed=2, scale=0.1)]

    plain_cli, plain_battery = cli_bytes(), battery()
    originals = (braidgrpd.jfunc_eval, rmatrix.CrossingData.__init__, cli.main,
                 braidgrpd.braiding_op, sampling.random_crossing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert braidgrpd.jfunc_eval is not originals[0]
        traced_J = ss.op(it)[2]
        statesum_spans = tracer.take()
        traced_cli = cli_bytes()
        cli_spans = tracer.take()
        traced_battery = battery()
    finally:
        tracer.uninstall()
    assert (braidgrpd.jfunc_eval, rmatrix.CrossingData.__init__, cli.main,
            braidgrpd.braiding_op, sampling.random_crossing) == originals
    assert np.array_equal(plain_J, traced_J)
    assert plain_cli == traced_cli
    assert plain_battery == traced_battery
    totals = tracing.span_totals(statesum_spans)
    assert totals["braidgrpd.jfunc_eval"][0] == 1
    # braidgrpd looks braiding_op up in its own namespace: one call per crossing
    assert totals["rmatrix.braiding_op"][0] == len(it["d"].crossings)
    totals = tracing.span_totals(cli_spans)
    assert totals["cli.main"][0] == 1
    # cli looks rmat and det_lu up in its own namespace
    assert totals["rmatrix.rmat"][0] == totals["rmatrix.det_lu"][0] == 1


def test_span_totals_self_time_and_recursion():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["a", 5.0, 6.0, 0],
             ["b", 2.0, 3.0, 1]]
    tot = tracing.span_totals(spans)
    # the inner "a" and "b" are not counted twice; self time = minus direct children
    assert tot["a"] == [2, 10.0, 6.0]
    assert tot["b"] == [2, 3.0, 2.0]


# ---------------------------------------------------------- BENCHMARK.json

def test_benchmark_json_names_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOAD_NAMES)
    assert {m["name"] for m in bench["end_to_end"]} == {
        "setup_s", "wall_s", "op_p50_ms", "peak_rss_mb"}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect = {m: tracing.metric_unit(m) for m in tracing.SPAN_METRICS}
    expect.update(dict(tracing.RUN_METRICS))
    assert per_layer == expect
