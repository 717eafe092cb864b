"""CLI: JSON round trips, exit codes, canned matrices, README examples."""

import cmath
import dataclasses
import json
import math
import pathlib
import re
import shlex

import numpy as np
import pytest

from holorm import cli, selftest
from holorm.characters import LogWeylChar
from holorm.cli import main
from holorm.qdilog import Flattening, RootConfig
from holorm.sampling import (letter_crossing, random_crossing,
                             standard_pinched_crossing)

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _no_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def run(capsys, *argv):
    """Exit code and stdout of one CLI call; stdout must be standard JSON."""
    code = main(list(argv))
    out = capsys.readouterr().out
    json.loads(out, parse_constant=_no_constant)
    return code, out


def test_selftest_pass(capsys):
    code, out = run(capsys, "selftest", "--N", "2,3", "--seed", "7",
                    "--scale", "0.15")
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"] is True
    rows = rep["checks"]
    # one row per identity and N, in run_all order
    expect = selftest.run_all(Ns=[2, 3], seed=7, scale=0.15)
    assert [(r["suite"], r["identity"], r["N"]) for r in rows] == [
        (r.module, r.name, r.N) for r in expect]
    assert [r["samples"] for r in rows] == [r.samples for r in expect]
    for row in rows:
        assert set(row) == {"identity", "suite", "N", "max_deviation", "tol",
                            "headroom", "samples", "passed"}
        assert row["passed"] and row["samples"] > 0
        assert row["max_deviation"] <= row["tol"]
        if row["max_deviation"] == 0.0:
            assert row["headroom"] is None
        else:
            assert row["headroom"] == row["tol"] / row["max_deviation"] >= 1.0
    # tol 0 and deviation 0: no finite headroom
    assert {r["headroom"] for r in rows if r["identity"] == "commutant generic"} == {None}


def test_selftest_unevaluated_identity_is_null(capsys, monkeypatch):
    real = selftest.check_characters

    def skips_det_psi(cfg, rng, trials):
        out = real(cfg, rng, trials)
        del out["det psi"], out.samples["det psi"]
        return out

    monkeypatch.setattr(selftest, "check_characters", skips_det_psi)
    code, out = run(capsys, "selftest", "--N", "2", "--scale", "0.1")
    assert code == 1
    rows = [r for r in json.loads(out)["checks"] if r["identity"] == "det psi"]
    assert [r["N"] for r in rows] == [2]
    assert rows[0]["max_deviation"] is None and rows[0]["passed"] is False
    assert rows[0]["headroom"] is None
    assert rows[0]["samples"] == 0


def test_selftest_headroom_is_null_where_not_finite():
    def headroom(dev):
        return selftest.CheckResult("m", "x", 2, dev, 1e-8, 1).headroom
    assert headroom(1e-10) == 1e-8 / 1e-10
    assert headroom(1e-2) == 1e-6
    for dev in (0.0, float("nan"), float("inf"), 1e-320):
        assert headroom(dev) is None


def test_selftest_bad_n(capsys):
    code, out = run(capsys, "selftest", "--N", "1")
    assert code == 2
    assert "N must be >= 2" in json.loads(out)["error"]


def test_selftest_unachievable_tolerance(capsys, monkeypatch):
    ident = selftest.IDENTITIES["lambda product"]
    monkeypatch.setitem(selftest.IDENTITIES, ident.name,
                        dataclasses.replace(ident, tol=1e-30))
    code, out = run(capsys, "selftest", "--N", "2", "--scale", "0.1")
    assert code == 1
    rep = json.loads(out)
    assert rep["passed"] is False
    failed = [(r["suite"], r["identity"]) for r in rep["checks"] if not r["passed"]]
    assert failed == [("qdilog", "lambda product")]


def test_jmat_matches_elementwise_conversion():
    M = np.array([[complex(-0.0, 5e-324), complex(1e300, -0.0)],
                  [complex(0.1, -2.5), complex(np.pi, 1 / 3)]])
    loop = [[[float(v.real), float(v.imag)] for v in row] for row in M]
    assert json.dumps(cli._jmat(M), indent=1) == json.dumps(loop, indent=1)


def test_rmat_kashaev_entry(capsys):
    code, out = run(capsys, "rmat", "--N", "2", "--kashaev")
    assert code == 0
    rep = json.loads(out)
    assert rep["pinched"] is True
    re, im = rep["entries"][0][0]
    assert abs(re) < 1e-12 and abs(im - 1.0) < 1e-12


def _crossing_spec(c):
    def cx(z):
        return [z.real, z.imag]
    return {
        "sign": c.sign,
        "segments": {
            "1": {"beta": cx(c.lc1.beta), "mu": cx(c.lc1.mu)},
            "2": {"beta": cx(c.lc2.beta), "mu": cx(c.lc2.mu)},
            "1p": {"beta": cx(c.lc1p.beta), "mu": cx(c.lc1p.mu)},
            "2p": {"beta": cx(c.lc2p.beta), "mu": cx(c.lc2p.mu)},
        },
        "regions": {"N": cx(c.gamma_n), "W": cx(c.gamma_w),
                    "S": cx(c.gamma_s), "E": cx(c.gamma_e)},
        "kappa": "auto",
    }


def _filled_crossing_spec(N=3):
    """Fill in a crossing description with braided output data."""
    lc1 = LogWeylChar(0.31 - 0.04j, 0.11 + 0.02j, 0.21 - 0.03j)
    lc2 = LogWeylChar(-0.23 + 0.06j, -0.17 + 0.05j, -0.12 + 0.04j)
    return _crossing_spec(letter_crossing(RootConfig(N), +1, lc1, lc2, 0.05))


def test_rmat_from_spec(tmp_path, capsys):
    spec = _filled_crossing_spec()
    path = tmp_path / "crossing.json"
    path.write_text(json.dumps(spec))
    code, out = run(capsys, "rmat", "--N", "3", "--input", str(path))
    assert code == 0
    rep = json.loads(out)
    assert rep["pinched"] is False
    dc = complex(*rep["det_closed"])
    dl = complex(*rep["det_lu"])
    assert abs(dc - dl) / abs(dl) < 1e-7
    assert abs(cmath.exp(complex(*rep["logdet_closed"])) - dc) / abs(dc) < 1e-12
    assert abs(cmath.exp(complex(*rep["logdet_lu"])) - dl) / abs(dl) < 1e-12
    # round trip: emit -> parse -> emit is byte-identical
    again = json.dumps(rep, indent=1, sort_keys=True) + "\n"
    assert again == out


def test_rmat_spec_alpha_and_output_mu_are_checked(tmp_path, capsys):
    spec = _filled_crossing_spec()
    path = tmp_path / "crossing.json"
    path.write_text(json.dumps(spec))
    plain = run(capsys, "rmat", "--N", "3", "--input", str(path))
    # alphas that agree with the region differences change nothing
    regs = {r: complex(*v) for r, v in spec["regions"].items()}
    for key, (hi, lo) in {"1": "WN", "2": "SW", "1p": "SE", "2p": "EN"}.items():
        d = regs[hi] - regs[lo]
        spec["segments"][key]["alpha"] = [d.real, d.imag]
    path.write_text(json.dumps(spec))
    assert run(capsys, "rmat", "--N", "3", "--input", str(path)) == plain
    bad = json.loads(json.dumps(spec))
    bad["segments"]["2p"]["alpha"][0] += 0.25
    path.write_text(json.dumps(bad))
    code, out = run(capsys, "rmat", "--N", "3", "--input", str(path))
    assert code == 2
    assert json.loads(out)["error"].startswith(
        "invalid crossing spec: segment alpha (")
    assert "does not match region difference" in json.loads(out)["error"]
    bad = json.loads(json.dumps(spec))
    bad["segments"]["1p"]["mu"][1] += 1e-6
    path.write_text(json.dumps(bad))
    code, out = run(capsys, "rmat", "--N", "3", "--input", str(path))
    assert code == 2
    assert json.loads(out)["error"] == (
        "invalid crossing spec: meridian logs must be preserved")


def test_rmat_pinched_requires_flag(tmp_path, capsys):
    spec = _filled_crossing_spec()
    # standard pinched data at the Kashaev point
    spec["segments"]["1"] = {"beta": [0.0, 0.0], "mu": [-0.5, 0.0]}
    spec["segments"]["2"] = {"beta": [-0.5, 0.0], "mu": [-0.5, 0.0]}
    spec["segments"]["1p"] = {"beta": [-0.5, 0.0], "mu": [-0.5, 0.0]}
    spec["segments"]["2p"] = {"beta": [0.0, 0.0], "mu": [-0.5, 0.0]}
    spec["regions"] = {"N": [0.1, 0.0], "W": [-0.4, 0.0],
                       "S": [-0.9, 0.0], "E": [-0.4, 0.0]}
    path = tmp_path / "crossing.json"
    path.write_text(json.dumps(spec))
    code, out = run(capsys, "rmat", "--N", "2", "--input", str(path))
    assert code == 1
    rep = json.loads(out)
    assert "pinched" in rep["error"]
    assert rep["integral_zeta0"]  # names the integral zeta0 values
    code, out = run(capsys, "rmat", "--N", "2", "--input", str(path), "--pinched")
    assert code == 0
    assert json.loads(out)["pinched"] is True


def test_rmat_beyond_the_double_range_emits_logdets(tmp_path, capsys):
    # |det| of the braiding grows like 10^(N^2/2); at this crossing it
    # leaves the double range, so only its logarithms are numbers
    c = random_crossing(RootConfig(26), np.random.default_rng(10), +1)
    path = tmp_path / "crossing.json"
    path.write_text(json.dumps(_crossing_spec(c)))
    code, out = run(capsys, "rmat", "--N", "26", "--input", str(path))
    assert code == 0
    rep = json.loads(out)
    assert rep["det_closed"] is None and rep["det_lu"] is None
    assert len(rep["entries"]) == 26 ** 2
    d = complex(*rep["logdet_closed"]) - complex(*rep["logdet_lu"])
    # equal mod 2 pi i, to the bound test_rmatrix::test_logdet_beyond_the_double_range
    # uses for this crossing
    assert abs(d - 2j * cmath.pi * round(d.imag / (2 * cmath.pi))) < 1e-4


def test_readme_json_examples_run(tmp_path, capsys):
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 2
    path = tmp_path / "spec.json"
    for block in blocks:
        path.write_text(block)
        spec = json.loads(block)
        commands = [("rmat", "3")] if "segments" in spec else [("braid", "2"), ("color", "2")]
        for command, N in commands:
            code, out = run(capsys, command, "--N", N, "--input", str(path))
            assert code == 0, out


def test_readme_cli_lines_run(tmp_path, capsys, monkeypatch):
    # every line of the README's CLI block, with its crossing as
    # crossing.json and c.json and its braid as braid.json
    text = README.read_text()
    crossing, braid_spec = re.findall(r"```json\n(.*?)```", text, re.S)
    for name, spec in (("crossing.json", crossing), ("c.json", crossing),
                       ("braid.json", braid_spec)):
        (tmp_path / name).write_text(spec)
    monkeypatch.chdir(tmp_path)
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", text, re.S).group(1)
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert len(lines) == 6 and all(argv[0] == "holorm" for argv in lines)
    for argv in lines:
        code, out = run(capsys, *argv[1:])
        assert code == 0, (argv, out)


def test_integral_float_is_an_integer(tmp_path, capsys):
    path = tmp_path / "spec.json"
    outs = []
    for sign in (1, 1.0):
        path.write_text(json.dumps(_edited(_filled_crossing_spec, "sign", sign)))
        outs.append(run(capsys, "rmat", "--N", "2", "--input", str(path)))
    assert outs[0] == outs[1] and outs[0][0] == 0


def test_rmat_builds_each_flattening_once(tmp_path, capsys, monkeypatch):
    # the README crossing: rmat, the zeta output and logdet_braiding share
    # the four region flattenings, built and checked as one batch
    path = tmp_path / "spec.json"
    path.write_text(re.findall(r"```json\n(.*?)```", README.read_text(), re.S)[0])
    made = []
    real = Flattening.__post_init__
    monkeypatch.setattr(Flattening, "__post_init__",
                        lambda f: made.append(f) or real(f))
    code, out = run(capsys, "rmat", "--N", "3", "--input", str(path))
    assert code == 0
    assert len(made) == 1 and np.shape(made[0].zeta0) == (4,)


def test_rmat_reads_every_complex_form(tmp_path, capsys):
    # a plain number and an "a+bj" string are the same complex as [re, im]
    spec = json.loads(re.findall(r"```json\n(.*?)```", README.read_text(), re.S)[0])
    assert spec["regions"]["N"] == [0.05, 0.0]
    assert spec["segments"]["1"]["beta"] == [0.11, 0.02]
    forms = _edited(_edited(spec, "regions", "N", 0.05),
                    "segments", "1", "beta", "0.11 + 0.02j")
    outs = []
    for s in (spec, forms):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(s))
        outs.append(run(capsys, "rmat", "--N", "3", "--input", str(path)))
    assert outs[0][0] == 0 and outs[1] == outs[0]


def test_rmat_malformed_spec(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, out = run(capsys, "rmat", "--N", "2", "--input", str(path))
    assert code == 2


def _edited(spec, *path_and_value):
    """A copy of `spec` (or of what it returns) with the entry at the key
    path set to the value."""
    *path, value = path_and_value
    spec = json.loads(json.dumps(spec() if callable(spec) else spec))
    node = spec
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return spec


@pytest.mark.parametrize("argv, spec", [
    (["rmat"], [1]),
    (["braid"], [1]),
    (["color"], [1]),
    (["rmat"], lambda: _edited(_filled_crossing_spec, "segments", "1", 5)),
    (["selftest", "--scale", "inf"], None),
    (["selftest", "--scale=-inf"], None),
    (["selftest", "--scale", "nan"], None),
    (["selftest", "--scale=-3"], None),
    (["rmat"], lambda: _edited(_filled_crossing_spec, "sign", 1.7)),
    (["rmat"], lambda: _edited(_filled_crossing_spec, "sign", True)),
    (["color"], lambda: _edited(BRAID_SPEC, "width", 3.9)),
    (["braid"], lambda: _edited(BRAID_SPEC, "word", 1, 2.6)),
    (["rmat"], lambda: _edited(_filled_crossing_spec, "segments", "1", "beta", [0, -200])),
    (["braid"], lambda: _edited(BRAID_SPEC, "log", "beta", 0, [0, -200])),
    (["color"], lambda: _edited(BRAID_SPEC, "width", 10 ** 30)),
    (["braid"], lambda: _edited(BRAID_SPEC, "width", 10 ** 30)),
    (["selftest", "--seed", "-1"], None),
    (["color"], lambda: _edited(BRAID_SPEC, "top_colors", 0, "a", [math.nan, 0])),
    (["color"], lambda: _edited(BRAID_SPEC, "top_colors", 1, "b", [0, math.inf])),
    (["rmat"], lambda: _edited(_filled_crossing_spec, "kappa", [math.nan, 0])),
    (["rmat"], lambda: _edited(_filled_crossing_spec, "segments", "1p", "mu",
                               [math.nan, 0])),
    (["rmat"], lambda: _edited(_filled_crossing_spec, "segments", "2", "alpha",
                               [math.nan, 0])),
    (["braid"], lambda: _edited(BRAID_SPEC, "log", "gamma",
                                BRAID_SPEC["log"]["gamma"][:3])),
], ids=["rmat-list", "braid-list", "color-list", "rmat-number-segment",
        "scale-inf", "scale-minus-inf", "scale-nan", "scale-negative",
        "sign-fraction", "sign-bool", "width-fraction", "letter-fraction",
        "rmat-log-overflow", "braid-log-overflow", "color-huge-width",
        "braid-huge-width", "seed-negative", "color-nan", "color-inf",
        "rmat-nan-kappa", "rmat-nan-mu-out", "rmat-nan-alpha", "braid-short-gamma"])
def test_malformed_input_exits_2(argv, spec, tmp_path, capsys):
    # wrong JSON types, integer fields that are not integers (truncating
    # them would evaluate another crossing or braid), logs whose exponential
    # overflows, a width too large for any diagram, non-finite numbers (a
    # NaN passes every "<" and ">" guard), a non-finite or negative trial
    # multiplier and a negative seed are malformed input
    if spec is not None:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec() if callable(spec) else spec))
        argv = argv + ["--input", str(path)]
    code, out = run(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"]


@pytest.mark.parametrize("scale", ["101", "1e300"])
def test_scale_above_the_cap_exits_2_before_any_suite(scale, capsys, monkeypatch):
    # run_all would be asked for int(30 * 1e300) trials and never return
    def no_suite(**kwargs):
        raise AssertionError("a suite started")

    monkeypatch.setattr(cli, "run_all", no_suite)
    code, out = run(capsys, "selftest", "--scale", scale)
    assert code == 2
    assert "--scale" in json.loads(out)["error"]
    # the cap itself is accepted
    monkeypatch.setattr(cli, "run_all", lambda **kwargs: [])
    assert run(capsys, "selftest", "--scale", "100")[0] == 0


BRAID_SPEC = {
    "width": 3,
    "word": [1, 2, 1],
    "top_colors": [
        {"a": [-1.0, 0.0], "b": [1.0, 0.0], "m": [-1.0, 0.0]},
        {"a": [-1.0, 0.0], "b": [-1.0, 0.0], "m": [-1.0, 0.0]},
        {"a": [-1.0, 0.0], "b": [1.0, 0.0], "m": [-1.0, 0.0]},
    ],
    "log": {
        "beta": [[0.0, 0.0], [-0.5, 0.0], [-1.0, 0.0]],
        "gamma": [[0.0, 0.0], [-0.5, 0.0], [-1.0, 0.0], [-1.5, 0.0]],
        "mu": [[-0.5, 0.0], [-0.5, 0.0], [-0.5, 0.0]],
    },
}


def _letter_braid_spec(c):
    """The braid spec of the one-letter word whose crossing is c."""
    def cx(z):
        return [z.real, z.imag]
    tops = [lc.char() for lc in (c.lc1, c.lc2)]
    return {"width": 2, "word": [c.sign],
            "top_colors": [{"a": cx(t.a), "b": cx(t.b), "m": cx(t.m)} for t in tops],
            "log": {"beta": [cx(c.lc1.beta), cx(c.lc2.beta)],
                    "gamma": [cx(c.gamma_n), cx(c.gamma_w), cx(c.gamma_s)],
                    "mu": [cx(c.lc1.mu), cx(c.lc2.mu)]}}


@pytest.mark.parametrize("command", ["color", "braid"])
def test_width_is_checked_before_the_diagram_is_built(command, tmp_path,
                                                      capsys, monkeypatch):
    def no_diagram(word):
        raise AssertionError("build_diagram ran on a width top_colors contradict")

    monkeypatch.setattr(cli, "build_diagram", no_diagram)
    path = tmp_path / "braid.json"
    path.write_text(json.dumps(_edited(BRAID_SPEC, "width", 5)))
    code, out = run(capsys, command, "--N", "2", "--input", str(path))
    assert code == 2
    assert json.loads(out)["error"] == (
        "invalid braid spec: width 5 does not match the 3 top_colors")


@pytest.mark.parametrize("t", [3e-9, 1e-9])
@pytest.mark.parametrize("command", ["rmat", "braid"])
def test_near_pinched_crossing_is_a_domain_failure(command, t, tmp_path, capsys):
    # is_pinched (1e-9 relative) calls this crossing generic, but a
    # dilogarithm pole (t = 3e-9) or the flattening constraint (t = 1e-9)
    # trips while it is evaluated: well-formed input outside the domain
    cfg = RootConfig(12)
    cp = standard_pinched_crossing(cfg, 0.21 + 0.01j, -0.23 + 0.02j,
                                   0.12 - 0.01j, 0.37 + 0.01j)
    c = letter_crossing(cfg, +1, cp.lc1,
                        dataclasses.replace(cp.lc2, beta=cp.lc2.beta + t), cp.gamma_n)
    assert not c.pinched
    spec = _crossing_spec(c) if command == "rmat" else _letter_braid_spec(c)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out = run(capsys, command, "--N", "12", "--input", str(path))
    assert code == 1
    assert json.loads(out)["error"].startswith(
        ("Lambda singular", "flattening constraint violated"))


def test_braid_identity_word(tmp_path, capsys):
    spec = dict(BRAID_SPEC)
    spec = json.loads(json.dumps(BRAID_SPEC))
    spec["word"] = []
    path = tmp_path / "braid.json"
    path.write_text(json.dumps(spec))
    code, out = run(capsys, "braid", "--N", "2", "--input", str(path))
    assert code == 0
    rep = json.loads(out)
    M = np.array([[complex(*v) for v in row] for row in rep["entries"]])
    assert np.abs(M - np.eye(8)).max() < 1e-12


def test_braid_kashaev_r3_words(tmp_path, capsys):
    mats = {}
    for word in ([1, 2, 1], [2, 1, 2]):
        spec = json.loads(json.dumps(BRAID_SPEC))
        spec["word"] = word
        path = tmp_path / "braid.json"
        path.write_text(json.dumps(spec))
        code, out = run(capsys, "braid", "--N", "2", "--input", str(path))
        assert code == 0
        rep = json.loads(out)
        assert rep["pinched_crossings"] == [0, 1, 2]
        mats[tuple(word)] = np.array([[complex(*v) for v in row]
                                      for row in rep["entries"]])
    dev = np.abs(mats[(1, 2, 1)] - mats[(2, 1, 2)]).max()
    assert dev < 1e-10


def test_braid_rejects_top_colors_that_disagree_with_log(tmp_path, capsys):
    path = tmp_path / "braid.json"
    for tops in ([{"a": [0.3, 0.0], "b": [2.0, 0.0], "m": [5.0, 0.0]}] * 3,
                 BRAID_SPEC["top_colors"][:2]):
        spec = json.loads(json.dumps(BRAID_SPEC))
        spec["top_colors"] = tops
        path.write_text(json.dumps(spec))
        code, out = run(capsys, "braid", "--N", "2", "--input", str(path))
        assert code == 2
        assert "top_colors" in json.loads(out)["error"]


def test_braid_matrix_free_and_determinism(tmp_path, capsys, monkeypatch):
    def no_state_sum(*args):
        raise AssertionError("--matrix-free must not compute the state sum")

    monkeypatch.setattr(cli, "jfunc_eval", no_state_sum)
    spec = json.loads(json.dumps(BRAID_SPEC))
    path = tmp_path / "braid.json"
    path.write_text(json.dumps(spec))
    code1, out1 = run(capsys, "braid", "--N", "2", "--input", str(path),
                      "--matrix-free")
    code2, out2 = run(capsys, "braid", "--N", "2", "--input", str(path),
                      "--matrix-free")
    assert code1 == code2 == 0
    assert out1 == out2  # identical spec + seed -> identical bytes
    rep = json.loads(out1)
    assert "entries" not in rep
    assert "log_longitudes" in rep


def test_braid_out_of_memory_exits_1(tmp_path, capsys, monkeypatch):
    # a dense state sum that cannot be allocated is a JSON failure, not a
    # traceback; numpy's message is passed on (nothing is allocated here)
    msg = "Unable to allocate 1.00 TiB for an array with shape (262144, 262144)"

    def no_memory(*args):
        raise MemoryError(msg)

    monkeypatch.setattr(cli, "jfunc_eval", no_memory)
    path = tmp_path / "braid.json"
    path.write_text(json.dumps(BRAID_SPEC))
    code, out = run(capsys, "braid", "--N", "2", "--input", str(path))
    assert code == 1
    assert json.loads(out) == {"error": f"out of memory: {msg}"}


def test_color_command(tmp_path, capsys):
    spec = json.loads(json.dumps(BRAID_SPEC))
    path = tmp_path / "braid.json"
    path.write_text(json.dumps(spec))
    code, out = run(capsys, "color", "--N", "2", "--input", str(path))
    assert code == 0
    rep = json.loads(out)
    assert len(rep["segments"]) == 9
    assert rep["pinched_crossings"] == [0, 1, 2]


def test_color_inadmissible(tmp_path, capsys):
    spec = json.loads(json.dumps(BRAID_SPEC))
    spec["width"] = 2
    spec["top_colors"] = [
        {"a": [2.0, 0.0], "b": [1.0, 0.0], "m": [1.0, 0.0]},
        {"a": [0.5, 0.0], "b": [1.0, 0.0], "m": [1.0, 0.0]},
    ]
    path = tmp_path / "braid.json"
    for letter in (1, -1):
        spec["word"] = [letter]
        path.write_text(json.dumps(spec))
        code, out = run(capsys, "color", "--N", "2", "--input", str(path))
        assert code == 1
        rep = json.loads(out)
        assert rep["crossing"] == 0
        assert rep["error"] == ("inadmissible pair at crossing 0 "
                                f"(letter {letter}, positions 1,2)")
