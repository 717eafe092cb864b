"""CLI: JSON round trips, exit codes, canned matrices, README examples."""

import cmath
import dataclasses
import json
import pathlib
import re

import numpy as np

from holorm import cli, selftest
from holorm.characters import LogWeylChar
from holorm.cli import main
from holorm.qdilog import RootConfig
from holorm.sampling import letter_crossing, random_crossing

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
                            "samples", "passed"}
        assert row["passed"] and row["samples"] > 0
        assert row["max_deviation"] <= row["tol"]


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
    assert rows[0]["samples"] == 0


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


def test_rmat_malformed_spec(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, out = run(capsys, "rmat", "--N", "2", "--input", str(path))
    assert code == 2


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
