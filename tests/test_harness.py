"""Configuration, sampling, reporting and the command-line interface."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from qab import coalgebra, kmatrix, smatrix
from qab.coalgebra import Leg
from qab.harness import (
    ConfigError,
    RunConfig,
    _point_rng,
    config_echo,
    emit_report,
    load_config,
    main,
    run_suite,
    sample_kinematics,
)
from qab.kinematics import PoleError, shortening_residual
from qab.smatrix import NULL_GAP, VerificationError, spectral_gap


def test_defaults_applied():
    cfg = load_config(data={})
    assert cfg.alpha == 1j
    assert cfg.alpha_tilde == 1
    assert cfg.gamma == 1 and cfg.gamma_bar == 1
    assert cfg.schema_version == 1


def test_complex_pair_parsing():
    cfg = load_config(data={"q": [1.05, 0.0], "g": 0.5, "alpha": [0.0, 1.0]})
    assert cfg.q == 1.05 + 0j
    assert cfg.g == 0.5 + 0j
    assert cfg.alpha == 1j


def test_malformed_field_names_the_field():
    with pytest.raises(ConfigError, match="alpha_tilde"):
        load_config(data={"alpha_tilde": "big"})
    with pytest.raises(ConfigError, match=r"tolerances\.ybe"):
        load_config(data={"tolerances": {"ybe": 1e-8}})
    with pytest.raises(ConfigError, match=r"tolerances\.closed_form"):
        load_config(data={"tolerances": {"closed_form": 1e-12}})
    with pytest.raises(ConfigError, match="M"):
        load_config(data={"M": [0]})
    with pytest.raises(ConfigError, match="precision"):
        load_config(data={"precision": "quad"})
    with pytest.raises(ConfigError, match="schema_version"):
        load_config(data={"schema_version": 99})


@pytest.mark.parametrize(
    "data",
    [{"M": [True]}, {"samples": True}, {"seed": False}, {"g": True},
     {"alpha": [True, 0.0]}, {"tolerances": {"algebra": True}}, {"schema_version": True}],
    ids=["M", "samples", "seed", "g", "alpha-pair", "tolerance", "schema_version"],
)
def test_json_booleans_are_not_numbers(data):
    with pytest.raises(ConfigError, match=next(iter(data))):
        load_config(data=data)


def test_config_roundtrip(tmp_path):
    cfg = load_config(data={"q": [1.08, 0.0], "M": [1, 2], "seed": 13})
    echoed = config_echo(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(echoed))
    cfg2 = load_config(str(path))
    assert config_echo(cfg2) == echoed


def test_sampled_point_is_on_shell():
    cfg = RunConfig()
    rng = np.random.default_rng(0)
    kin = sample_kinematics(2, cfg.params(), rng)
    assert shortening_residual(kin.x_plus, kin.x_minus, 2, cfg.params()) < 1e-12
    assert 0.5 <= abs(kin.x_minus) <= 2.0


def test_sampling_deterministic():
    cfg = RunConfig()
    k1 = sample_kinematics(1, cfg.params(), np.random.default_rng([7, 3]))
    k2 = sample_kinematics(1, cfg.params(), np.random.default_rng([7, 3]))
    assert k1 == k2


def test_sampled_points_generically_unique_smatrix():
    # batch statistic: sampled pairs give a one-dimensional null space, a
    # spectral gap sigma_1 / sigma_2 below NULL_GAP
    cfg = RunConfig()
    params = cfg.params()
    rng = np.random.default_rng(42)
    good = 0
    n = 12
    for _ in range(n):
        kin1 = sample_kinematics(2, params, rng)
        kin2 = sample_kinematics(1, params, rng)
        solution = smatrix.commutant_nullspace(kin1, kin2, params)
        good += spectral_gap(solution[1]) <= NULL_GAP
    assert good >= int(0.95 * n)


def test_reports_deterministic():
    cfg = load_config(data={"M": [1], "samples": 1, "seed": 5})
    r1 = run_suite("rep-check", cfg)
    r2 = run_suite("rep-check", cfg)
    r1.pop("wall_time_s")
    r2.pop("wall_time_s")
    assert r1 == r2


def test_report_json_roundtrip(tmp_path):
    cfg = load_config(data={"M": [1], "samples": 1})
    report = run_suite("unitarity", cfg)
    path = tmp_path / "report.json"
    emit_report(report, "json", str(path))
    back = json.loads(path.read_text())
    assert back["checks"] == report["checks"]
    assert back["seed"] == report["seed"]


def test_csv_summary_rows_and_precision(tmp_path):
    cfg = load_config(data={"M": [1, 2], "samples": 1})
    report = run_suite("unitarity", cfg)
    text = emit_report(report, "csv-summary")
    lines = text.strip().splitlines()
    assert len(lines) == 1 + len(report["checks"])
    # residuals keep >= 15 significant digits through the round trip
    for line, check in zip(lines[1:], report["checks"]):
        residual_text = line.split(",")[3]
        assert float(residual_text) == check["residual"]


def test_unknown_format_rejected():
    cfg = load_config(data={"M": [1], "samples": 1})
    report = run_suite("unitarity", cfg)
    with pytest.raises(ConfigError):
        emit_report(report, "xml")


def test_unknown_suite_rejected():
    with pytest.raises(ConfigError):
        run_suite("frobnicate", RunConfig())


def test_every_check_carries_threshold():
    cfg = load_config(data={"M": [1], "samples": 1})
    report = run_suite("smatrix", cfg)
    for check in report["checks"]:
        assert check["threshold"] > 0
        assert "residual" in check and "passed" in check


def test_cli_pass_run(tmp_path):
    out = tmp_path / "r.json"
    code = main(["unitarity", "--M", "1", "--seed", "3", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["seed"] == 3


def test_cli_unknown_suite_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "qab.harness", "nosuchsuite"],
        capture_output=True,
    )
    assert proc.returncode == 2


def test_cli_bad_m_list_exits_2():
    assert main(["unitarity", "--M", "1,zebra"]) == 2
    assert main(["unitarity", "--M", "0"]) == 2


def test_cli_negative_seed_exits_2(tmp_path):
    # the CLI flags go through the same validation as a config file
    assert main(["unitarity", "--M", "1", "--seed", "-1"]) == 2
    assert main(["unitarity", "--M", "1", "--samples", "-1"]) == 2
    assert main(["rep-check", "--M", "1", "--samples", "0"]) == 2
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": -1}))
    assert main(["unitarity", "--config", str(path), "--M", "1"]) == 2


def test_cli_boolean_config_exits_2(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"M": [True]}))
    assert main(["unitarity", "--config", str(path)]) == 2


def test_cli_overrides_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"M": [2], "seed": 5, "samples": 4}))
    out = tmp_path / "r.json"
    assert main(["unitarity", "--config", str(path), "--M", "1", "--seed", "3",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["config"]["M"] == [1] and report["seed"] == 3
    assert report["config"]["samples"] == 4


def test_cli_csv_output(capsys):
    code = main(["unitarity", "--M", "1", "--format", "csv-summary"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "suite,check,M,residual,threshold,pass"


def test_cli_high_precision(capsys):
    code = main(["rep-check", "--M", "1", "--samples", "1",
                 "--precision", "high:128", "--format", "csv-summary"])
    assert code == 0
    out = capsys.readouterr().out
    residual = float(out.splitlines()[1].split(",")[3])
    assert residual < 1e-30


@pytest.mark.parametrize("suite", ["unitarity", "all"])
def test_cli_high_precision_rejected_outside_rep_check(suite):
    # only rep-check evaluates in mpmath; the others would run in double
    assert main([suite, "--M", "1", "--precision", "high:106"]) == 2


@pytest.mark.parametrize("q", [1.0, -1.0])
def test_cli_q_without_deformation_exits_2(q, tmp_path):
    # q - 1/q = 0 divides by zero in the kinematics: a config error
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"q": [q, 0.0]}))
    assert main(["unitarity", "--config", str(path), "--M", "1"]) == 2


@pytest.mark.parametrize(
    "q, argv",
    [
        # q = i: [2]_q vanishes in the representation labels
        ([0.0, 1.0], ["unitarity"]),
        # q = e^{2 pi i/3}: the M = 3 intertwiner is not unique
        ([np.cos(2 * np.pi / 3), np.sin(2 * np.pi / 3)], ["smatrix", "--M", "3"]),
    ],
    ids=["fourth-root", "third-root"],
)
def test_cli_q_root_of_unity_exits_2(q, argv, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"q": q}))
    assert main(argv + ["--config", str(path)]) == 2


@pytest.mark.parametrize("name", ["g", "alpha", "alpha_tilde"])
def test_cli_zero_coupling_exits_2(name, tmp_path):
    # the kinematics and the representation labels divide by these couplings
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({name: 0}))
    assert main(["kmatrix", "--config", str(path), "--M", "1,2"]) == 2


@pytest.mark.parametrize(
    "argv, wanted",
    [(["ybe", "--M", "3"], [[3, 3, 3]]),
     (["bybe", "--M", "1,3"], [[1, 3], [3, 1], [3, 3]]),
     (["coalgebra", "--M", "3"], [[3, 3]])],
    ids=["ybe-3", "bybe-1,3", "coalgebra-3"],
)
def test_cli_composite_suites_run_m_3(argv, wanted, tmp_path):
    # coalgebra, ybe and bybe run the requested M > 2 and report its rows
    out = tmp_path / "r.json"
    assert main(argv + ["--seed", "7", "--out", str(out)]) == 0
    seen = [c["M"] for c in json.loads(out.read_text())["checks"]]
    assert [M for M in wanted if M not in seen] == []


def test_ybe_runs_every_triple_it_is_asked_for():
    # the suite runs all eight triples of M = (1, 2); ``all`` keeps its
    # first six (ALL_SEED_7_ROWS)
    rows = run_suite("ybe", load_config(data={"M": [1, 2], "seed": 3}))["checks"]
    assert [r["M"] for r in rows] == [[a, b, c] for a in (1, 2) for b in (1, 2) for c in (1, 2)]
    assert all(r["passed"] for r in rows)


def test_ybe_report_is_reproducible():
    # the same seed gives a byte-identical ybe report, from cold S caches and
    # from warm ones; each row's probes are drawn from its point's rng,
    # after its kinematics
    cfg = load_config(data={"M": [1, 2], "seed": 3})
    for cache in (smatrix.adapted_bases, smatrix.reduced_pieces, smatrix.commutant_layout):
        cache.cache_clear()
    texts = []
    for _ in range(2):
        report = run_suite("ybe", cfg)
        del report["wall_time_s"]
        texts.append(emit_report(report))
    assert texts[0] == texts[1]
    params = cfg.params()
    for idx, row in enumerate(json.loads(texts[0])["checks"]):
        rng = _point_rng(3, 13000 + idx)
        kins = [sample_kinematics(M, params, rng) for M in row["M"]]
        assert smatrix.ybe_residual(*kins, params, rng) == row["residual"]


def test_composite_s_solves_build_no_leg(monkeypatch):
    # ybe and bybe solve every S from the kinematics alone: with Leg.__init__
    # and all_generators refused, and every S cache cold, both still pass
    from qab import representation

    def refuse(*args, **kwargs):
        raise AssertionError("a Leg or the generator matrices built on the S path")

    build = representation.all_generators
    for name, mod in list(sys.modules.items()):
        if (name == "qab" or name.startswith("qab.")) and vars(mod).get("all_generators") is build:
            monkeypatch.setattr(mod, "all_generators", refuse)
    monkeypatch.setattr(Leg, "__init__", refuse)
    for cache in (smatrix.adapted_bases, smatrix.reduced_pieces, smatrix.commutant_layout):
        cache.cache_clear()
    for suite in ("ybe", "bybe"):
        assert run_suite(suite, load_config(data={"M": [1, 2], "seed": 3}))["passed"], suite


def test_cli_closed_form_disagreement_exits_1(tmp_path):
    # at q = 1.5, M = 20 the closed-form K and its explicit x-form part by
    # more than TOL_ALGEBRA: a failed row that carries the reason, not a
    # usage error and not an abort without a report
    path, out = tmp_path / "cfg.json", tmp_path / "report.json"
    path.write_text(json.dumps({"q": 1.5}))
    assert main(["unitarity", "--config", str(path), "--M", "20", "--seed", "1",
                 "--out", str(out)]) == 1
    (row,) = json.loads(out.read_text())["checks"]
    assert row["check"] == "K(p)K(-p)=Id" and not row["passed"]
    assert "A coefficients disagree with explicit form" in row["error"]
    assert math.isfinite(row["residual"]) and row["residual"] > row["threshold"]


@pytest.mark.parametrize("suite,check,M,target", [
    ("ybe", "yang-baxter", [1, 1, 1], (smatrix, "ybe_residual")),
    ("bybe", "reflection-equation", [1, 1], (kmatrix, "reflection_smatrices")),
])
def test_composite_verification_error_is_a_failed_row(suite, check, M, target, monkeypatch,
                                                     tmp_path):
    # a point whose S cannot be solved fails its one row, which carries the
    # reason, and the other points keep theirs; qab exits 1 with the report
    calls = []

    def fail_first(*args):
        calls.append(args)
        if len(calls) == 1:
            raise VerificationError("no spectral gap: sigma_1 / sigma_2 = 0.5")
        return real(*args)

    real = getattr(*target)
    monkeypatch.setattr(*target, fail_first)
    out = tmp_path / "report.json"
    assert main([suite, "--M", "1,2", "--seed", "7", "--out", str(out)]) == 1
    rows = json.loads(out.read_text())["checks"]
    assert len(rows) > 1 and all(r["passed"] for r in rows[1:])
    assert (rows[0]["check"], rows[0]["M"], rows[0]["passed"]) == (check, M, False)
    assert rows[0]["residual"] == 1.0 and "no spectral gap" in rows[0]["error"]


@pytest.mark.parametrize("suite,check,M,target", [
    ("ybe", "yang-baxter", [1, 1, 1], (smatrix, "layout_nullspace")),
    ("bybe", "reflection-equation", [1, 1], (smatrix, "layout_nullspace")),
    ("unitarity", "K(p)K(-p)=Id", [1], (kmatrix, "c_coefficients")),
    ("smatrix", "null-dimension", [1, 1], (smatrix, "layout_nullspace")),
    ("kmatrix", "null-dimension", [1], (smatrix, "weight_nullspace")),
    ("coalgebra", "coproduct-homomorphism", [1, 1], (coalgebra, "hom_check")),
])
@pytest.mark.parametrize("error", [
    PoleError("C_1 pole: ratio denominator ~ 0"), np.linalg.LinAlgError("SVD did not converge"),
    VerificationError("[0, 0] matrix element vanishes; resample"),
], ids=["pole", "linalg", "verification"])
def test_solver_error_is_a_failed_row(suite, check, M, target, error, monkeypatch, tmp_path):
    # a pole, a failed factorisation or an unverifiable S or K at the first
    # point fails that point's one row with the exception's type and
    # message; the other rows pass
    calls = []

    def fail_first(*args):
        calls.append(args)
        if len(calls) == 1:
            raise error
        return real(*args)

    real = getattr(*target)
    monkeypatch.setattr(*target, fail_first)
    out = tmp_path / "report.json"
    assert main([suite, "--M", "1,2", "--seed", "7", "--out", str(out)]) == 1
    rows = json.loads(out.read_text())["checks"]
    assert len(rows) > 1 and all(r["passed"] for r in rows[1:])
    assert (rows[0]["check"], rows[0]["M"], rows[0]["passed"]) == (check, M, False)
    assert rows[0]["residual"] == 1.0
    assert rows[0]["error"] == f"{type(error).__name__}: {error}"


def test_s_path_builds_no_dense_two_leg_operator(monkeypatch):
    # the S solves, their bases and the intertwining row act on coproduct
    # terms: with every dense Kronecker product refused, the suites that
    # solve S still pass
    def refuse(*args):
        raise AssertionError("dense two-leg operator built on the S path")

    monkeypatch.setattr(coalgebra, "graded_tensor", refuse)
    monkeypatch.setattr(coalgebra, "_kron", refuse)
    smatrix.adapted_bases.cache_clear()
    for suite in ("smatrix", "ybe", "bybe"):
        assert run_suite(suite, load_config(data={"M": [1, 2], "seed": 3}))["passed"], suite


def test_kmatrix_at_m22_and_q15_passes():
    # the twisted charges grow like q^M; on one scale per generator the
    # K system keeps its gap up to M = 22 at q = 1.5
    report = run_suite("kmatrix", load_config(data={"q": 1.5, "M": [22], "seed": 7}))
    assert report["passed"] and len(report["checks"]) == 4


def test_gapless_kmatrix_point_reports_its_null_dimension_row(tmp_path):
    # at q = 2, M = 16 the K system's sigma_1 / sigma_2 is 1.25e-6, above
    # NULL_GAP: the point reports its failed null-dimension row alone, and
    # qab exits 1 with the report written
    path, out = tmp_path / "cfg.json", tmp_path / "report.json"
    path.write_text(json.dumps({"q": 2}))
    assert main(["kmatrix", "--config", str(path), "--M", "16", "--seed", "7",
                 "--out", str(out)]) == 1
    rows = json.loads(out.read_text())["checks"]
    assert [(r["check"], r["passed"]) for r in rows] == [("null-dimension", False)]
    assert NULL_GAP < rows[0]["residual"] < 1e-5


def test_cli_internal_error_exits_3(monkeypatch, capsys):
    from qab import harness

    def broken(cfg):
        raise RuntimeError("broken suite")

    monkeypatch.setitem(harness._SUITE_FNS, "unitarity", broken)
    assert main(["unitarity", "--M", "1"]) == harness.EXIT_INTERNAL == 3
    assert "internal error: RuntimeError: broken suite" in capsys.readouterr().err


def test_python_m_qab_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "qab", "unitarity", "--M", "1", "--format", "csv-summary"],
        capture_output=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith(b"suite,check,M,residual,threshold,pass")


def test_bybe_solves_each_smatrix_once_per_point(monkeypatch):
    from qab import kmatrix

    calls = []
    solve = kmatrix.commutant_nullspace

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(kmatrix, "commutant_nullspace", counted)
    run_suite("bybe", RunConfig())
    # four (M1, M2) pairs at M = (1, 2), four S matrices per pair; the
    # trivial-C_k control reuses the reflection equation's matrices
    assert len(calls) == 16
    # the four solves of a pair share its two points and their reflections,
    # each reflected once
    for i in range(0, 16, 4):
        assert len({id(kin) for args in calls[i:i + 4] for kin in args[:2]}) == 4


def test_all_builds_each_points_generators_once(monkeypatch):
    # every check takes the Legs its caller built, so ``qab all --seed 7``
    # builds the generator matrices once per distinct (kinematics, dtype),
    # counted through every module that imports all_generators; the S
    # solves of ybe and bybe build none
    from qab import representation

    built = []
    build = representation.all_generators

    def counted(kin, params, space, dtype=complex):
        built.append((kin, dtype))
        return build(kin, params, space, dtype)

    for name, mod in list(sys.modules.items()):
        if (name == "qab" or name.startswith("qab.")) and vars(mod).get("all_generators") is build:
            monkeypatch.setattr(mod, "all_generators", counted)
    run_suite("all", load_config(data={"seed": 7}))
    assert len(built) == len(set(built)) == 33


def test_limits_honour_config_alpha():
    # the Yangian probe rescales by alpha * alpha_tilde and builds its
    # charges with the configured couplings, so its differences move with them
    def yangian_diffs(extra):
        report = run_suite("limits", load_config(data={"M": [1, 2], "seed": 1, **extra}))
        return {
            c["check"]: c["diffs"] for c in report["checks"]
            if c["check"].startswith("yangian-cauchy")
        }

    default = yangian_diffs({})
    other = yangian_diffs({"alpha": [2, 0.5], "alpha_tilde": [0.7, 0.2]})
    assert default.keys() == other.keys() and len(default) == 8
    assert any(default[name] != other[name] for name in default)


def test_high_precision_rep_check_leaves_mpmath_precision():
    import mpmath

    before = mpmath.mp.prec
    cfg = load_config(data={"M": [1], "samples": 1, "precision": "high:128"})
    assert run_suite("rep-check", cfg)["passed"]
    assert mpmath.mp.prec == before == 53


def test_solver_rows_carry_the_certificate():
    rows = run_suite("smatrix", load_config(data={"M": [2], "samples": 1}))["checks"]
    rows += run_suite("kmatrix", load_config(data={"M": [3], "samples": 1}))["checks"]
    solver_rows = [r for r in rows if r["check"] in
                   ("null-dimension", "affine-ablation", "twisted-ablation")]
    assert len(solver_rows) == 3
    for row in solver_rows:
        assert np.isfinite([row["sigma_1_over_max"], row["sigma_2_over_max"]]).all()
        rows_, unknowns = row["shape"]
        assert rows_ > unknowns > 0
    null_row = solver_rows[0]
    assert null_row["sigma_1_over_max"] < 1e-12 < null_row["sigma_2_over_max"]
    # the null-dimension row is gated on the gap sigma_1 / sigma_2
    gap = null_row["sigma_1_over_max"] / null_row["sigma_2_over_max"]
    assert null_row["residual"] == pytest.approx(gap, rel=1e-12)
    assert null_row["residual"] < 1e-12 and null_row["threshold"] == NULL_GAP
    for row in solver_rows[:2]:
        assert 1 <= row["cond_V"] < 10 and 1 <= row["cond_W"] < 10


def test_null_dimension_row_fails_without_a_gap(monkeypatch):
    # a second singular value at the floor (sigma_1 / sigma_2 ~ 1) fails the
    # row, and the point reports that row alone instead of aborting the suite
    solve = smatrix.commutant_nullspace

    def flat_gap(kin1, kin2, params, generators=smatrix.DEFAULT_GENERATORS):
        S, sv, shape = solve(kin1, kin2, params, generators)
        sv = sv.copy()
        sv[-2] = 2 * sv[-1]
        return S, sv, shape

    monkeypatch.setattr(smatrix, "commutant_nullspace", flat_gap)
    report = run_suite("smatrix", load_config(data={"M": [1], "samples": 1}))
    row = next(r for r in report["checks"] if r["check"] == "null-dimension")
    assert row["residual"] == 0.5 and not row["passed"] and not report["passed"]
    assert [r["check"] for r in report["checks"]] == ["null-dimension"]


def _coalgebra_rows(M1, M2):
    return [
        ("coalgebra", "coproduct-homomorphism", [M1, M2]),
        ("coalgebra", "coideal-expansion", [M1, M2]),
        ("coalgebra", "twisted-F1-raising", [M1]),
        ("coalgebra", "twisted-central-invariance", [M1]),
    ]


#: The (suite, check, M) key of every row of ``qab all --seed 7``, in order.
ALL_SEED_7_ROWS = [
    *[("rep-check", f"defining-relations[s{s}]", [M]) for M in (1, 2) for s in range(3)],
    *_coalgebra_rows(1, 1), *_coalgebra_rows(1, 2),
    *_coalgebra_rows(2, 1), *_coalgebra_rows(2, 2),
    ("smatrix", "null-dimension", [1, 1]), ("smatrix", "intertwining", [1, 1]),
    ("smatrix", "null-dimension", [1, 2]), ("smatrix", "intertwining", [1, 2]),
    ("smatrix", "null-dimension", [2, 1]), ("smatrix", "intertwining", [2, 1]),
    ("smatrix", "null-dimension", [2, 2]), ("smatrix", "intertwining", [2, 2]),
    ("smatrix", "affine-ablation", [2, 2]),
    ("ybe", "yang-baxter", [1, 1, 1]), ("ybe", "yang-baxter", [1, 1, 2]),
    ("ybe", "yang-baxter", [1, 2, 1]), ("ybe", "yang-baxter", [1, 2, 2]),
    ("ybe", "yang-baxter", [2, 1, 1]), ("ybe", "yang-baxter", [2, 1, 2]),
    ("kmatrix", "closed-vs-intertwiner", [1]), ("kmatrix", "invariance", [1]),
    ("kmatrix", "closed-vs-intertwiner", [2]), ("kmatrix", "invariance", [2]),
    ("kmatrix", "twisted-ablation", [2]), ("kmatrix", "ck-covariance", [2]),
    ("bybe", "reflection-equation", [1, 1]),
    ("bybe", "reflection-equation", [1, 2]), ("bybe", "trivial-Ck-control", [1, 2]),
    ("bybe", "reflection-equation", [2, 1]), ("bybe", "trivial-Ck-control", [2, 1]),
    ("bybe", "reflection-equation", [2, 2]), ("bybe", "trivial-Ck-control", [2, 2]),
    ("unitarity", "K(p)K(-p)=Id", [1]), ("unitarity", "K(p)K(-p)=Id", [2]),
    ("limits", "rational-coefficients[eps=0.001]", [2]),
    ("limits", "rational-coefficients[eps=0.0001]", [2]),
    ("limits", "rational-convergence-rate", [2]),
    ("limits", "fundamental-A1/A0", [1]),
    *[("limits", f"yangian-cauchy[{name}]", [1])
      for name in ("Et321", "Ft321", "Et21", "Ft21", "Et1", "Ft1", "Ct2", "Ct3")],
]


def test_all_at_seed_7_keeps_its_64_rows_and_passes():
    rows = run_suite("all", load_config(data={"seed": 7}))["checks"]
    assert [(r["suite"], r["check"], r["M"]) for r in rows] == ALL_SEED_7_ROWS
    assert len(rows) == 64
    assert [r for r in rows if not r["passed"]] == []
