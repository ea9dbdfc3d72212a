"""CLI, configuration, kinematics sampling and suite orchestration.

Each suite runs a batch of randomly sampled kinematic points through one
verification family (representation relations, intertwiners, Yang-Baxter,
boundary checks, limits) and produces a machine-readable report in which
every residual is paired with the tolerance it was judged against.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
import traceback
from dataclasses import dataclass, field, fields, asdict, replace
from itertools import product

import numpy as np

from . import __version__, numerics as nm
from . import coalgebra, kmatrix, smatrix
from .coalgebra import Leg, coproduct_map
from .kinematics import (
    KinematicsError,
    ModelParams,
    PoleError,
    derive_couplings,
    on_shell,
    reflect_kinematics,
)
from .representation import GENERATORS, build_basis, verify_algebra
from .smatrix import NULL_GAP, VerificationError, spectral_gap

SCHEMA_VERSION = 1

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

#: The couplings a config may set, as named in ModelParams.
COUPLINGS = tuple(f.name for f in fields(ModelParams))

#: Default tolerance of each tier a config may override.
TOL_TIERS = {
    "algebra": nm.TOL_ALGEBRA,
    "intertwiner": nm.TOL_INTERTWINER,
    "composite": nm.TOL_COMPOSITE,
}


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


@dataclass
class RunConfig:
    """Validated run parameters with defaults applied."""

    q: complex = 1.1 + 0j
    g: complex = 0.4 + 0j
    alpha: complex = 1j
    alpha_tilde: complex = 1.0 + 0j
    gamma: complex = 1.0 + 0j
    gamma_bar: complex = 1.0 + 0j
    M: tuple = (1, 2)
    samples: int = 3
    seed: int = 7
    precision: str = "double"
    tolerances: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def params(self) -> ModelParams:
        return ModelParams(**{name: getattr(self, name) for name in COUPLINGS})

    def tol(self, tier: str) -> float:
        return float(self.tolerances.get(tier, TOL_TIERS[tier]))


def _is_number(value, kinds=(int, float)) -> bool:
    """JSON number of the given kinds; JSON true/false are not numbers."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def _parse_complex(value, where: str) -> complex:
    if _is_number(value):
        return complex(value)
    if (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(_is_number(v) for v in value)
    ):
        return complex(value[0], value[1])
    raise ConfigError(f"{where}: expected a number or [re, im] pair, got {value!r}")


def _read_config(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    return data


def load_config(path: str | None = None, data: dict | None = None) -> RunConfig:
    """Read a JSON config, applying defaults and validating each field."""
    if data is None:
        data = _read_config(path)
    elif not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    cfg = RunConfig()
    out = {}
    for name in COUPLINGS:
        if name in data:
            out[name] = _parse_complex(data[name], name)
    q = out.get("q", cfg.q)
    if q == 0 or q - 1 / q == 0:
        raise ConfigError(f"q: q - 1/q must be nonzero, got q = {q}")
    for name in ("g", "alpha", "alpha_tilde"):
        if out.get(name) == 0:
            raise ConfigError(f"{name}: must be nonzero (the model divides by it)")
    if "M" in data:
        M = data["M"]
        if not (isinstance(M, list) and M and all(_is_number(m, int) and m >= 1 for m in M)):
            raise ConfigError("M: expected a non-empty list of positive integers")
        out["M"] = tuple(M)
    for name, least in (("samples", 1), ("seed", 0)):
        if name in data:
            if not _is_number(data[name], int) or data[name] < least:
                raise ConfigError(f"{name}: expected an integer >= {least}")
            out[name] = data[name]
    if "precision" in data:
        text = data["precision"]
        if text != "double":
            bits = text[5:] if isinstance(text, str) and text.startswith("high:") else ""
            if not bits.isdecimal():
                raise ConfigError(
                    f"precision: expected 'double' or 'high:<bits>', got {text!r}"
                )
            if int(bits) < 64:
                raise ConfigError("precision: high-precision mantissa must be >= 64 bits")
        out["precision"] = text
    if "tolerances" in data:
        tols = data["tolerances"]
        if not isinstance(tols, dict):
            raise ConfigError("tolerances: expected an object")
        for key, val in tols.items():
            if key not in TOL_TIERS:
                raise ConfigError(f"tolerances.{key}: unknown tier")
            if not _is_number(val) or val <= 0:
                raise ConfigError(f"tolerances.{key}: must be a positive number")
        out["tolerances"] = dict(tols)
    version = data.get("schema_version", SCHEMA_VERSION)
    if not _is_number(version, int) or version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version: expected {SCHEMA_VERSION}, got {version!r}")
    for key, val in out.items():
        setattr(cfg, key, val)
    try:
        cfg.params().check_not_root_of_unity(max(cfg.M))
    except KinematicsError as exc:
        raise ConfigError(f"q: {exc}") from None
    return cfg


def config_echo(cfg: RunConfig) -> dict:
    """JSON-safe copy of the config, complex values as [re, im]."""
    d = asdict(cfg)
    for name in COUPLINGS:
        d[name] = [d[name].real, d[name].imag]
    d["M"] = list(d["M"])
    return d


#: Draws sample_kinematics makes before it gives up.
_SAMPLE_TRIES = 50


def sample_kinematics(M: int, params: ModelParams, rng):
    """One generic kinematic point: x- uniform on the 0.5 <= |x| <= 2 annulus
    away from the reflection-map poles, x+ solved from shortening."""
    xi, _ = derive_couplings(params.q, params.g)
    for _ in range(_SAMPLE_TRIES):
        r = np.sqrt(rng.uniform(0.25, 4.0))
        phi = rng.uniform(0.0, 2 * np.pi)
        xm = r * np.exp(1j * phi)
        try:
            kin = on_shell(M, xm, params)
        except KinematicsError:
            continue
        xp = kin.x_plus
        if any(min(abs(x + xi), abs(xi * x + 1), abs(x)) < 1e-3 for x in (xp, xm)):
            continue
        if abs(xp - xm) < 1e-3:
            continue
        # keep C_k coefficients away from their poles
        if any(
            abs(params.q**M - params.q ** (2 * n) * kin.z) < 1e-3
            or abs(params.q**M - params.q ** (2 * n) / kin.z) < 1e-3
            for n in range(1, M + 1)
        ):
            continue
        return kin
    raise ConfigError(f"sampling exhausted after {_SAMPLE_TRIES} tries (M={M})")


def _point_rng(seed: int, index: int):
    return np.random.default_rng([seed, index])


def _check(suite, name, M, residual, threshold, invert=False, extra=None):
    residual = float(residual)
    passed = residual > threshold if invert else residual <= threshold
    row = {
        "suite": suite,
        "check": name,
        "M": list(M) if isinstance(M, (tuple, list)) else [M],
        "residual": residual,
        "threshold": float(threshold),
        "passed": bool(passed),
    }
    if invert:
        row["expected"] = "above-threshold"
    if extra:
        row.update(extra)
    return row


def _guarded(suite, name, tol, check):
    """``check`` with a VerificationError, PoleError or LinAlgError at its
    point turned into the point's one failed row ``name``, at relative
    residual 1, whose ``error`` field carries the exception's type and message."""

    def guarded(params, *kins, **kwargs):
        try:
            return check(params, *kins, **kwargs)
        except (VerificationError, PoleError, np.linalg.LinAlgError) as exc:
            Ms = tuple(kin.M for kin in kins)
            error = f"{type(exc).__name__}: {exc}"
            return [_check(suite, name, Ms, 1.0, tol, extra={"error": error})]

    return guarded


def _map_points(fn, jobs):
    """Run independent jobs (points, or all points of one M) serially, in order.

    No thread pool: on top of multithreaded BLAS it oversubscribes the cores,
    and in the pure-Python suites its threads only contend for the GIL; on 2
    cores it cost both wall time and memory.
    """
    return [fn(job) for job in jobs]


def _mp_params(params: ModelParams) -> ModelParams:
    import mpmath

    return ModelParams(**{name: mpmath.mpc(getattr(params, name)) for name in COUPLINGS})


def suite_rep_check(cfg: RunConfig):
    params = cfg.params()
    high = cfg.precision.startswith("high:")
    if high:
        import mpmath

        params = _mp_params(params)
    tol = cfg.tol("algebra")

    def one(M):
        # every sample of one M in one verify_algebra pass, each drawn as alone
        kins = [sample_kinematics(M, cfg.params(), _point_rng(cfg.seed, M * 1000 + s))
                for s in range(cfg.samples)]
        if high:
            # re-solve x+ at working precision so shortening holds exactly
            kins = [on_shell(M, mpmath.mpc(k.x_minus), params, near=k.x_plus) for k in kins]
        rows = []
        for s, res in enumerate(verify_algebra(
                kins, params, build_basis(M), dtype=object if high else complex)):
            worst = max(res, key=res.get)
            rows.append(_check("rep-check", f"defining-relations[s{s}]", M, res[worst], tol,
                               extra={"worst_relation": worst}))
        return rows

    if not high:
        return [row for rows in _map_points(one, cfg.M) for row in rows]
    # the working precision holds inside this suite only, not process-wide
    with mpmath.workprec(int(cfg.precision.split(":")[1])):
        return [row for rows in _map_points(one, cfg.M) for row in rows]


def _gap_check(suite, name, M, solution, invert=False, extra=None):
    """The row of a null-space ``solution`` (X, sv, shape): its spectral gap
    sigma_1 / sigma_2 against NULL_GAP, with sigma_1 and sigma_2 over
    sigma_max and the system's [rows, unknowns] as its certificate."""
    _, sv, shape = solution
    return _check(suite, name, M, spectral_gap(sv), NULL_GAP, invert=invert, extra={
        "sigma_1_over_max": float(sv[-1] / sv[0]),
        "sigma_2_over_max": float(sv[-2] / sv[0]), "shape": list(shape), **(extra or {}),
    })


def _per_point(cfg: RunConfig, offset: int, jobs, check, pass_rng=False):
    """Run ``check(params, *kins)`` once per job and flatten the rows.

    Job idx is a tuple of bound-state numbers; it draws its rng from
    (seed, offset + idx) and samples one kinematic point per M, in order.
    With ``pass_rng`` the check also takes that rng as ``rng``, to draw from
    after the kinematics.
    """
    params = cfg.params()

    def one(job):
        idx, Ms = job
        rng = _point_rng(cfg.seed, offset + idx)
        kins = [sample_kinematics(M, params, rng) for M in Ms]
        return check(params, *kins, rng=rng) if pass_rng else check(params, *kins)

    return [row for rows in _map_points(one, list(enumerate(jobs))) for row in rows]


def suite_coalgebra(cfg: RunConfig):
    tol = cfg.tol("algebra")

    def check(params, kin1, kin2):
        M1, M2 = kin1.M, kin2.M
        leg1, leg2 = Leg(kin1, params), Leg(kin2, params)
        dmap = coproduct_map(leg1, leg2)
        tw = coalgebra.twisted_boundary_charges(leg1.gens, params)
        hom = coalgebra.hom_check(dmap, params)
        exp = coalgebra.coideal_expansion_check(leg1, leg2, dmap, params)
        inv = coalgebra.twisted_central_invariance(kin1, tw, params)
        return [
            _check("coalgebra", "coproduct-homomorphism", (M1, M2), max(hom.values()), tol),
            _check("coalgebra", "coideal-expansion", (M1, M2), max(exp.values()), tol),
            _check(
                "coalgebra", "twisted-F1-raising", M1,
                coalgebra.twisted_f1_action_residual(kin1, tw, params), tol,
            ),
            _check(
                "coalgebra", "twisted-central-invariance", M1,
                max(v for d in inv.values() for v in d.values()), tol,
            ),
        ]

    return _per_point(cfg, 5000, list(product(cfg.M, repeat=2)),
                      _guarded("coalgebra", "coproduct-homomorphism", tol, check))


def suite_smatrix(cfg: RunConfig):
    tol = cfg.tol("algebra")

    def check(params, kin1, kin2):
        Ms = (kin1.M, kin2.M)
        conds = {"cond_V": smatrix.adapted_bases(*Ms, params.q).cond_V,  # V1 (x) V2
                 "cond_W": smatrix.adapted_bases(*Ms[::-1], params.q).cond_V}  # V2 (x) V1
        solution = smatrix.commutant_nullspace(kin1, kin2, params)
        rows = [_gap_check("smatrix", "null-dimension", Ms, solution, extra=conds)]
        if not rows[0]["passed"]:
            return rows  # no unique S to check further
        S = smatrix.unique_intertwiner(solution)
        # the full coproducts of the two points: a check of S independent of
        # the cached pieces it was solved from
        legs = Leg(kin1, params), Leg(kin2, params)
        res = smatrix.pair_residuals(S, smatrix.intertwiner_system(*legs, GENERATORS))
        rows.append(_check("smatrix", "intertwining", Ms, max(res), tol))
        if min(Ms) >= 2:
            rows.append(_gap_check(
                "smatrix", "affine-ablation", Ms,
                smatrix.commutant_nullspace(kin1, kin2, params, smatrix.SANS_AFFINE),
                invert=True, extra={"note": "no spectral gap without E4, F4", **conds},
            ))
        return rows

    return _per_point(cfg, 9000, list(product(cfg.M, repeat=2)),
                      _guarded("smatrix", "null-dimension", NULL_GAP, check))


def suite_ybe(cfg: RunConfig, first=None):
    tol = cfg.tol("composite")
    # every triple of cfg.M, in order, or the ``first`` of them (``all``)
    triples = sorted(set(product(cfg.M, repeat=3)))[:first]

    def check(params, *kins, rng):
        # the probes come from the point's rng, after its kinematics
        Ms = tuple(k.M for k in kins)
        return [_check("ybe", "yang-baxter", Ms, smatrix.ybe_residual(*kins, params, rng), tol)]

    return _per_point(cfg, 13000, triples, _guarded("ybe", "yang-baxter", tol, check),
                      pass_rng=True)


def suite_kmatrix(cfg: RunConfig):
    tol_i = cfg.tol("intertwiner")
    tol_a = cfg.tol("algebra")

    def check(params, kin):
        M = kin.M
        pairs, weights = kmatrix.boundary_system(kin, params)
        solution = smatrix.weight_nullspace(pairs, weights)
        gap = _gap_check("kmatrix", "null-dimension", M, solution)
        if not gap["passed"]:
            return [gap]  # no unique K to check further
        K = kmatrix.closed_form_kmatrix(kin, params)
        Ks = smatrix.unique_intertwiner(solution)
        rows = [
            _check(
                "kmatrix", "closed-vs-intertwiner", M,
                kmatrix.compare_kmatrices(K, Ks), tol_i,
            ),
            _check("kmatrix", "invariance", M, max(smatrix.pair_residuals(K, pairs)), tol_i),
        ]
        if M >= 2:
            preserved = pairs[:len(kmatrix.PRESERVED_CHARGES)]
            rows.append(_gap_check(
                "kmatrix", "twisted-ablation", M, smatrix.weight_nullspace(preserved, weights),
                invert=True, extra={"note": "no spectral gap without twisted charges"},
            ))
            sym = kmatrix.ck_symmetry_residual(kin, params)
            rows.append(_check("kmatrix", "ck-covariance", M, sym.max(), tol_a))
        return rows

    return _per_point(cfg, 17000, [(M,) for M in cfg.M],
                      _guarded("kmatrix", "null-dimension", NULL_GAP, check))


def suite_bybe(cfg: RunConfig):
    tol = cfg.tol("composite")

    def check(params, *kins):
        Ms = tuple(kin.M for kin in kins)
        smats = kmatrix.reflection_smatrices(*kins, params)
        K1, K2 = (kmatrix.closed_form_kmatrix(kin, params) for kin in kins)
        rows = [_check(
            "bybe", "reflection-equation", Ms,
            kmatrix.boundary_ybe_residual(K1, K2, smats), tol,
        )]
        if max(Ms) >= 2:
            # the constant C_k = C_0 = gamma_reflected / gamma at every k
            T1, T2 = (kmatrix.closed_form_kmatrix(kin, params, c_override=np.full(
                kin.M, reflect_kinematics(kin, params).gamma / kin.gamma,
            )) for kin in kins)
            rows.append(_check(
                "bybe", "trivial-Ck-control", Ms,
                kmatrix.boundary_ybe_residual(T1, T2, smats),
                1e-2, invert=True,
                extra={"note": "constant C_k must violate the reflection equation"},
            ))
        return rows

    return _per_point(cfg, 21000, list(product(cfg.M, repeat=2)),
                      _guarded("bybe", "reflection-equation", tol, check))


def suite_unitarity(cfg: RunConfig):
    tol = cfg.tol("intertwiner")

    def check(params, kin):
        residual = kmatrix.unitarity_residual(kin, params)
        return [_check("unitarity", "K(p)K(-p)=Id", kin.M, residual, tol)]

    check = _guarded("unitarity", "K(p)K(-p)=Id", tol, check)
    return _per_point(cfg, 25000, [(M,) for M in cfg.M], check)


def suite_limits(cfg: RunConfig):
    params = cfg.params()
    checks = []
    rng = _point_rng(cfg.seed, 29000)

    # rational limit of the reflection coefficients, O(eps) convergence
    M = max([m for m in cfg.M if m >= 2], default=2)
    xm = complex(sample_kinematics(1, params, rng).x_minus)
    errs = kmatrix.rational_limit_errors(xm, M, params)
    for eps, err in zip(kmatrix.RATIONAL_LIMIT_EPS, errs):
        checks.append(_check(
            "limits", f"rational-coefficients[eps={eps:g}]", M, err, 10 * eps,
        ))
    rate = np.log10(errs[0] / errs[1]) if errs[1] > 0 else 1.0
    checks.append(_check(
        "limits", "rational-convergence-rate", M, abs(rate - 1.0), 0.3,
        extra={"fitted_rate": float(rate)},
    ))

    # fundamental M=1 coefficient limit A_1/A_0 = -1/(z U^2) -> -x-/x+
    p_eps = replace(params, q=1 + 1e-6)
    kin1 = on_shell(1, complex(sample_kinematics(1, params, rng).x_minus), p_eps)
    checks.append(_check(
        "limits", "fundamental-A1/A0", 1,
        abs(-1.0 / (kin1.z * kin1.U**2) + kin1.x_minus / kin1.x_plus), 1e-4,
    ))

    # Yangian limit: rescaled twisted charges stay Cauchy with O(q-1) rate
    q_values = [1 + 1e-2, 1 + 1e-3, 1 + 1e-4]
    M_y = min(cfg.M)
    xm_y = complex(sample_kinematics(M_y, params, rng).x_minus)
    table = coalgebra.yangian_limit_probe(q_values, xm_y, M_y, params)
    for name, row in table.items():
        diverging = row["diffs"][-1] > row["diffs"][0] or not np.isfinite(row["norms"][-1])
        checks.append(_check(
            "limits", f"yangian-cauchy[{name}]", M_y,
            0.0 if not diverging else row["diffs"][-1], 1.0,
            extra={"diffs": row["diffs"], "ratios": row["ratios"]},
        ))
    return checks


_SUITE_FNS = {
    "rep-check": suite_rep_check,
    "coalgebra": suite_coalgebra,
    "smatrix": suite_smatrix,
    "ybe": suite_ybe,
    "kmatrix": suite_kmatrix,
    "bybe": suite_bybe,
    "unitarity": suite_unitarity,
    "limits": suite_limits,
}

SUITES = (*_SUITE_FNS, "all")

#: What ``all`` passes a suite besides the config: the first six YBE
#: triples only.  The 64 rows of ``all`` at its default M = (1, 2), which
#: the tests and the benchmark gate pin, hold six; all eight make
#: ``qab all`` about 13 % slower.
_ALL_OPTIONS = {"ybe": {"first": 6}}


def run_suite(name: str, cfg: RunConfig) -> dict:
    """Execute one suite (or 'all') and assemble the verification report."""
    if name not in SUITES:
        raise ConfigError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    if cfg.precision != "double" and name != "rep-check":
        raise ConfigError(
            f"precision {cfg.precision!r}: only rep-check runs in high precision"
        )
    t0 = time.monotonic()
    names = list(_SUITE_FNS) if name == "all" else [name]
    options = _ALL_OPTIONS if name == "all" else {}
    checks = []
    for n in names:
        checks.extend(_SUITE_FNS[n](cfg, **options.get(n, {})))
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": name,
        "software_version": __version__,
        "seed": cfg.seed,
        "config": config_echo(cfg),
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
        "wall_time_s": time.monotonic() - t0,
    }


def emit_report(report: dict, fmt: str = "json", path: str | None = None) -> str:
    """Serialize the report; returns the text and optionally writes it."""
    if fmt == "json":
        text = json.dumps(report, indent=2, sort_keys=True, default=str) + "\n"
    elif fmt == "csv-summary":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["suite", "check", "M", "residual", "threshold", "pass"])
        for c in report["checks"]:
            writer.writerow([
                c["suite"], c["check"], "x".join(map(str, c["M"])),
                repr(c["residual"]), repr(c["threshold"]), c["passed"],
            ])
        text = buf.getvalue()
    else:
        raise ConfigError(f"unknown report format {fmt!r}")
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qab",
        description="Verification suites for bound-state scattering off a boundary.",
    )
    parser.add_argument("suite", choices=SUITES)
    parser.add_argument("--config", help="JSON config path")
    parser.add_argument("--M", help="comma-separated bound-state numbers, e.g. 1,2,3")
    parser.add_argument("--samples", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--precision", help="double or high:<bits>")
    parser.add_argument("--out", help="report output path")
    parser.add_argument("--format", choices=("json", "csv-summary"), default="json")
    args = parser.parse_args(argv)
    try:
        data = _read_config(args.config) if args.config else {}
        if args.M:
            try:
                data["M"] = [int(m) for m in args.M.split(",")]
            except ValueError:
                raise ConfigError(f"--M: bad list {args.M!r}") from None
        for name in ("samples", "seed", "precision"):
            if getattr(args, name) is not None:
                data[name] = getattr(args, name)
        cfg = load_config(data=data)
        report = run_suite(args.suite, cfg)
        text = emit_report(report, args.format, args.out)
    except (ConfigError, KinematicsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except Exception as exc:
        # a bug, not a verdict: keep the traceback and exit apart from FAIL
        traceback.print_exc(file=sys.stderr)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if not args.out:
        sys.stdout.write(text)
    else:
        n_pass = sum(c["passed"] for c in report["checks"])
        print(f"{report['suite']}: {n_pass}/{len(report['checks'])} checks passed, "
              f"report written to {args.out}")
    return EXIT_PASS if report["passed"] else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
