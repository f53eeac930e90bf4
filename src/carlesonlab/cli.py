"""Command-line surface: batch computations emitting CSV/JSON flat files.

Exit codes: 0 on success, 2 on precondition errors, 3 on numerical failures.
"""

from __future__ import annotations

import cmath
import functools
import json
from pathlib import Path

import click
import numpy as np
from click.core import ParameterSource

from . import curves as _curves
from .argbranch import gamma_weight
from .criteria import check_kps, check_main, verdict_to_json
from .errors import NumericalError, PreconditionError
from .harness import (CURVE_KEYS, ExperimentConfig, build_curve,
                      gamma_rectangle, probe_report_csv, probe_report_json,
                      run_probe, run_sweep, sweep_csv)
from .maximal import export_maximal_csv, weighted_maximal
from .norms import constant_exponent, luxemburg_norm, muckenhoupt_ap
from .submult import (IndexPair, compute_W, estimate_indices,
                      export_submult_csv)


class _Main(click.Group):
    """The command group: every command's library errors exit 2 or 3."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except PreconditionError as exc:
            click.echo(f"precondition error: {exc}", err=True)
            ctx.exit(2)
        except NumericalError as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            ctx.exit(3)


def _parse_complex(text: str) -> complex:
    try:
        value = complex(text.replace(" ", "").replace("i", "j"))
    except ValueError as exc:
        raise PreconditionError(f"cannot parse complex number {text!r}") from exc
    if not cmath.isfinite(value):
        raise PreconditionError(f"complex number {text!r} is not finite")
    return value


def _out_path(out: Path, name: str) -> Path:
    """name under the --out directory, its parent directory created."""
    path = out / name
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


_out_option = click.option("--out", type=click.Path(path_type=Path),
                           default=Path("."), show_default=True,
                           help="output directory")
_n_option = click.option("--n", type=int, default=4096, show_default=True)


def _kind_options(fn):
    """Add --kind and a float option per curve-spec key of CURVE_KEYS
    (--r-min for r_min); fn gets the build_curve spec of those given."""
    # probes set r_min_scale themselves, from the level
    keys = [k for k in dict.fromkeys(k for ks in CURVE_KEYS.values()
                                     for k in ks) if k != "r_min_scale"]

    @functools.wraps(fn)
    def wrapper(kind, **kwargs):
        spec = {} if kind is None else {"kind": kind.replace("-", "_")}
        for key in keys:
            value = kwargs.pop(key)
            if value is not None:
                spec[key] = value
        return fn(spec=spec, **kwargs)

    for key in reversed(keys):  # click lists options in reverse order
        wrapper = click.option("--" + key.replace("_", "-"), key, type=float,
                               default=None)(wrapper)
    kinds = click.Choice([k.replace("_", "-") for k in CURVE_KEYS])
    return click.option("--kind", type=kinds, default=None)(wrapper)


def _given(*params):
    """The options among params set on the command line, as --x-y."""
    ctx = click.get_current_context()
    return [f"--{p}".replace("_", "-") for p in params
            if ctx.get_parameter_source(p) is not ParameterSource.DEFAULT]


def _read_spec(path: Path) -> tuple[dict, int]:
    """The (spec, n) of a gen-curve file: {"kind": ..., options, "n": n}."""
    def reject(name):
        raise PreconditionError(f"non-finite constant in curve file: {name}")

    try:
        spec = json.loads(path.read_bytes(), parse_constant=reject)
    except ValueError as exc:
        raise PreconditionError(f"malformed curve file: {exc}") from exc
    if not isinstance(spec, dict):
        raise PreconditionError("curve file must be a JSON object")
    n = spec.pop("n", None)
    if type(n) is not int:
        raise PreconditionError(f"{path} has no integer 'n'; regenerate it "
                                "with gen-curve")
    return spec, n


def _curve_input(fn):
    """fn gets curve=(curve, t0, join_ends), built from --kind and the curve
    options at --n or from a gen-curve --curve file, which excludes them;
    --t0 replaces the spec's t0."""

    @_kind_options
    @click.option("--curve", "curve_path", default=None,
                  type=click.Path(exists=True, dir_okay=False,
                                  path_type=Path),
                  help="gen-curve file, in place of --kind")
    @_n_option
    @click.option("--t0", "t0_text", default=None,
                  help="distinguished point, e.g. '0' or '1+0j'")
    @functools.wraps(fn)
    def wrapper(spec, curve_path, n, t0_text, **kwargs):
        if curve_path is not None:
            given = _given(*spec, "n")
            if given:
                raise PreconditionError("--curve excludes " + ", ".join(given))
            spec, n = _read_spec(curve_path)
        elif "kind" not in spec:
            raise PreconditionError("pass --curve or --kind")
        curve, t0, join_ends = build_curve(spec, n)
        if t0_text is not None:
            t0 = _parse_complex(t0_text)
        return fn(curve=(curve, t0, join_ends), **kwargs)

    return wrapper


def _probe_input(fn):
    """fn gets config(gamma), the ExperimentConfig of the curve, exponent,
    --levels and --seed options for the weight exponent gamma."""

    @_kind_options
    @click.option("--p", type=float, default=2.0, show_default=True)
    @click.option("--p-at", type=float, default=None)
    @click.option("--p-far", type=float, default=None)
    @click.option("--levels", default="512,2048,8192", show_default=True,
                  help="comma-separated refinement levels")
    @click.option("--seed", type=int, default=0, show_default=True)
    @functools.wraps(fn)
    def wrapper(spec, p, p_at, p_far, levels, seed, **kwargs):
        if "kind" not in spec:
            raise PreconditionError("--kind is required for probes")
        if "r_min" in CURVE_KEYS[spec["kind"]] and "r_min" not in spec:
            spec["r_min_scale"] = 16.0  # deepen the resolved scale per level
        if p_at is not None or p_far is not None:
            if _given("p"):
                raise PreconditionError("--p excludes --p-at and --p-far")
            # build_exponent names the one of them that is missing
            exponent = {"kind": "profile", "p_at": p_at, "p_far": p_far}
            exponent = {k: v for k, v in exponent.items() if v is not None}
        else:
            exponent = {"kind": "constant", "value": p}
        try:
            levels = tuple(int(x) for x in levels.split(","))
        except ValueError as exc:
            raise PreconditionError("--levels takes comma-separated "
                                    f"integers, got {levels!r}") from exc
        config = functools.partial(ExperimentConfig, curve=spec,
                                   exponent=exponent, levels=levels,
                                   seed=seed)
        return fn(config=config, **kwargs)

    return wrapper


@click.group(cls=_Main)
def main():
    """Numerical lab for curves, oscillating weights and maximal operators."""


@main.command("gen-curve")
@_kind_options
@_n_option
@click.option("--name", default="curve.json", show_default=True)
@_out_option
def gen_curve(spec, n, name, out):
    """Generate a curve from the zoo and write its spec, which --curve
    builds again, as one JSON line."""
    if "kind" not in spec:
        raise PreconditionError("--kind is required")
    curve, t0, _ = build_curve(spec, n)
    path = _out_path(out, name)
    path.write_text(json.dumps({**spec, "n": n}, sort_keys=True) + "\n",
                    encoding="utf-8")
    click.echo(f"wrote {path} ({curve.n_samples} samples, "
               f"length {curve.total_length:.6g}, t0={t0})")


@main.command()
@_curve_input
@click.option("--csv", "csv_name", default=None,
              help="also dump the majorant samples to this CSV file")
@_out_option
def indices(curve, csv_name, out):
    """Estimate the spirality indices at t0."""
    curve, t0, _ = curve
    samples = compute_W(curve, t0, gamma_weight(curve, t0, 1j))
    pair = estimate_indices(samples)
    if csv_name:
        export_submult_csv(samples, _out_path(out, csv_name))
    click.echo(f"spirality indices at t0={t0}: "
               f"({pair.alpha:.6f}, {pair.beta:.6f}) "
               f"residuals ({pair.diagnostics['alpha_residual']:.2e}, "
               f"{pair.diagnostics['beta_residual']:.2e})")


@main.command()
@_curve_input
@click.option("--p", type=float, default=2.0, show_default=True)
@click.option("--gamma", required=True,
              help="weight exponent; real gamma is a power weight")
def apcheck(curve, p, gamma):
    """Estimate the Muckenhoupt A_p product for a power/oscillating weight."""
    curve, t0, _ = curve
    w = gamma_weight(curve, t0, _parse_complex(gamma))
    value = muckenhoupt_ap(curve, w, p)
    click.echo(f"A_{p:g} estimate: {value:.8g}")


@main.command()
@_curve_input
@click.option("--p", type=float, default=2.0, show_default=True)
@click.option("--f-const", type=float, default=1.0, show_default=True,
              help="constant test function value")
@click.option("--gamma", default="0", show_default=True,
              help="weight exponent; 0 is the unit weight")
def norm(curve, p, f_const, gamma):
    """Luxemburg norm of a constant function against the weight phi."""
    curve, t0, _ = curve
    w = gamma_weight(curve, t0, _parse_complex(gamma))
    value = luxemburg_norm(curve, f_const, w, constant_exponent(curve, p))
    click.echo(f"norm: {value:.12g}")


@main.command("maximal")
@_curve_input
@click.option("--gamma", default="0", show_default=True,
              help="conjugating weight exponent; 0 is the plain operator")
@click.option("--arc-radius", type=float, default=None,
              help="test function: indicator of this arc around t0")
@click.option("--name", default="maximal.csv", show_default=True)
@_out_option
def maximal_cmd(curve, gamma, arc_radius, name, out):
    """Evaluate the (weighted) maximal operator and write a CSV."""
    curve, t0, join_ends = curve
    if arc_radius is None:
        f = np.ones(curve.n_samples)
    else:
        f = _curves.omega_arc(curve, t0, arc_radius,
                              join_ends=join_ends).astype(float)
    result = weighted_maximal(curve, f, t0, _parse_complex(gamma))
    path = _out_path(out, name)
    export_maximal_csv(curve, result, path)
    click.echo(f"wrote {path} (max Mf = {result.values.max():.8g})")


@main.command()
@click.option("--p-at", type=float, required=True, help="p at t0")
@click.option("--gamma", required=True)
@click.option("--delta-minus", type=float, default=0.0, show_default=True)
@click.option("--delta-plus", type=float, default=0.0, show_default=True)
@click.option("--name", default="verdict.json", show_default=True)
@_out_option
def verdict(p_at, gamma, delta_minus, delta_plus, name, out):
    """Classify a configuration from p(t0), gamma and spirality indices."""
    g = _parse_complex(gamma)
    if g.imag == 0.0:
        given = _given("delta_minus", "delta_plus")
        if given:
            raise PreconditionError("a real --gamma reads no "
                                    + ", ".join(given))
        v = check_kps(p_at, g.real)
    else:
        v = check_main(p_at, g,
                       IndexPair(delta_minus, delta_plus, {"source": "cli"}))
    path = _out_path(out, name)
    path.write_text(verdict_to_json(v) + "\n", encoding="utf-8")
    click.echo(f"{v.classification} (lower={v.lower:.6f}, "
               f"upper={v.upper:.6f}) -> {path}")


@main.command()
@_probe_input
@click.option("--gamma", required=True)
@click.option("--name", default="probe", show_default=True)
@_out_option
def probe(config, gamma, name, out):
    """Empirical boundedness probe across refinement levels."""
    report = run_probe(config(gamma=_parse_complex(gamma)))
    _out_path(out, f"{name}.csv").write_text(probe_report_csv(report),
                                             encoding="utf-8")
    _out_path(out, f"{name}.json").write_text(
        probe_report_json(report) + "\n", encoding="utf-8")
    click.echo(f"verdict {report.verdict.classification}, trend "
               f"{report.trend}, ratios "
               + ", ".join(f"{r:.4g}" for r in report.max_ratios))


@main.command()
@_probe_input
@click.option("--re-min", type=float, required=True)
@click.option("--re-max", type=float, required=True)
@click.option("--im-min", type=float, required=True)
@click.option("--im-max", type=float, required=True)
@click.option("--step", type=float, required=True)
@click.option("--name", default="sweep.csv", show_default=True)
@_out_option
def sweep(config, re_min, re_max, im_min, im_max, step, name, out):
    """Probe a rectangle of gamma values and write the verdict/trend table."""
    gammas = gamma_rectangle(re_min, re_max, im_min, im_max, step)
    reports = run_sweep(config(gamma=gammas[0]), gammas)
    path = _out_path(out, name)
    path.write_text(sweep_csv(reports), encoding="utf-8")
    click.echo(f"wrote {path} ({len(reports)} cells)")


if __name__ == "__main__":
    main()
