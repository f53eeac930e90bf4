"""Command-line surface: batch computations emitting CSV/JSON flat files.

Exit codes: 0 on success, 2 on precondition errors, 3 on numerical failures.
"""

from __future__ import annotations

import functools
import sys
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


def handles_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except PreconditionError as exc:
            click.echo(f"precondition error: {exc}", err=True)
            sys.exit(2)
        except NumericalError as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            sys.exit(3)
    return wrapper


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", "").replace("i", "j"))
    except ValueError as exc:
        raise PreconditionError(f"cannot parse complex number {text!r}") from exc


# the curve-spec keys the CLI takes as float options, --r-min for r_min
_CURVE_OPTIONS = ("radius", "delta", "alpha", "beta", "r_min", "r_max",
                  "turn", "grade", "t0_angle")
_n_option = click.option("--n", type=int, default=4096, show_default=True)
_t0_option = click.option("--t0", "t0_text", default=None,
                          help="distinguished point, e.g. '0' or '1+0j'")


def _curve_spec(kind, params):
    """The build_curve spec of --kind and the curve options that were set."""
    return {"kind": kind.replace("-", "_"),
            **{k: v for k, v in params.items() if v is not None}}


def _resolve_curve(ctx, kind, n, t0_text, params):
    """(curve, t0, join_ends) from --kind, whose t0 --t0 replaces, or from
    the global --curve file, which excludes --kind, the curve options and
    --n and, as it records no t0, needs --t0."""
    path = ctx.obj["curve"]
    if path is not None:
        given = [f"--{k}".replace("_", "-") for k in ("kind", "n", *params)
                 if ctx.get_parameter_source(k) is not ParameterSource.DEFAULT]
        if given:
            raise PreconditionError(f"--curve excludes {', '.join(given)}")
        if t0_text is None:
            raise PreconditionError("a --curve file records no t0; pass --t0")
        return _curves.load_curve(path), _parse_complex(t0_text), False
    if kind is None:
        raise PreconditionError("pass --curve globally or --kind here")
    curve, t0, join_ends = build_curve(_curve_spec(kind, params), n)
    if t0_text is not None:
        t0 = _parse_complex(t0_text)
    return curve, t0, join_ends


def _out_path(ctx, name):
    """name under the --out directory, its parent directory created."""
    out = ctx.obj["out"] / name
    out.parent.mkdir(parents=True, exist_ok=True)
    return out


def _kind_options(fn):
    kinds = [k.replace("_", "-") for k in CURVE_KEYS]
    fn = click.option("--kind", type=click.Choice(kinds), default=None)(fn)
    for key in _CURVE_OPTIONS:
        fn = click.option("--" + key.replace("_", "-"), key, type=float,
                          default=None)(fn)
    return fn


@click.group()
@click.option("--curve", "curve_path", type=click.Path(path_type=Path),
              default=None, help="curve JSON file used by subcommands")
@click.option("--out", type=click.Path(path_type=Path), default=Path("."),
              show_default=True, help="output directory")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--levels", default=None,
              help="comma-separated refinement levels, e.g. 2048,4096,8192")
@click.pass_context
def main(ctx, curve_path, out, seed, levels):
    """Numerical lab for curves, oscillating weights and maximal operators."""
    ctx.ensure_object(dict)
    ctx.obj["curve"] = curve_path
    ctx.obj["out"] = out
    ctx.obj["seed"] = seed
    ctx.obj["levels"] = (tuple(int(x) for x in levels.split(","))
                         if levels else None)


@main.command("gen-curve")
@_kind_options
@_n_option
@click.option("--name", default="curve.json", show_default=True)
@click.pass_context
@handles_errors
def gen_curve(ctx, kind, n, name, **params):
    """Generate a curve from the zoo and write it as JSON."""
    if kind is None:
        raise PreconditionError("--kind is required")
    curve, t0, _ = build_curve(_curve_spec(kind, params), n)
    out = _out_path(ctx, name)
    _curves.save_curve(curve, out)
    click.echo(f"wrote {out} ({curve.n_samples} samples, "
               f"length {curve.total_length:.6g}, t0={t0})")


@main.command()
@_kind_options
@_n_option
@_t0_option
@click.option("--csv", "csv_name", default=None,
              help="also dump the majorant samples to this CSV file")
@click.pass_context
@handles_errors
def indices(ctx, kind, n, t0_text, csv_name, **params):
    """Estimate the spirality indices at t0."""
    curve, t0, _ = _resolve_curve(ctx, kind, n, t0_text, params)
    samples = compute_W(curve, t0, gamma_weight(curve, t0, 1j))
    pair = estimate_indices(samples)
    if csv_name:
        export_submult_csv(samples, _out_path(ctx, csv_name))
    click.echo(f"spirality indices at t0={t0}: "
               f"({pair.alpha:.6f}, {pair.beta:.6f}) "
               f"residuals ({pair.diagnostics['alpha_residual']:.2e}, "
               f"{pair.diagnostics['beta_residual']:.2e})")


@main.command()
@_kind_options
@_n_option
@_t0_option
@click.option("--p", type=float, default=2.0, show_default=True)
@click.option("--gamma", required=True,
              help="weight exponent; real gamma is a power weight")
@click.pass_context
@handles_errors
def apcheck(ctx, kind, n, t0_text, p, gamma, **params):
    """Estimate the Muckenhoupt A_p product for a power/oscillating weight."""
    curve, t0, _ = _resolve_curve(ctx, kind, n, t0_text, params)
    w = gamma_weight(curve, t0, _parse_complex(gamma))
    value = muckenhoupt_ap(curve, w, p)
    click.echo(f"A_{p:g} estimate: {value:.8g}")


@main.command()
@_kind_options
@_n_option
@_t0_option
@click.option("--p", type=float, default=2.0, show_default=True)
@click.option("--f-const", type=float, default=1.0, show_default=True,
              help="constant test function value")
@click.option("--gamma", default="0", show_default=True,
              help="weight exponent; 0 is the unit weight")
@click.pass_context
@handles_errors
def norm(ctx, kind, n, t0_text, p, f_const, gamma, **params):
    """Luxemburg norm of a constant function against the weight phi."""
    curve, t0, _ = _resolve_curve(ctx, kind, n, t0_text, params)
    w = gamma_weight(curve, t0, _parse_complex(gamma))
    value = luxemburg_norm(curve, f_const, w, constant_exponent(curve, p))
    click.echo(f"norm: {value:.12g}")


@main.command("maximal")
@_kind_options
@_n_option
@_t0_option
@click.option("--gamma", default="0", show_default=True,
              help="conjugating weight exponent; 0 is the plain operator")
@click.option("--arc-radius", type=float, default=None,
              help="test function: indicator of this arc around t0")
@click.option("--name", default="maximal.csv", show_default=True)
@click.pass_context
@handles_errors
def maximal_cmd(ctx, kind, n, t0_text, gamma, arc_radius, name, **params):
    """Evaluate the (weighted) maximal operator and write a CSV."""
    curve, t0, join_ends = _resolve_curve(ctx, kind, n, t0_text, params)
    if arc_radius is None:
        f = np.ones(curve.n_samples)
    else:
        f = _curves.omega_arc(curve, t0, arc_radius,
                              join_ends=join_ends).astype(float)
    result = weighted_maximal(curve, f, t0, _parse_complex(gamma))
    out = _out_path(ctx, name)
    export_maximal_csv(curve, result, out)
    click.echo(f"wrote {out} (max Mf = {result.values.max():.8g})")


@main.command()
@click.option("--p-at", type=float, required=True, help="p at t0")
@click.option("--gamma", required=True)
@click.option("--delta-minus", type=float, default=0.0, show_default=True)
@click.option("--delta-plus", type=float, default=0.0, show_default=True)
@click.option("--name", default="verdict.json", show_default=True)
@click.pass_context
@handles_errors
def verdict(ctx, p_at, gamma, delta_minus, delta_plus, name):
    """Classify a configuration from p(t0), gamma and spirality indices."""
    g = _parse_complex(gamma)
    if g.imag == 0.0:
        v = check_kps(p_at, g.real)
    else:
        v = check_main(p_at, g,
                       IndexPair(delta_minus, delta_plus, {"source": "cli"}))
    out = _out_path(ctx, name)
    out.write_text(verdict_to_json(v) + "\n", encoding="utf-8")
    click.echo(f"{v.classification} (lower={v.lower:.6f}, "
               f"upper={v.upper:.6f}) -> {out}")


def _probe_config(ctx, kind, gamma, p, p_at, p_far, params):
    if kind is None:
        raise PreconditionError("--kind is required for probes")
    spec = _curve_spec(kind, params)
    if "r_min" in CURVE_KEYS[spec["kind"]] and "r_min" not in spec:
        spec["r_min_scale"] = 16.0  # deepen the resolved scale per level
    if p_at is not None and p_far is not None:
        exponent = {"kind": "profile", "p_at": p_at, "p_far": p_far}
    else:
        exponent = {"kind": "constant", "value": p}
    levels = ctx.obj["levels"] or (512, 2048, 8192)
    return ExperimentConfig(curve=spec, exponent=exponent, gamma=gamma,
                            levels=levels, seed=ctx.obj["seed"])


@main.command()
@_kind_options
@click.option("--gamma", required=True)
@click.option("--p", type=float, default=2.0, show_default=True)
@click.option("--p-at", type=float, default=None)
@click.option("--p-far", type=float, default=None)
@click.option("--name", default="probe", show_default=True)
@click.pass_context
@handles_errors
def probe(ctx, kind, gamma, p, p_at, p_far, name, **params):
    """Empirical boundedness probe across refinement levels."""
    config = _probe_config(ctx, kind, _parse_complex(gamma), p, p_at, p_far,
                           params)
    report = run_probe(config)
    _out_path(ctx, f"{name}.csv").write_text(probe_report_csv(report),
                                             encoding="utf-8")
    _out_path(ctx, f"{name}.json").write_text(
        probe_report_json(report) + "\n", encoding="utf-8")
    click.echo(f"verdict {report.verdict.classification}, trend "
               f"{report.trend}, ratios "
               + ", ".join(f"{r:.4g}" for r in report.max_ratios))


@main.command()
@_kind_options
@click.option("--p", type=float, default=2.0, show_default=True)
@click.option("--p-at", type=float, default=None)
@click.option("--p-far", type=float, default=None)
@click.option("--re-min", type=float, required=True)
@click.option("--re-max", type=float, required=True)
@click.option("--im-min", type=float, required=True)
@click.option("--im-max", type=float, required=True)
@click.option("--step", type=float, required=True)
@click.option("--name", default="sweep.csv", show_default=True)
@click.pass_context
@handles_errors
def sweep(ctx, kind, p, p_at, p_far, re_min, re_max, im_min, im_max,
          step, name, **params):
    """Probe a rectangle of gamma values and write the verdict/trend table."""
    gammas = gamma_rectangle(re_min, re_max, im_min, im_max, step)
    config = _probe_config(ctx, kind, gammas[0], p, p_at, p_far, params)
    reports = run_sweep(config, gammas)
    out = _out_path(ctx, name)
    out.write_text(sweep_csv(reports), encoding="utf-8")
    click.echo(f"wrote {out} ({len(reports)} cells)")


if __name__ == "__main__":
    main()
