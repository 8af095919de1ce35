"""Command-line front end: voltages, orbits, iso, fingerprint, canon, oracle.

Exit codes: 0 success, 2 parse/validation failure, 3 solver failure,
4 orbit verification mismatch, and for `iso` 0/1/5 for isomorphic-certified /
distinct-certified / possibly-isomorphic.  Validation and solver errors print
machine-readable JSON on stderr.  All floats in JSON output are serialized
as 17-significant-digit decimal strings; fingerprint values are JSON integers,
residues modulo the prime p that the fingerprint carries.
"""

from __future__ import annotations

import hashlib
import json
import sys

import click

from . import signatures as sig_mod
from . import solver as solver_mod
from .errors import (
    GraphError,
    InvalidBudgetError,
    KCanonError,
    SameSourceSinkError,
    SingularSystemError,
    TooLargeError,
)
from .graph import load_graph

VALIDATION_ERRORS = (GraphError, InvalidBudgetError, SameSourceSinkError, TooLargeError)
# Largest KCL residual an exact (non-approximate) solve may report.
KCL_LIMIT = 1e-9


def _f(x: float) -> str:
    return format(float(x), ".17g")


def _fail(exc: Exception, code: int):
    name = type(exc).__name__.removesuffix("Error")
    click.echo(json.dumps({"error": name, "message": str(exc)}, separators=(",", ":")), err=True)
    sys.exit(code)


class _ErrorBoundary(click.Group):
    """Every command's typed errors: exit 2 for validation, 3 for the rest."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except VALIDATION_ERRORS as exc:
            _fail(exc, 2)
        except KCanonError as exc:
            _fail(exc, 3)


def _emit(doc: dict, fmt: str, text_lines):
    if fmt == "json":
        click.echo(json.dumps(doc, separators=(",", ":"), sort_keys=True))
    else:
        for line in text_lines:
            click.echo(line)


graph_path = click.Path(exists=True, dir_okay=False)
format_option = click.option(
    "--format", "fmt", type=click.Choice(["json", "text"]), default="text"
)
budget_option = click.option(
    "--budget", type=int, default=sig_mod.DEFAULT_BUDGET, show_default=True,
    help="canonical-labeling search budget, in IR tree nodes per graph",
)


@click.group(cls=_ErrorBoundary)
def main():
    """Resistor-network signatures for graph symmetry and isomorphism."""


@main.command()
@click.argument("graph_file", type=graph_path)
@click.argument("a", type=int)
@click.argument("b", type=int)
@click.option(
    "--method",
    type=click.Choice(["grounded", "pseudoinverse", "universal-sink"]),
    default="grounded",
    show_default=True,
)
@click.option("--sink-weight", type=float, default=1.0, show_default=True)
@format_option
def voltages(graph_file, a, b, method, sink_weight, fmt):
    """Solve the unit-current injection (A -> B) and report voltages/currents."""
    g = load_graph(graph_file)
    if method == "grounded":
        profile = solver_mod.solve_pair(solver_mod.build_system(g), a, b)
    elif method == "pseudoinverse":
        profile = solver_mod.solve_pair_pseudoinverse(g, a, b)
    else:
        profile = solver_mod.solve_pair_universal_sink(g, a, b, sink_weight)
    currents = solver_mod.pair_currents(g, profile)
    residual = solver_mod.kcl_residual(g, profile)
    if not (profile.approximate or residual <= KCL_LIMIT):
        raise SingularSystemError(
            f"KCL residual {_f(residual)} exceeds {KCL_LIMIT:g}: the system is "
            "numerically singular at this weight range"
        )
    resistance = float(profile.v[a - 1] - profile.v[b - 1])
    doc = {
        "n": g.n,
        "m": g.m,
        "source": a,
        "sink": b,
        "method": profile.method,
        "approximate": profile.approximate,
        "voltages": [_f(x) for x in profile.v],
        "currents": [
            {"u": u, "v": v, "current": _f(i)}
            for (u, v, _), i in zip(g.edges, currents.currents)
        ],
        "effective_resistance": _f(resistance),
        "kcl_residual": _f(residual),
    }
    lines = [
        f"method: {profile.method}" + (" (approximate)" if profile.approximate else ""),
        f"effective resistance {a}-{b}: {_f(resistance)} ohm",
        f"KCL residual: {_f(residual)}",
        "node voltages:",
    ]
    lines += [f"  {k + 1}: {_f(x)}" for k, x in enumerate(profile.v)]
    lines.append("edge currents:")
    lines += [
        f"  {u}->{v}: {_f(i)}"
        for (u, v, _), i in zip(g.edges, currents.currents)
    ]
    _emit(doc, fmt, lines)


@main.command()
@click.argument("graph_file", type=graph_path)
@click.option("--verify", is_flag=True, help="cross-check against the brute-force oracle (n <= 10)")
@format_option
def orbits(graph_file, verify, fmt):
    """Group nodes into orbit-candidate classes by voltage signature."""
    g = load_graph(graph_file)
    analysis = g._analysis
    classes = []
    for nodes in analysis.classes:
        payload = json.dumps(analysis.node_rows[nodes[0] - 1].tolist()).encode()
        classes.append(
            {"nodes": nodes, "signature_sha256": hashlib.sha256(payload).hexdigest()}
        )
    doc = {"n": g.n, "m": g.m, "classes": classes}
    lines = ["orbit candidates:"]
    lines += [
        f"  {c['nodes']} sig {c['signature_sha256'][:16]}" for c in classes
    ]
    if verify:
        from . import oracle as oracle_mod
        report = oracle_mod.brute_force_automorphisms(g)
        oracle_classes = [list(o) for o in report.orbits]
        candidate_classes = sorted(analysis.classes)
        match = sorted(oracle_classes) == candidate_classes
        doc["verify"] = {
            "oracle_orbits": oracle_classes,
            "match": match,
            "group_order": report.order,
        }
        lines.append(f"oracle orbits: {sorted(oracle_classes)} (group order {report.order})")
        lines.append(f"verify: {'match' if match else 'MISMATCH'}")
        if not match:
            _emit(doc, fmt, lines)
            sys.exit(4)
    _emit(doc, fmt, lines)


@main.command()
@click.argument("file1", type=graph_path)
@click.argument("file2", type=graph_path)
@budget_option
@format_option
def iso(file1, file2, budget, fmt):
    """Screen two graphs for isomorphism; exit 0 iso / 1 distinct / 5 unknown."""
    g1 = load_graph(file1)
    g2 = load_graph(file2)
    verdict = sig_mod.iso_screen(g1, g2, node_budget=budget)
    doc = {"verdict": verdict.kind, "reason": verdict.reason}
    lines = [f"verdict: {verdict.kind} ({verdict.reason})"]
    if verdict.mapping is not None:
        doc["mapping"] = {str(k): v for k, v in sorted(verdict.mapping.items())}
        lines.append("mapping: " + ", ".join(
            f"{k}->{v}" for k, v in sorted(verdict.mapping.items())
        ))
    _emit(doc, fmt, lines)
    sys.exit(
        {
            sig_mod.IsoVerdict.ISOMORPHIC: 0,
            sig_mod.IsoVerdict.DISTINCT: 1,
            sig_mod.IsoVerdict.POSSIBLE: 5,
        }[verdict.kind]
    )


@main.command()
@click.argument("graph_file", type=graph_path)
@format_option
def fingerprint(graph_file, fmt):
    """Emit the canonical fingerprint serialization and its hash."""
    g = load_graph(graph_file)
    fp = sig_mod.fingerprint(g)
    text, digest = fp.to_json(), fp.digest()
    click.echo(f'{{"fingerprint":{text},"sha256":"{digest}"}}' if fmt == "json"
               else f"sha256: {digest}\n{text}")


@main.command()
@click.argument("graph_file", type=graph_path)
@budget_option
@format_option
def canon(graph_file, budget, fmt):
    """Compute a canonical node ordering and canonical form."""
    g = load_graph(graph_file)
    lab = sig_mod.canonical_labeling(g, budget=budget)
    digest = lab.digest()
    doc = {
        "order": list(lab.order),
        "form": [_f(x) for x in lab.form],
        "certified": lab.certified,
        "form_sha256": digest,
        "expansions": lab.expansions,
    }
    lines = [
        f"order: {list(lab.order)}",
        f"certified: {lab.certified}",
        f"form sha256: {digest}",
    ]
    _emit(doc, fmt, lines)


@main.group()
def oracle():
    """Brute-force / exact-arithmetic ground-truth queries (small graphs)."""


@oracle.command("solve")
@click.argument("graph_file", type=graph_path)
@click.argument("a", type=int)
@click.argument("b", type=int)
@format_option
def oracle_solve(graph_file, a, b, fmt):
    """Exact rational voltages for unit current A -> B."""
    from . import oracle as oracle_mod
    g = load_graph(graph_file)
    v = oracle_mod.exact_solve_pair(g, a, b)
    doc = {
        "source": a,
        "sink": b,
        "voltages": [str(x) for x in v],
        "voltages_float": [_f(x) for x in v],
    }
    lines = [f"  {k + 1}: {x}" for k, x in enumerate(v)]
    _emit(doc, fmt, lines)


@oracle.command("autos")
@click.argument("graph_file", type=graph_path)
@format_option
def oracle_autos(graph_file, fmt):
    """Exhaustive automorphism group order and orbits."""
    from . import oracle as oracle_mod
    g = load_graph(graph_file)
    report = oracle_mod.brute_force_automorphisms(g)
    doc = {
        "group_order": report.order,
        "orbits": [list(o) for o in report.orbits],
    }
    lines = [
        f"group order: {report.order}",
        f"orbits: {[list(o) for o in report.orbits]}",
    ]
    _emit(doc, fmt, lines)


@oracle.command("iso")
@click.argument("file1", type=graph_path)
@click.argument("file2", type=graph_path)
@format_option
def oracle_iso(file1, file2, fmt):
    """Exhaustive isomorphism check; exit 0 isomorphic / 1 proven distinct."""
    from . import oracle as oracle_mod
    g1 = load_graph(file1)
    g2 = load_graph(file2)
    mapping = oracle_mod.brute_force_isomorphic(g1, g2)
    if mapping is None:
        _emit({"verdict": "proven-distinct"}, fmt, ["verdict: proven-distinct"])
        sys.exit(1)
    doc = {"verdict": "isomorphic", "mapping": {str(k): v for k, v in mapping.items()}}
    _emit(doc, fmt, ["verdict: isomorphic",
                     "mapping: " + ", ".join(f"{k}->{v}" for k, v in sorted(mapping.items()))])


if __name__ == "__main__":
    main()
