"""Command-line surface: every check and experiment as a subcommand.

Exit codes: 0 all checks passed, 1 a mathematical check exceeded its
tolerance (a genuine anomaly at these scales) or an internal invariant
failed, 2 usage error (an --out path that cannot be written among them),
3 work budget exceeded, 141 (128 + SIGPIPE, what a shell reports for a
process a closed pipe killed) the reader closed stdout early, as `| head`
does; the rest of the output is dropped and nothing goes to stderr.
Human output prints bound vs observed side by side with their ratio;
csv/json are machine-readable and contain no timestamps, so repeated runs
are byte-identical regardless of --workers.

Without --out, `main-thm` and `corollary` print the rows their --out file
would hold (CSV for csv/human, the JSONL mirror for json) through the same
writer, as each combo finishes; human adds a summary on stderr.  So a grid
that fails part way has already printed the header and its finished combos.

`python -m ffchar.cli` and the `ffchar` script run `main()`, flush stdout
and stderr, and leave through os._exit, skipping interpreter teardown:
every output file is closed and every worker thread joined by then.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from typing import Iterable, Iterator, Optional

import numpy as np

from .algebra import Field, Poly

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_PIPE = 141

def _emit(lines: list[str], out: Optional[str]):
    _emit_texts(["\n".join(lines) + ("\n" if lines else "")], out)


def _emit_texts(texts: Iterable[str], out: Optional[str]):
    """Write each text to --out (or stdout) as it is made."""
    if out:
        with open(out, "w") as fh:
            for text in texts:
                fh.write(text)
    else:
        for text in texts:
            sys.stdout.write(text)


def _json_rows(row_texts: Iterable[str]) -> Iterator[str]:
    """{"rows": [...]} with every line of row_texts as a JSON string, a text at a time."""
    yield '{"rows": ['
    sep = ""
    for text in row_texts:
        yield sep + ", ".join(map(json.dumps, text.splitlines()))
        sep = ", "
    yield "]}\n"


def _csv_label(label: str) -> str:
    """A character label as one CSV field: quoted when it lists several exponents."""
    return f'"{label}"' if "," in label else label


def _parse_range(text: str) -> tuple[int, ...]:
    """"4..8" or "4,5,8" or "6" -> tuple of ints; an empty range a..b, b < a, is refused."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        if int(hi) < int(lo):
            raise ValueError(f"range {text} is empty: {hi} is below {lo}")
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(tok) for tok in text.split(","))


def _prime_degrees(k: int) -> range:
    """1..k, the prime degrees a command runs over; k < 1 would check nothing."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got k = {k}")
    return range(1, k + 1)


def _modulus(q: int, n: int, Q: Optional[str] = None):
    """The one place --q, --n and --Q become the `Modulus` a subcommand measures.

    The --Q polynomial, which must have degree n; without it the canonical one, the least monic irreducible.
    """
    from .residue import Modulus

    field = Field.of_order(q)
    if Q is None:
        return Modulus.irreducible(field, n)
    modulus = Modulus(Poly.from_string(field, Q))
    if modulus.n != n:
        raise ValueError(f"Q = {modulus.poly} has degree {modulus.n}, not n = {n}")
    return modulus


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_weil(args) -> int:
    """Root-modulus dichotomy |alpha| in {1, sqrt q} for every non-principal chi."""
    from .characters import character_labels
    from .experiments import ROW_CHUNK, float_texts, row_chunks
    from .lfun import WEIL_CLASSES, inverse_roots, lpolynomial_coeffs, weil_classes

    modulus = _modulus(args.q, args.n, args.Q)
    L = inverse_roots(lpolynomial_coeffs(modulus, args.workers))
    roots = L.flat_roots()
    mod, cls, dev = weil_classes(roots, args.q, args.tol)
    ok = not (cls == WEIL_CLASSES.index("violation")).any()
    labels = character_labels(modulus)[1:]

    def csv_rows():
        """The CSV rows; the roots' float columns are formatted one chunk of rows at a time."""
        label_texts = np.array([_csv_label(label) + "," for label in labels], dtype=object)
        class_texts = np.array([f",{c}," for c in WEIL_CLASSES], dtype=object)
        residual_texts = np.array([t + "\n" for t in float_texts(L.residual)], dtype=object)
        cols = (
            np.repeat(label_texts, L.degree), roots.real, ",", roots.imag, ",", mod,
            class_texts[cls], np.repeat(residual_texts, L.degree),
        )
        return (text for text, in row_chunks([cols], len(roots)))

    def json_lines():
        """One JSON line per character; the arrays become lists one block of characters at a time."""
        starts = np.concatenate(([0], np.cumsum(L.degree))).tolist()  # labels[c]'s roots: starts[c]:starts[c + 1]
        # every character has at most roots.shape[1] roots (none at n = 1), so a block holds at most ROW_CHUNK
        step = max(1, ROW_CHUNK // max(1, L.roots.shape[1]))
        for c0 in range(0, len(labels), step):
            c1 = min(c0 + step, len(labels))
            lo, hi = starts[c0], starts[c1]
            pairs = np.stack([L.coeffs[c0:c1].real, L.coeffs[c0:c1].imag], axis=-1).tolist()
            res = L.residual[c0:c1].tolist()
            cols = (col[lo:hi].tolist() for col in (roots.real, roots.imag, mod, cls))
            recs = [{"re": r, "im": i, "modulus": m, "class": WEIL_CLASSES[k]} for r, i, m, k in zip(*cols)]
            rows = (
                {"chi": labels[c], "coeffs": pairs[c - c0], "residuals": res[c - c0], "roots": recs[starts[c] - lo : starts[c + 1] - lo]}
                for c in range(c0, c1)
            )
            yield "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)

    if args.format == "csv":
        _emit_texts(itertools.chain(["chi,re,im,modulus,class,residual\n"], csv_rows()), args.out)
    elif args.format == "json":
        _emit_texts(json_lines(), args.out)
    else:
        _emit(
            [
                f"q={args.q} n={modulus.n} Q={modulus.poly}: {len(labels)} non-principal characters",
                f"root moduli allowed: 1 or sqrt(q)={math.sqrt(args.q):.6f}, tolerance {args.tol}",
                f"max deviation observed: {float(dev.max(initial=0.0)):.3e}  ->  {'PASS' if ok else 'FAIL'}",
            ],
            args.out,
        )
    return EXIT_OK if ok else EXIT_MATH


def cmd_primes_bound(args) -> int:
    """|sum over irreducibles of degree k of chi(P)| vs (n+1) q^(k/2) / k."""
    from .characters import character_labels
    from .experiments import row_chunks
    from .lfun import inverse_roots, lpolynomial_coeffs, prime_sum_bound, prime_sum_spectrum, von_mangoldt_spectrum

    degrees = _prime_degrees(args.k)
    modulus = _modulus(args.q, args.n, args.Q)
    order = modulus.unit_group.group_order
    roots = inverse_roots(lpolynomial_coeffs(modulus, args.workers)) if args.identity else None
    # one DFT per degree, largest first: a degree above the dense limit is refused before any is built
    spectra = {k: prime_sum_spectrum(modulus, k) for k in reversed(degrees)}
    # row (j - 1) * len(degrees) + (k - 1) is character j at degree k
    bounds = np.array([prime_sum_bound(modulus, k) for k in degrees])
    row_bounds = np.tile(bounds, order - 1)
    mags = np.abs(np.stack([spectra[k][1:] for k in degrees], axis=1)).ravel()
    ratios = mags / row_bounds
    ok = not (mags > row_bounds + args.tol).any()
    worst_ratio = float(ratios.max(initial=0.0))
    errs = None
    if args.identity:
        errs = np.stack(
            [von_mangoldt_spectrum(modulus, k, spectra)[1:] + roots.power_sums(k) for k in degrees], axis=1
        ).ravel()
        # np.hypot, not np.abs: it matches Python's abs(complex) to the last digit
        errs = np.hypot(errs.real, errs.imag)
        worst_ident = float(errs.max(initial=0.0))
        ok = ok and not (errs > 1e-6).any()

    def row_texts():
        """The CSV rows; the float columns are formatted one chunk of rows at a time."""
        labels = np.array([_csv_label(label) + "," for label in character_labels(modulus)[1:]], dtype=object)
        # the degree and its bound cycle with the row
        k_texts = np.array([f"{k}," for k in degrees], dtype=object)
        bound_texts = np.array([f",{b!r}," for b in bounds.tolist()], dtype=object)
        cols = (
            np.repeat(labels, len(degrees)), np.tile(k_texts, order - 1), mags,
            np.tile(bound_texts, order - 1), ratios, ",", errs if args.identity else "", "\n",
        )
        return (text for text, in row_chunks([cols], len(mags)))

    if args.format == "csv":
        _emit_texts(itertools.chain(["chi,k,abs_sum,bound,ratio,identity_err\n"], row_texts()), args.out)
    elif args.format == "json":
        _emit_texts(_json_rows(row_texts()), args.out)
    else:
        lines = [
            f"q={args.q} n={modulus.n}: prime-degree sums for {order - 1} characters, k <= {args.k}",
            f"worst |sum|/bound ratio: {worst_ratio:.6f} (must stay <= 1)",
        ]
        if args.identity:
            lines.append(f"worst log-derivative identity error: {worst_ident:.3e} (tol 1e-6)")
        lines.append("PASS" if ok else "FAIL")
        _emit(lines, args.out)
    return EXIT_OK if ok else EXIT_MATH


def cmd_smooth_count(args) -> int:
    """Exact N(d, r) with the q^d rho(d/r) prediction; optional enumeration check."""
    from .smooth import SoundararajanReport, default_dickman_table, smooth_count_by_enumeration, soundararajan_check

    ds = _parse_range(args.d)
    rs = None if args.r is None else _parse_range(args.r)
    # refused before the Dickman table is built for u = d/r
    if min(ds) < 0:
        raise ValueError(f"d must be >= 0, got {min(ds)}")
    if rs and min(rs) < 1:
        raise ValueError(f"r must be >= 1, got {min(rs)}")
    rows = [SoundararajanReport.CSV_HEADER]
    ok = True
    cells = [(d, r) for d in ds for r in (range(1, d + 1) if rs is None else rs) if r <= d]
    if args.enum_check and cells:
        # refused before the Dickman table or any factor-degree profile is built
        field = Field.of_order(args.q)
        over = next((d for d, _ in cells if args.q**d > args.budget), None)
        if over is not None:
            print(f"--enum-check at d = {over}: q^d = {args.q**over} exceeds the work budget {args.budget}", file=sys.stderr)
            return EXIT_BUDGET
    if cells:
        # one table for the largest u = d/r: a table grown one u at a time re-marches from panel 0
        default_dickman_table(max(math.ceil(d / r) for d, r in cells))
    for d, r in cells:
        rep = soundararajan_check(args.q, d, r)
        rows.append(rep.csv_row())
        if args.enum_check:
            got = smooth_count_by_enumeration(field, d, r)
            if got != rep.n_exact:
                print(f"MISMATCH at d={d}, r={r}: series {rep.n_exact} vs enumeration {got}", file=sys.stderr)
                ok = False
    if args.format == "csv":
        _emit(rows, args.out)
    elif args.format == "json":
        _emit_texts(_json_rows(rows[1:]), args.out)
    else:
        _emit(rows, args.out)  # the table is the human output too
    return EXIT_OK if ok else EXIT_MATH


def cmd_dickman(args) -> int:
    """Dickman solver checks: closed form on [1,2], residuals, decay bound."""
    from .smooth import default_dickman_table, dickman_residual

    table = default_dickman_table(args.u_max)
    us = np.linspace(1.0, 2.0, 1000)
    log_err = max(abs(table.rho(float(u)) - (1 - math.log(u))) for u in us)
    res_err = max(
        dickman_residual(table, float(u)) for u in np.linspace(1.5, float(args.u_max), 2 * args.u_max)
    )
    decay_ok = all(
        table.rho(float(u)) <= math.exp(-u * math.log(u))
        for u in np.linspace(10.0, float(args.u_max), 41)
        if u >= 10
    )
    ok = log_err <= 1e-9 and res_err <= 1e-6 and decay_ok
    rows = ["u,rho,residual"]
    for u in np.linspace(0.0, float(args.u_max), 4 * args.u_max + 1):
        r = table.rho(float(u))
        rows.append(f"{float(u)!r},{r!r},{dickman_residual(table, float(u))!r}")
    if args.format == "csv":
        _emit(rows, args.out)
    elif args.format == "json":
        _emit(
            [
                json.dumps(
                    {
                        "u_max": args.u_max,
                        "log_branch_err": log_err,
                        "max_residual": res_err,
                        "decay_bound_ok": decay_ok,
                    },
                    sort_keys=True,
                )
            ],
            args.out,
        )
    else:
        _emit(
            [
                f"rho on [1,2] vs 1 - log u: max err {log_err:.3e} (tol 1e-9)",
                f"defining-equation residual on (1, {args.u_max}]: max {res_err:.3e} (tol 1e-6)",
                f"rho(u) <= exp(-u log u) on [10, {args.u_max}]: {decay_ok}",
                "PASS" if ok else "FAIL",
            ],
            args.out,
        )
    return EXIT_OK if ok else EXIT_MATH


def _grid_cfg(args, **select):
    from .experiments import ExperimentConfig

    return ExperimentConfig(
        q=args.q,
        ns=_parse_range(args.n_list),
        ds=_parse_range(args.d),
        rs=_parse_range(args.r),
        workers=args.workers,
        budget=args.budget,
        allow_out_of_range=not args.strict_range,
        out=args.out or sys.stdout,
        jsonl=args.format == "json",
        resume=args.resume,
        **select,
    )


def _grid_common(args, runner, label: str, **select) -> int:
    res = runner(_grid_cfg(args, **select))
    if args.format == "human":
        K = res.max_implied_constant
        print(f"{label}: {res.n_records} records, max implied constant {K!r}", file=sys.stderr)
        if res.skipped:
            print(f"skipped combos: {res.skipped}", file=sys.stderr)
    if any(reason == "budget" for _, reason in res.skipped):
        return EXIT_BUDGET
    return EXIT_OK


def cmd_main_thm(args) -> int:
    """Short sum vs smooth sum with the n q^(-r/2) q^d error scale."""
    from .experiments import run_main_theorem_grid

    select = dict(char_policy=args.policy, sample_k=args.sample_k, seed=args.seed)
    return _grid_common(args, run_main_theorem_grid, "main comparison grid", **select)


def cmd_corollary(args) -> int:
    """Normalized short sums against the epsilon bound, worst character per combo."""
    from .experiments import run_corollary_grid

    return _grid_common(args, run_corollary_grid, "corollary grid")


def cmd_density(args) -> int:
    """Primitive density in A_d vs phi(N-1)/(N-1) with exact bound checks."""
    from .primitive import density_experiment, report_json, schedule_degree

    d = args.d
    if d is None:
        if args.eps is None:
            print("error: provide --d, or --eps (with --C) to derive it", file=sys.stderr)
            return EXIT_USAGE
        d = schedule_degree(args.q, args.n, args.eps, args.C)
        print(f"schedule: eps={args.eps}, C={args.C} -> d={d}", file=sys.stderr)
    # at d >= n the A_d histogram has a closed form: only d < n enumerates the q^d polynomials
    if d < args.n and args.q**d > args.budget:
        print(f"q^d = {args.q**d} exceeds the work budget {args.budget}", file=sys.stderr)
        return EXIT_BUDGET
    rep = density_experiment(_modulus(args.q, args.n), d, C2=args.C2, C3=args.C3, workers=args.workers)
    if args.format == "json":
        _emit([json.dumps(report_json(rep), sort_keys=True)], args.out)
    elif args.format == "csv":
        j = report_json(rep)
        keys = list(j)
        _emit([",".join(keys), ",".join(str(j[k]) for k in keys)], args.out)
    else:
        _emit(
            [
                f"q={rep.q} n={rep.n} d={rep.d} Q={rep.Q_text}",
                f"primitive count |Q(d)| = {rep.count} of {rep.q**rep.d} (density {float(rep.density):.10f})",
                f"target phi(N-1)/(N-1) = {float(rep.target):.10f}",
                f"deviation = {float(rep.deviation):.3e} vs exact char bound {rep.char_bound:.3e} "
                f"(ratio {float(rep.deviation) / rep.char_bound if rep.char_bound else float('nan'):.4f})",
                f"epsilon bound (C2={args.C2}, C3={args.C3}, best r={rep.eps_r}): "
                f"2^omega eps = {rep.predicted_bound:.3e}",
                "PASS" if rep.char_bound_holds else "FAIL",
            ],
            args.out,
        )
    return EXIT_OK if rep.char_bound_holds else EXIT_MATH


def cmd_sieve(args) -> int:
    """S_m congruence counts, T, and the character identity cross-check."""
    from .primitive import report_json, sieve_quantities

    rep = sieve_quantities(_modulus(args.q, args.n), args.d, c1=args.c1, c2=args.c2, workers=args.workers)
    ok = rep.T == rep.primitive_count_direct and rep.char_identity_max_err <= 1e-6
    if args.format == "json":
        _emit([json.dumps(report_json(rep), sort_keys=True)], args.out)
    elif args.format == "csv":
        rows = ["m,S_m,A_over_m"]
        for m, v in sorted(rep.S.items()):
            rows.append(f"{m},{v},{rep.A / m!r}")
        rows.append(f"T,{rep.T},")
        _emit(rows, args.out)
    else:
        _emit(
            [
                f"q={rep.q} n={rep.n} d={rep.d} Q={rep.Q_text}, radical(N-1)={rep.radical}",
                *(f"S_{m} = {v}  (A/m = {rep.A / m:.3f})" for m, v in sorted(rep.S.items())),
                f"T = {rep.T}, direct primitive count = {rep.primitive_count_direct}",
                f"max |S_m - (1/m) sum A(d,chi)| = {rep.char_identity_max_err:.3e} (tol 1e-6)",
                f"B observed = {float(rep.B_observed)!r}, q^d eps = {rep.eps_B!r}, within: {rep.B_within_eps}",
                *(
                    [f"sieve lower bound with (c1,c2)=({args.c1},{args.c2}): T >= {rep.lower_bound!r}"]
                    if rep.lower_bound is not None
                    else []
                ),
                "PASS" if ok else "FAIL",
            ],
            args.out,
        )
    return EXIT_OK if ok else EXIT_MATH


def cmd_mertens(args) -> int:
    """Partial Euler product over deg P <= k against e^gamma k."""
    from .lfun import mertens_products

    rows = ["k,product,ratio"] + [f"{m.k},{m.product!r},{m.ratio!r}" for m in mertens_products(args.q, args.k)]
    if args.format in ("csv", "human"):
        _emit(rows, args.out)
    else:
        _emit_texts(_json_rows(rows[1:]), args.out)
    return EXIT_OK


def cmd_indicator(args) -> int:
    """Character decomposition of the primitivity indicator, pointwise and over A_d."""
    from dataclasses import asdict
    from fractions import Fraction

    from .primitive import primitivity_indicator_check

    rep = primitivity_indicator_check(_modulus(args.q, args.n, args.Q), d=args.d, workers=args.workers)
    ok = rep.max_unit_deviation <= 1e-9
    if args.d is not None:
        ok = ok and rep.decomposition_error <= 1e-6
    if args.format in ("json", "csv"):
        # the report's fields in order, the A_d ones only with d; main_term as its str
        j = {k: str(v) if isinstance(v, Fraction) else v for k, v in asdict(rep).items() if v is not None}
        if args.format == "json":
            _emit([json.dumps(j, sort_keys=True)], args.out)
        else:
            _emit([",".join(j), ",".join(str(v) for v in j.values())], args.out)
    else:
        lines = [
            f"q={rep.q} n={rep.n}: unit group order {rep.group_order}, phi = {rep.phi}",
            f"max |indicator - reconstruction| over units: {rep.max_unit_deviation:.3e} (tol 1e-9)",
            f"primitive units: {rep.primitive_count_units} (phi check: {rep.primitive_count_units == rep.phi})",
        ]
        if args.d is not None:
            lines += [
                f"sum over A_{rep.d}: reconstruction {rep.total_over_Ad!r} vs direct {rep.direct_count_Ad}",
                f"main term {float(rep.main_term)!r} + correction {rep.correction!r} "
                f"(error {rep.decomposition_error:.3e}, tol 1e-6)",
            ]
        lines.append("PASS" if ok else "FAIL")
        _emit(lines, args.out)
    return EXIT_OK if ok else EXIT_MATH


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(p):
    p.add_argument("--q", type=int, required=True, help="field size (prime power)")
    p.add_argument("--n", type=int, required=True, help="modulus degree")
    p.add_argument("--Q", type=str, default=None, help="explicit modulus polynomial (text form)")
    p.add_argument("--tol", type=float, default=1e-6)
    _add_exec(p)


def _add_exec(p):
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--format", choices=("human", "json", "csv"), default="human")
    p.add_argument("--out", type=str, default=None, help="write output to this path")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ffchar",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("weil", help="inverse-root moduli of character L-polynomials are 1 or sqrt(q)")
    _add_common(p)
    p.set_defaults(fn=cmd_weil)

    p = sub.add_parser("primes-bound", help="character sums over degree-k irreducibles obey (n+1)q^(k/2)/k")
    _add_common(p)
    p.add_argument("--k", type=int, default=10, help="largest prime degree")
    p.add_argument("--identity", action="store_true", help="also check the log-derivative power-sum identity")
    p.set_defaults(fn=cmd_primes_bound)

    p = sub.add_parser("smooth-count", help="exact r-smooth counts vs the q^d rho(d/r) density prediction")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--d", type=str, required=True, help="degree or range, e.g. 8 or 4..8")
    p.add_argument("--r", type=str, default=None, help="smoothness bound(s); default 1..d")
    p.add_argument("--enum-check", action="store_true", help="cross-check by exhaustive enumeration")
    p.add_argument("--budget", type=int, default=10**7)
    _add_exec(p)
    p.set_defaults(fn=cmd_smooth_count)

    p = sub.add_parser("dickman", help="smooth-density function: closed form, residuals, decay bound")
    p.add_argument("--u-max", type=int, default=30)
    _add_exec(p)
    p.set_defaults(fn=cmd_dickman)

    for name, helptext, fn in (
        ("main-thm", "short sums vs smooth sums with the n q^(-r/2) q^d error scale", cmd_main_thm),
        ("corollary", "normalized short sums vs the epsilon bound", cmd_corollary),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--q", type=int, required=True)
        p.add_argument("--n-list", type=str, required=True, help="modulus degree(s), e.g. 13 or 4..6")
        p.add_argument("--d", type=str, required=True, help="degrees, e.g. 6..10")
        p.add_argument("--r", type=str, required=True, help="smoothness bounds, e.g. 4..10")
        if name == "main-thm":  # the corollary always takes the worst case ranked by the short norms
            p.add_argument("--policy", choices=("all", "worst-case", "sample-k"), default="all")
            p.add_argument("--sample-k", type=int, default=8)
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--budget", type=int, default=10**7)
        p.add_argument("--strict-range", action="store_true", help="skip combos outside the theorem range")
        p.add_argument("--resume", action="store_true")
        _add_exec(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("density", help="primitive density in A_d vs phi(N-1)/(N-1)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=None, help="degree; omit to derive from --eps and --C")
    p.add_argument("--eps", type=float, default=None, help="target accuracy for the degree schedule")
    p.add_argument("--C", type=float, default=1.0, help="schedule constant (no value asserted)")
    p.add_argument("--C2", type=float, default=1.0, help="constant in the smooth error exponent")
    p.add_argument("--C3", type=float, default=1.0, help="constant on the n q^(-r/2) term")
    p.add_argument("--budget", type=int, default=10**7)
    _add_exec(p)
    p.set_defaults(fn=cmd_density)

    p = sub.add_parser("sieve", help="dlog congruence counts S_m, T and the character identity")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--c1", type=float, default=None, help="sieve constant (no default asserted)")
    p.add_argument("--c2", type=float, default=None, help="sieve constant (no default asserted)")
    _add_exec(p)
    p.set_defaults(fn=cmd_sieve)

    p = sub.add_parser("mertens", help="partial Euler product vs e^gamma k")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, default=20)
    _add_exec(p)
    p.set_defaults(fn=cmd_mertens)

    p = sub.add_parser("indicator", help="character decomposition of the primitivity indicator")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--Q", type=str, default=None)
    p.add_argument("--d", type=int, default=None, help="also sum the decomposition over A_d")
    _add_exec(p)
    p.set_defaults(fn=cmd_indicator)

    return ap


def _silence_stdout() -> None:
    """Point stdout at os.devnull: its reader has gone, so what is still buffered goes nowhere."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.workers < 1:
            raise ValueError(f"--workers must be >= 1, got {args.workers}")
        # a nan or inf tolerance, bound constant or sieve constant would print a bound no check can read
        for name in ("tol", "C2", "C3", "c1", "c2"):
            value = getattr(args, name, None)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"--{name} must be finite, got {value}")
        if getattr(args, "tol", 0.0) < 0:
            raise ValueError(f"--tol must be >= 0, got {args.tol}")
        return args.fn(args)
    except BrokenPipeError:
        _silence_stdout()
        return EXIT_PIPE
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ArithmeticError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH


def entry() -> None:
    """Process entry: main(), flush, then exit without interpreter teardown.

    A reader that closes stdout before the last flush gets exit 141, as one
    that closes it mid-run does.  Any other failed flush falls back to the
    normal exit, which reports it as usual.
    """
    rc = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        _silence_stdout()
        rc = EXIT_PIPE
    except (OSError, ValueError):
        sys.exit(rc)
    os._exit(rc)


if __name__ == "__main__":
    entry()
