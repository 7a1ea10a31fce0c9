"""Program evaluation and report emission for the descriptor DSL.

``evaluate`` executes a parsed Program statement by statement: ``let``
builds a descriptor (or runs a pipeline) through ``_CONSTRUCTORS``,
``compute`` resolves its convex Fujita interval and re-verifies every
certificate, and ``assert_confn`` records a pass or fail.  Errors attach
to the offending statement and evaluation continues for independent
varieties.

``corpus`` evaluates the built-in suite of worked examples through the
same code path as user programs.  Emitters produce deterministic JSON
and markdown; timestamps are opt-in so byte-identical reruns stay the
default.
"""

from __future__ import annotations

import datetime
import json
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

from . import dsl
from .certificates import LOWER
from .cones import Cone, ConeError
from .constructions import blowup_point, cyclic_cover, hypersurface_section, product
from .descriptors import (
    DescriptorError,
    IRREGULARITY_ZERO,
    VarietyDescriptor,
    abelian,
    complete_intersection,
    curve,
    custom,
    del_pezzo7,
    hirzebruch1,
    projective_space,
)
from .dsl import (
    AssertConfn,
    BoolValue,
    DivisorValue,
    DslError,
    IntValue,
    Let,
    ListValue,
    NameValue,
    Program,
    TYPE,
)
from .engine import FujitaInterval, InconsistencyError, resolve, verify_certificate
from .lattice import (
    DivisibilityAnnotation,
    DivisorClass,
    FullLattice,
    IntersectionForm,
    LatticeError,
    PicardLattice,
)
from .pipelines import (
    PipelineResult,
    pipeline_n2k1,
    pipeline_n3k1,
    pipeline_simple_surface,
    pipeline_simple_variety,
)

REPORT_SCHEMA_VERSION = "1"

# the brute-force oracle's search box: interior points of this sup-norm
ORACLE_RADIUS = 4


@dataclass
class AssertionResult:
    expected: str
    actual: str
    passed: bool


@dataclass
class VarietyRow:
    name: str
    dimension: int | None = None
    picard_rank: int | None = None
    interval: FujitaInterval | None = None
    provenance: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()
    assertions: list[AssertionResult] = field(default_factory=list)
    error: str | None = None
    internal: bool = False
    verified: bool | None = None


@dataclass
class Report:
    rows: list[VarietyRow] = field(default_factory=list)

    @property
    def any_failure(self) -> bool:
        return any(
            r.error is not None or any(not a.passed for a in r.assertions)
            for r in self.rows
        )

    @property
    def any_internal(self) -> bool:
        return any(r.internal or r.verified is False for r in self.rows)


# argument plumbing ----------------------------------------------------


def _collect(stmt: Let, names: tuple[str, ...], required: int) -> dict:
    """Match positional and keyword arguments against parameter names."""
    out: dict[str, object] = {}
    position = 0
    for arg in stmt.arguments:
        if arg.keyword is None:
            if position >= len(names):
                raise DslError(
                    TYPE,
                    f"{stmt.constructor} takes at most {len(names)} arguments",
                    arg.span,
                    "parameters: " + ", ".join(names),
                )
            key = names[position]
            position += 1
        else:
            if arg.keyword not in names:
                raise DslError(
                    TYPE,
                    f"{stmt.constructor} has no parameter {arg.keyword!r}",
                    arg.span,
                    "parameters: " + ", ".join(names),
                )
            key = arg.keyword
        if key in out:
            raise DslError(TYPE, f"duplicate argument {key!r}", arg.span)
        out[key] = arg.value
    for key in names[:required]:
        if key not in out:
            raise DslError(
                TYPE,
                f"{stmt.constructor} is missing required argument {key!r}",
                stmt.span,
                "parameters: " + ", ".join(names),
            )
    return out


def _as_int(node) -> int:
    if not isinstance(node, IntValue):
        raise DslError(TYPE, "expected an integer", node.span)
    return node.value


def _as_bool(node) -> bool:
    if not isinstance(node, BoolValue):
        raise DslError(TYPE, "expected true or false", node.span)
    return node.value


def _as_int_list(node) -> tuple[int, ...]:
    if not isinstance(node, ListValue):
        raise DslError(TYPE, "expected a list of integers", node.span)
    return tuple(_as_int(item) for item in node.items)


def _as_ident_list(node) -> tuple[str, ...]:
    if not isinstance(node, ListValue):
        raise DslError(TYPE, "expected a list of names", node.span)
    out = []
    for item in node.items:
        if not isinstance(item, NameValue):
            raise DslError(TYPE, "expected a bare name", item.span)
        out.append(item.name)
    return tuple(out)


def _as_rows(node) -> tuple[tuple[int, ...], ...]:
    if not isinstance(node, ListValue):
        raise DslError(TYPE, "expected a list of integer rows", node.span)
    return tuple(_as_int_list(item) for item in node.items)


def _as_descriptor(node, env: dict) -> VarietyDescriptor:
    if not isinstance(node, NameValue):
        raise DslError(
            TYPE,
            "expected the name of a previously defined descriptor",
            node.span,
        )
    if node.name not in env:
        raise DslError(dsl.NAME, f"{node.name!r} is not defined", node.span)
    if env[node.name] is None:
        raise DslError(
            dsl.NAME,
            f"{node.name!r} failed to evaluate and cannot be used",
            node.span,
            "fix the earlier error first",
        )
    return env[node.name].descriptor


def _as_divisor(node, desc: VarietyDescriptor) -> DivisorClass:
    basis = desc.lattice.basis
    hint = "basis names here: " + ", ".join(basis)
    if isinstance(node, NameValue):
        if node.name not in basis:
            raise DslError(
                TYPE, f"{node.name!r} is not a basis name of this lattice",
                node.span, hint,
            )
        coeffs = [0] * len(basis)
        coeffs[basis.index(node.name)] = 1
        return desc.lattice.make(coeffs)
    if not isinstance(node, DivisorValue):
        raise DslError(
            TYPE, "expected a divisor literal such as 3*H - E1", node.span, hint
        )
    coeffs = [0] * len(basis)
    for coeff, name in node.terms:
        if name not in basis:
            raise DslError(
                TYPE, f"{name!r} is not a basis name of this lattice",
                node.span, hint,
            )
        coeffs[basis.index(name)] += coeff
    return desc.lattice.make(coeffs)


@dataclass(frozen=True)
class _DivisorOn:
    """Coerce to a divisor on the basis of the descriptor bound to ``param``."""

    param: str


def _ample_only(node) -> bool:
    """hypersurface_section's ``assume``: only 'ample' is meaningful there."""
    names = _as_ident_list(node)
    for name in names:
        if name != "ample":
            raise DslError(
                TYPE,
                f"hypersurface_section does not take assumption {name!r}",
                node.span,
                "only 'ample' is meaningful here",
            )
    return "ample" in names


def _without_ample(node) -> tuple[str, ...]:
    """``assume`` less 'ample': the pipeline vouches for its own polarization,
    and a non-empty ``assume`` would turn off its ``large_d`` default."""
    return tuple(name for name in _as_ident_list(node) if name != "ample")


_CUSTOM_FLAGS = {"irregularity_zero": IRREGULARITY_ZERO}
_CUSTOM_PARAMS = (
    "dimension", "basis", "gram", "canonical", "nef", "flags", "annotations"
)


def _custom(**args):
    """custom's arguments depend on each other, so it coerces its own nodes."""
    dimension = _as_int(args["dimension"])
    basis = _as_ident_list(args["basis"])
    lat = PicardLattice(basis)
    gram = _as_rows(args["gram"])
    if dimension == 2:
        form = IntersectionForm.from_gram(lat, [list(row) for row in gram])
    elif len(basis) == 1 and len(gram) == 1 and len(gram[0]) == 1:
        form = IntersectionForm.rank_one(lat, dimension, gram[0][0])
    else:
        raise DslError(
            TYPE,
            "custom forms are limited to surfaces (a gram matrix) or rank-1 "
            "lattices (a 1x1 top intersection number)",
            args["gram"].span,
        )
    lat_probe = custom(
        dimension=dimension,
        lattice=lat,
        form=form,
        canonical=lat.make([0] * len(basis)),
    )
    canonical = _as_divisor(args["canonical"], lat_probe)
    nef = None
    if "nef" in args:
        nef = Cone(lat, _as_rows(args["nef"]))
    flags = []
    if "flags" in args:
        for name in _as_ident_list(args["flags"]):
            if name not in _CUSTOM_FLAGS:
                raise DslError(
                    TYPE,
                    f"unsupported flag {name!r}",
                    args["flags"].span,
                    "supported: " + ", ".join(sorted(_CUSTOM_FLAGS)),
                )
            flags.append(_CUSTOM_FLAGS[name])
    annotations = ()
    if "annotations" in args:
        annotations = tuple(
            DivisibilityAnnotation(m, FullLattice())
            for m in _as_int_list(args["annotations"])
        )
    return custom(
        dimension=dimension,
        lattice=lat,
        form=form,
        canonical=canonical,
        nef=nef,
        flags=flags,
        annotations=annotations,
    )


class _Constructor(NamedTuple):
    """A DSL constructor: its parameters, how many are required, its call.

    ``params`` pairs each name, in positional order, with a coercer: a
    function of the argument node, ``_as_descriptor`` for a reference to an
    earlier definition, a ``_DivisorOn``, or None to pass the node through.
    ``call`` takes the coerced arguments as keywords.  It names the library
    function inside its body, so a function rebound on this module (as the
    benchmark's tracer does) is the one that runs.
    """

    params: tuple[tuple[str, object], ...]
    required: int
    call: Callable[..., VarietyDescriptor | PipelineResult]


# keyed in dsl.CONSTRUCTORS order
_CONSTRUCTORS = {
    "projective_space": _Constructor(
        (("n", _as_int),), 1, lambda n: projective_space(n)
    ),
    "complete_intersection": _Constructor(
        (("n", _as_int), ("degrees", _as_int_list), ("very_general", _as_bool)),
        2,
        lambda n, degrees, very_general=False: complete_intersection(
            n, degrees, very_general=very_general
        ),
    ),
    "curve": _Constructor((("genus", _as_int),), 1, lambda genus: curve(genus)),
    "hirzebruch1": _Constructor((), 0, lambda: hirzebruch1()),
    "delpezzo7": _Constructor((), 0, lambda: del_pezzo7()),
    "abelian": _Constructor((("n", _as_int),), 1, lambda n: abelian(n)),
    "custom": _Constructor(
        tuple((name, None) for name in _CUSTOM_PARAMS), 4, _custom
    ),
    "product": _Constructor(
        (("x", _as_descriptor), ("y", _as_descriptor)), 2, lambda x, y: product(x, y)
    ),
    "blowup_point": _Constructor(
        (("surface", _as_descriptor),), 1, lambda surface: blowup_point(surface)
    ),
    "hypersurface_section": _Constructor(
        (
            ("parent", _as_descriptor),
            ("ample", _DivisorOn("parent")),
            ("p", _as_int),
            ("assume", _ample_only),
        ),
        3,
        lambda parent, ample, p, assume=False: hypersurface_section(
            parent, ample, p, assume_ample=assume
        ),
    ),
    "cyclic_cover": _Constructor(
        (
            ("parent", _as_descriptor),
            ("branch", _DivisorOn("parent")),
            ("degree", _as_int),
            ("assume", _as_ident_list),
        ),
        3,
        lambda parent, branch, degree, assume=(): cyclic_cover(
            parent, branch, degree, assume=assume
        ),
    ),
    "pipeline_n2k1": _Constructor(
        (("surface", _as_descriptor),), 1, lambda surface: pipeline_n2k1(surface)
    ),
    "pipeline_n3k1": _Constructor(
        (("surface", _as_descriptor), ("polarization", _DivisorOn("surface"))),
        2,
        lambda surface, polarization: pipeline_n3k1(surface, polarization),
    ),
    "pipeline_simple_surface": _Constructor(
        (("parent", _as_descriptor), ("ample", _DivisorOn("parent")), ("p", _as_int)),
        3,
        lambda parent, ample, p: pipeline_simple_surface(parent, ample, p),
    ),
    "pipeline_simple_variety": _Constructor(
        (
            ("parent", _as_descriptor),
            ("branch", _DivisorOn("parent")),
            ("d", _as_int),
            ("assume", _without_ample),
        ),
        3,
        lambda parent, branch, d, assume=(): pipeline_simple_variety(
            parent, branch, d, assume=assume
        ),
    ),
}


def _construct(stmt: Let, env: dict) -> PipelineResult:
    """Build the binding of one ``let``: collect, coerce in order, call."""
    ctor = _CONSTRUCTORS[stmt.constructor]
    nodes = _collect(stmt, tuple(name for name, _ in ctor.params), ctor.required)
    args: dict[str, object] = {}
    for name, coerce in ctor.params:
        if name not in nodes:
            continue
        node = nodes[name]
        if coerce is None:
            args[name] = node
        elif coerce is _as_descriptor:
            args[name] = _as_descriptor(node, env)
        elif isinstance(coerce, _DivisorOn):
            args[name] = _as_divisor(node, args[coerce.param])
        else:
            args[name] = coerce(node)
    result = ctor.call(**args)
    return result if isinstance(result, PipelineResult) else PipelineResult(result)


# evaluation -----------------------------------------------------------


def provenance_lines(desc: VarietyDescriptor, depth: int = 0) -> list[str]:
    prov = desc.provenance
    params = ", ".join(f"{k}={v}" for k, v in prov.parameters)
    line = "  " * depth + prov.constructor + "(" + params + ")"
    lines = [line]
    for assertion in prov.assertions:
        lines.append("  " * (depth + 1) + f"assumes {assertion.name}")
    for parent in prov.parents:
        lines.extend(provenance_lines(parent, depth + 1))
    return lines


def _row_for(report: Report, rows: dict[str, VarietyRow], name: str) -> VarietyRow:
    """The row named ``name``, appended to the report when first seen."""
    row = rows.get(name)
    if row is None:
        row = rows[name] = VarietyRow(name=name)
        report.rows.append(row)
    return row


def _oracle_disagrees(desc: VarietyDescriptor, interval: FujitaInterval, max_m: int):
    """Cross-check an exact nef-threshold value against the brute-force search.

    Returns an error message on disagreement, None otherwise.  The check
    searches interior points of sup-norm at most ``ORACLE_RADIUS`` and only
    up to max_m adjoint summands; larger values are taken on the strength
    of the certificates alone.  Below the value it looks for a refutation
    only when the lower certificate's tuple lies inside that box, since
    the exact threshold may be witnessed by points outside it.
    """
    from .cones import brute_force_refute
    from .descriptors import ExactEqualsNef

    if not isinstance(desc.gg, ExactEqualsNef) or desc.nef is None:
        return None
    if not interval.exact or interval.lo > max_m:
        return None
    value = interval.lo
    tuples = [
        c.witness_data()["tuple"]
        for c in interval.certificates
        if c.rule == "exact-threshold" and c.kind == LOWER
    ]
    in_box = all(abs(x) <= ORACLE_RADIUS for t in tuples for p in t for x in p)
    refute = partial(brute_force_refute, desc.nef, desc.canonical, radius=ORACLE_RADIUS)
    if value >= 1 and in_box and refute(value - 1) is None:
        return (
            f"oracle disagreement: no refutation found at {value - 1} summands "
            f"although the resolved value is {value}"
        )
    if refute(value) is not None:
        return (
            f"oracle disagreement: a refutation exists at {value} summands "
            f"although the resolved value is {value}"
        )
    return None


def _compute_row(row: VarietyRow, binding: PipelineResult, max_m: int) -> None:
    if row.interval is not None or row.error is not None:
        return
    desc = binding.descriptor
    assert desc is not None
    row.dimension = desc.dimension
    row.picard_rank = desc.rank
    row.provenance = tuple(provenance_lines(desc))
    row.notes = binding.notes
    try:
        interval = resolve(desc)
    except InconsistencyError as exc:
        row.error = f"internal inconsistency: {exc}"
        row.internal = True
        return
    except (DescriptorError, ConeError, LatticeError) as exc:
        row.error = str(exc)
        return
    row.interval = interval
    row.verified = all(
        verify_certificate(desc, cert) for cert in interval.certificates
    )
    if not row.verified:
        row.error = "a certificate failed independent re-verification"
        return
    disagreement = _oracle_disagrees(desc, interval, max_m)
    if disagreement is not None:
        row.error = disagreement
        row.internal = True


def evaluate(program: Program, radius: int = 16, max_m: int = 6) -> Report:
    """Run a program and collect one row per named variety.

    ``radius`` is accepted for compatibility and reaches no search: cone
    queries are exact.  ``max_m`` caps the brute-force oracle.
    """
    report = Report()
    rows: dict[str, VarietyRow] = {}
    # None marks a definition that failed
    env: dict[str, PipelineResult | None] = {}
    for stmt in program.statements:
        if isinstance(stmt, Let):
            try:
                env[stmt.name] = _construct(stmt, env)
            except (
                DslError, DescriptorError, ConeError, LatticeError, InconsistencyError
            ) as exc:
                env[stmt.name] = None
                row = _row_for(report, rows, stmt.name)
                row.error = str(exc)
                if isinstance(exc, InconsistencyError):
                    row.error = f"internal inconsistency: {exc}"
                    row.internal = True
            continue
        binding = env[stmt.name]
        row = _row_for(report, rows, stmt.name)
        asserting = isinstance(stmt, AssertConfn)
        if binding is None:
            if row.error is None:
                what = "assert" if asserting else "compute"
                row.error = f"definition failed earlier; nothing to {what}"
            continue
        _compute_row(row, binding, max_m)
        if not asserting or row.interval is None:
            continue
        interval = row.interval
        if stmt.exact is not None:
            expected = str(stmt.exact)
            passed = interval.exact and interval.lo == stmt.exact
        else:
            expected = f"in [{stmt.lo}, {stmt.hi}]"
            passed = stmt.lo <= interval.lo and interval.hi <= stmt.hi
        row.assertions.append(AssertionResult(expected, str(interval), passed))
    return report


# the built-in corpus --------------------------------------------------

CORPUS_PROGRAM = """\
# projective spaces: the adjoint threshold is n + 1
let P1 = projective_space(1)
let P2 = projective_space(2)
let P3 = projective_space(3)
let P4 = projective_space(4)
let P5 = projective_space(5)
let P6 = projective_space(6)
compute P1
assert_confn P1 = 2
compute P2
assert_confn P2 = 3
compute P3
assert_confn P3 = 4
compute P4
assert_confn P4 = 5
compute P5
assert_confn P5 = 6
compute P6
assert_confn P6 = 7

# complete intersections: the adjunction ladder in dimension 3 and up
let quadric3 = complete_intersection(3, degrees = [2])
compute quadric3
assert_confn quadric3 = 3
let cubic3 = complete_intersection(3, degrees = [3])
compute cubic3
assert_confn cubic3 = 2
let quartic3 = complete_intersection(3, degrees = [4])
compute quartic3
assert_confn quartic3 = 1
let quintic3 = complete_intersection(3, degrees = [5])
compute quintic3
assert_confn quintic3 = 0
let ci22_3 = complete_intersection(3, degrees = [2, 2])
compute ci22_3
assert_confn ci22_3 = 2
let ci22_4 = complete_intersection(4, degrees = [2, 2])
compute ci22_4
assert_confn ci22_4 = 3

# very general surfaces in P3 with the hyperplane Picard lattice
let quartic_surface = complete_intersection(2, degrees = [4], very_general = true)
compute quartic_surface
assert_confn quartic_surface = 0
let quintic_surface = complete_intersection(2, degrees = [5], very_general = true)
compute quintic_surface
assert_confn quintic_surface = 0

# blow-ups of the plane
let F1 = hirzebruch1()
compute F1
assert_confn F1 = 2
let dP7 = delpezzo7()
compute dP7
assert_confn dP7 = 1

# abelian varieties resolve to an interval, not an exact value
let A2 = abelian(2)
compute A2
assert_confn A2 in [0, 2]
let A3 = abelian(3)
compute A3
assert_confn A3 in [0, 2]

# a bare surface with no structure gets only the generic bounds
let plain_surface = custom(dimension = 2, basis = [H], gram = [[1]], canonical = 3*H)
compute plain_surface
assert_confn plain_surface in [0, 3]

# products
let F1xP1 = product(F1, P1)
compute F1xP1
assert_confn F1xP1 = 2
let dP7xP1 = product(dP7, P1)
compute dP7xP1
assert_confn dP7xP1 = 2

# a high-degree cyclic cover in dimension 4 is immediately simple
let cover_p4_d7 = cyclic_cover(P4, branch = H, degree = 7)
compute cover_p4_d7
assert_confn cover_p4_d7 = 0

# surface of general type with every pairing divisible by 24
let S24 = custom(dimension = 2, basis = [H], gram = [[24]], canonical = H, nef = [[1]], annotations = [24])
let N2K1 = pipeline_n2k1(S24)
compute N2K1
assert_confn N2K1 = 1

# double covers of S x P1 for surfaces resolving to at most 2
let N3K1_dP7 = pipeline_n3k1(dP7, polarization = 3*H - E1 - E2)
compute N3K1_dP7
assert_confn N3K1_dP7 = 1
let N3K1_F1 = pipeline_n3k1(F1, polarization = S + 2*F)
compute N3K1_F1
assert_confn N3K1_F1 = 1

# adjoint-trivial models from sections and covers
let simple_surface = pipeline_simple_surface(P3, ample = H, p = 5)
compute simple_surface
assert_confn simple_surface = 0
let simple_variety = pipeline_simple_variety(P3, branch = H, d = 6)
compute simple_variety
assert_confn simple_variety = 0
"""


def corpus(radius: int = 16, max_m: int = 6) -> Report:
    """Evaluate the built-in corpus; ``radius`` is accepted and unused."""
    return evaluate(dsl.parse(CORPUS_PROGRAM), radius=radius, max_m=max_m)


# emission -------------------------------------------------------------


def _interval_json(interval: FujitaInterval | None):
    if interval is None:
        return None
    return {"lo": interval.lo, "hi": interval.hi, "exact": interval.exact}


def _row_json(row: VarietyRow) -> dict:
    return {
        "name": row.name,
        "dimension": row.dimension,
        "picard_rank": row.picard_rank,
        "interval": _interval_json(row.interval),
        "certificates": [
            c.to_json_dict() for c in (row.interval.certificates if row.interval else ())
        ],
        "advisories": list(row.interval.advisories) if row.interval else [],
        "notes": list(row.notes),
        "provenance": list(row.provenance),
        "assertions": [
            {"expected": a.expected, "actual": a.actual, "passed": a.passed}
            for a in row.assertions
        ],
        "error": row.error,
        "verified": row.verified,
    }


def emit_json(report: Report, timestamps: bool = False) -> str:
    payload = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "varieties": [_row_json(r) for r in report.rows],
    }
    if timestamps:
        payload["generated_at"] = datetime.datetime.now(
            datetime.timezone.utc
        ).isoformat()
    return json.dumps(payload, indent=2) + "\n"


def _assertion_cell(row: VarietyRow) -> str:
    if not row.assertions:
        return "-"
    if all(a.passed for a in row.assertions):
        return "PASS"
    parts = [
        f"FAIL (expected {a.expected}, got {a.actual})"
        for a in row.assertions
        if not a.passed
    ]
    return "; ".join(parts)


def emit_markdown(report: Report, timestamps: bool = False) -> str:
    lines = ["# convex Fujita number report", ""]
    if timestamps:
        stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
        lines += [f"generated: {stamp}", ""]
    lines += [
        "| name | dim | rank | conFN | rules | assertion |",
        "| --- | ---: | ---: | :---: | --- | :---: |",
    ]
    citations: dict[str, str] = {}
    for row in report.rows:
        if row.error is not None and row.interval is None:
            lines.append(
                f"| {row.name} | - | - | error | - | {_assertion_cell(row)} |"
            )
            continue
        interval = row.interval
        rules = []
        for cert in interval.certificates if interval else ():
            if cert.rule not in rules:
                rules.append(cert.rule)
            citations.setdefault(cert.rule, cert.citation)
        lines.append(
            "| {name} | {dim} | {rank} | {confn} | {rules} | {assertion} |".format(
                name=row.name,
                dim=row.dimension,
                rank=row.picard_rank,
                confn=str(interval) if interval else "?",
                rules=", ".join(rules) if rules else "-",
                assertion=_assertion_cell(row),
            )
        )
    lines.append("")
    if citations:
        lines.append("## citations")
        lines.append("")
        for rule in sorted(citations):
            lines.append(f"- **{rule}**: {citations[rule]}")
        lines.append("")
    errors = [r for r in report.rows if r.error is not None]
    if errors:
        lines.append("## errors")
        lines.append("")
        for row in errors:
            lines.append(f"- **{row.name}**: {row.error}")
        lines.append("")
    return "\n".join(lines)


def explain_row(row: VarietyRow) -> str:
    lines = [f"{row.name}"]
    if row.error is not None:
        lines.append(f"  error: {row.error}")
        return "\n".join(lines)
    interval = row.interval
    lines.append(
        f"  dimension {row.dimension}, Picard rank {row.picard_rank}, "
        f"convex Fujita number {interval}"
        + (" (exact)" if interval.exact else " (bounds only)")
    )
    lines.append("  provenance:")
    for line in row.provenance:
        lines.append("    " + line)
    if row.notes:
        lines.append("  notes:")
        for note in row.notes:
            lines.append("    " + note)
    lines.append("  certificates:")
    for cert in interval.certificates:
        lines.append(f"    {cert.kind} {cert.value} via {cert.rule}")
        lines.append(f"      {cert.citation}")
        for premise in cert.premises:
            lines.append(f"      premise: {premise}")
        data = cert.witness_data()
        if data:
            compact = json.dumps(data, separators=(", ", ": "))
            if len(compact) > 160:
                compact = compact[:157] + "..."
            lines.append(f"      witness: {compact}")
    if interval.advisories:
        lines.append("  advisories:")
        for adv in interval.advisories:
            lines.append("    " + adv)
    if row.assertions:
        lines.append("  assertions:")
        for a in row.assertions:
            status = "PASS" if a.passed else "FAIL"
            lines.append(f"    {status}: expected {a.expected}, got {a.actual}")
    verified = "yes" if row.verified else "NO"
    lines.append(f"  independently re-verified: {verified}")
    return "\n".join(lines)
