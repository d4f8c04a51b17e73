"""JSON file formats and exact serialization.

Rationals travel as decimal-integer strings or "p/q" strings so every
round trip is bit-exact. Indices are 0-based in files; report text uses
1-based coefficient orders. All emitters sort keys and use fixed
separators, so identical inputs produce byte-identical output.

Certificates are written from their fields: `{"kind": K, ...}`, where K
is the `kind` its certificate class declares, plus every field under its
own name; a field that is None is left out. The flexion block of a
framework report is written the same way.
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction
from typing import Any, Optional

from . import certify, quadsys, rigidity
from .quadsys import GeneralPolySystem, QuadraticSystem
from .ratlinalg import Vector, _is_int, _without_digit_limit, format_scalar, scalar
from .rigidity import Framework
from .series import SeriesCoefficients


class ParseError(ValueError):
    """Malformed or invalid input file."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _scalar_in(raw, path: str, where: str) -> Fraction:
    try:
        return scalar(raw)
    except ValueError:
        raise ParseError(path, f"{where}: not a rational string: {raw!r}") from None
    except TypeError:
        raise ParseError(path, f"{where}: rationals must be strings or integers, "
                               f"got {type(raw).__name__}") from None


def _list_in(raw, path: str, where: str) -> list:
    if not isinstance(raw, list):
        raise ParseError(path, f"{where} must be a list, got {type(raw).__name__}")
    return raw


def _known_fields(obj: dict, allowed: tuple[str, ...], path: str, where: str) -> None:
    # a misspelt field would otherwise be dropped and its default read in its place
    for key in obj:
        if key not in allowed:
            raise ParseError(path, f"{where}: unknown field {key!r}")


def _variables_in(data: dict, path: str) -> list[str]:
    variables = data.get("variables")
    if not (isinstance(variables, list) and variables
            and all(isinstance(v, str) for v in variables)):
        raise ParseError(path, "'variables' must be a non-empty list of names")
    if len(set(variables)) != len(variables):
        raise ParseError(path, "'variables' names a variable twice")
    return variables


def _base_point_in(data: dict, m: int, path: str) -> Optional[Vector]:
    if "base_point" not in data:
        return None
    raw = data["base_point"]
    if not isinstance(raw, list) or len(raw) != m:
        raise ParseError(path, f"'base_point' must list {m} rationals")
    return tuple(_scalar_in(x, path, f"base_point[{i}]") for i, x in enumerate(raw))


def _vector_out(v) -> list[str]:
    return [format_scalar(x) for x in v]


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _without_digit_limit(json.load, fh)
    except FileNotFoundError:
        raise ParseError(path, "file not found") from None
    except OSError as exc:  # a directory, no permission, ...
        raise ParseError(path, f"cannot read: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(path, f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except UnicodeDecodeError:
        raise ParseError(path, "not UTF-8 text") from None
    except RecursionError:
        raise ParseError(path, "JSON nested too deeply") from None


# ---------------------------------------------------------------------------
# Quadratic systems


def system_to_dict(sys: QuadraticSystem, base_point: Optional[Vector] = None) -> dict:
    """Files list every nonzero entry of the symmetric matrix alpha^k in
    row-major order, so an off-diagonal term appears as both (i, j) and
    (j, i), each carrying the stored half."""
    equations = []
    for quad, lin, g in zip(sys.alpha, sys.beta, sys.gamma):
        entries = sorted(list(quad) + [(j, i, c) for i, j, c in quad if i != j])
        alpha = [[i, j, format_scalar(c)] for i, j, c in entries]
        beta = [[i, format_scalar(c)] for i, c in lin]
        equations.append({"alpha": alpha, "beta": beta, "gamma": format_scalar(g)})
    out = {"variables": list(sys.variable_names), "equations": equations}
    if base_point is not None:
        out["base_point"] = _vector_out(base_point)
    return out


def system_from_dict(data: dict, path: str = "<memory>") -> tuple[QuadraticSystem, Optional[Vector]]:
    if not isinstance(data, dict) or "equations" not in data:
        raise ParseError(path, "expected an object with an 'equations' field")
    # `series` is the starting series of `flexcert extend`
    _known_fields(data, ("variables", "equations", "base_point", "series"), path, "system")
    variables = _variables_in(data, path)
    m = len(variables)
    alphas, betas, gammas = [], [], []
    for k, eq in enumerate(_list_in(data["equations"], path, "'equations'")):
        where = f"equations[{k}]"
        if not isinstance(eq, dict):
            raise ParseError(path, f"{where}: expected an object")
        _known_fields(eq, ("alpha", "beta", "gamma"), path, where)
        a = []
        for t, triple in enumerate(_list_in(eq.get("alpha", []), path, f"{where}.alpha")):
            if not (isinstance(triple, list) and len(triple) == 3):
                raise ParseError(path, f"{where}.alpha[{t}]: expected [i, j, value]")
            i, j, raw = triple
            if not (_is_int(i) and _is_int(j) and 0 <= i < m and 0 <= j < m):
                raise ParseError(path, f"{where}.alpha[{t}]: index out of range")
            a.append((i, j, _scalar_in(raw, path, f"{where}.alpha[{t}]")))
        b = []
        for t, pair in enumerate(_list_in(eq.get("beta", []), path, f"{where}.beta")):
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ParseError(path, f"{where}.beta[{t}]: expected [i, value]")
            i, raw = pair
            if not (_is_int(i) and 0 <= i < m):
                raise ParseError(path, f"{where}.beta[{t}]: index out of range")
            b.append((i, _scalar_in(raw, path, f"{where}.beta[{t}]")))
        alphas.append(a)
        betas.append(b)
        gammas.append(_scalar_in(eq.get("gamma", "0"), path, f"{where}.gamma"))
    if not alphas:
        raise ParseError(path, "system needs at least one equation")
    sys = quadsys.validate_and_symmetrize(m, alphas, betas, gammas, variables)
    return sys, _base_point_in(data, m, path)


def load_system(path: str) -> tuple[QuadraticSystem, Optional[Vector]]:
    return system_from_dict(load_json(path), path)


# ---------------------------------------------------------------------------
# General polynomial systems


def poly_from_dict(
    data: dict, path: str = "<memory>"
) -> tuple[GeneralPolySystem, Optional[Vector]]:
    if not isinstance(data, dict) or "equations" not in data:
        raise ParseError(path, "expected an object with an 'equations' field")
    _known_fields(data, ("variables", "equations", "base_point"), path, "polynomial system")
    variables = _variables_in(data, path)
    m = len(variables)
    eqs = []
    for k, eq in enumerate(_list_in(data["equations"], path, "'equations'")):
        where = f"equations[{k}]"
        if not isinstance(eq, dict) or "terms" not in eq:
            raise ParseError(path, f"{where}: expected an object with 'terms'")
        _known_fields(eq, ("terms",), path, where)
        terms: dict[tuple[int, ...], Fraction] = {}
        for t, term in enumerate(_list_in(eq["terms"], path, f"{where}.terms")):
            if not isinstance(term, dict):
                raise ParseError(path, f"{where}.terms[{t}]: expected an object")
            _known_fields(term, ("exponents", "coeff"), path, f"{where}.terms[{t}]")
            exps = term.get("exponents")
            if not (isinstance(exps, list) and len(exps) == m
                    and all(_is_int(e) and e >= 0 for e in exps)):
                raise ParseError(path, f"{where}.terms[{t}]: bad exponent vector")
            key = tuple(exps)
            terms[key] = terms.get(key, Fraction(0)) + _scalar_in(
                term.get("coeff"), path, f"{where}.terms[{t}].coeff"
            )
        eqs.append(terms)
    if not eqs:
        raise ParseError(path, "polynomial system needs at least one equation")
    poly = quadsys.poly_system(eqs, m, variables)
    return poly, _base_point_in(data, m, path)


def load_poly(path: str) -> tuple[GeneralPolySystem, Optional[Vector]]:
    return poly_from_dict(load_json(path), path)


# ---------------------------------------------------------------------------
# Frameworks


def _pins_out(pins) -> list[dict]:
    """Pins grouped by joint: [{"joint": id, "coords": [indices]}], sorted."""
    pins_by_joint: dict[str, list[int]] = {}
    for jid, idx in sorted(pins):
        pins_by_joint.setdefault(jid, []).append(idx)
    return [{"joint": jid, "coords": idxs} for jid, idxs in sorted(pins_by_joint.items())]


def framework_from_dict(data: dict, path: str = "<memory>") -> tuple[Framework, bool]:
    if not isinstance(data, dict):
        raise ParseError(path, "expected an object")
    _known_fields(data, ("dimension", "joints", "bars", "pins", "auto_pin"), path, "framework")
    for key in ("dimension", "joints", "bars"):
        if key not in data:
            raise ParseError(path, f"missing field {key!r}")
    dim = data["dimension"]
    if not _is_int(dim) or dim < 1:
        raise ParseError(path, "'dimension' must be a positive integer")
    joints = {}
    for t, joint in enumerate(_list_in(data["joints"], path, "'joints'")):
        if not isinstance(joint, dict) or "id" not in joint or "coords" not in joint:
            raise ParseError(path, f"joints[{t}]: expected {{id, coords}}")
        _known_fields(joint, ("id", "coords"), path, f"joints[{t}]")
        coords = joint["coords"]
        if not isinstance(coords, list) or len(coords) != dim:
            raise ParseError(path, f"joints[{t}]: expected {dim} coordinates")
        jid = str(joint["id"])
        if jid in joints:
            raise ParseError(path, f"joints[{t}]: duplicate id {jid!r}")
        joints[jid] = [
            _scalar_in(c, path, f"joints[{t}].coords[{i}]") for i, c in enumerate(coords)
        ]
    bars = data["bars"]
    if not isinstance(bars, list) or not bars:
        raise ParseError(path, "'bars' must be a non-empty list of joint pairs")
    for t, bar in enumerate(bars):
        if not (isinstance(bar, list) and len(bar) == 2):
            raise ParseError(path, f"bars[{t}]: expected a pair of joint ids")
    pins = []
    for t, pin in enumerate(_list_in(data.get("pins", []), path, "'pins'")):
        if not isinstance(pin, dict) or "joint" not in pin or "coords" not in pin:
            raise ParseError(path, f"pins[{t}]: expected {{joint, coords}}")
        _known_fields(pin, ("joint", "coords"), path, f"pins[{t}]")
        for idx in _list_in(pin["coords"], path, f"pins[{t}].coords"):
            if not _is_int(idx):
                raise ParseError(path, f"pins[{t}]: coordinate indices must be integers")
            pins.append((str(pin["joint"]), idx))
    try:
        fw = rigidity.framework(dim, joints, bars, pins)
    except rigidity.FrameworkError as exc:
        raise ParseError(path, str(exc)) from None
    auto = data.get("auto_pin", False)
    if not isinstance(auto, bool):
        raise ParseError(path, f"'auto_pin' must be true or false, got {type(auto).__name__}")
    return fw, auto


def load_framework(path: str) -> tuple[Framework, bool]:
    return framework_from_dict(load_json(path), path)


# ---------------------------------------------------------------------------
# Series, certificates, reports


def series_to_dict(s: SeriesCoefficients) -> dict:
    return {
        "degree": s.degree,
        "coefficients": [_vector_out(c) for c in s.coeffs],
    }


def series_from_dict(data: dict, path: str = "<memory>") -> SeriesCoefficients:
    if not isinstance(data, dict) or "coefficients" not in data:
        raise ParseError(path, "expected an object with 'coefficients'")
    _known_fields(data, ("degree", "coefficients"), path, "series")
    coeffs = []
    for p, row in enumerate(_list_in(data["coefficients"], path, "'coefficients'")):
        if not isinstance(row, list):
            raise ParseError(path, f"coefficients[{p}] must be a list")
        if coeffs and len(row) != len(coeffs[0]):
            raise ParseError(path, f"coefficients[{p}] has {len(row)} entries, "
                                   f"coefficients[0] has {len(coeffs[0])}")
        coeffs.append(tuple(_scalar_in(x, path, f"coefficients[{p}][{i}]")
                            for i, x in enumerate(row)))
    if not coeffs:
        raise ParseError(path, "'coefficients' must be non-empty")
    if "degree" in data and not (_is_int(data["degree"]) and data["degree"] == len(coeffs) - 1):
        raise ParseError(path, f"series: 'degree' must be {len(coeffs) - 1}, "
                               f"one less than the number of coefficients")
    return SeriesCoefficients(tuple(coeffs))


def _value_out(v):
    """A Fraction as its string, a series by series_to_dict, a tuple as a
    list, any other dataclass as an object of its fields that are not
    None; ints and strings as they are."""
    if isinstance(v, Fraction):
        return format_scalar(v)
    if isinstance(v, SeriesCoefficients):
        return series_to_dict(v)
    if isinstance(v, tuple):
        return [_value_out(x) for x in v]
    if dataclasses.is_dataclass(v):
        fields = ((f.name, getattr(v, f.name)) for f in dataclasses.fields(v))
        return {name: _value_out(x) for name, x in fields if x is not None}
    return v


def certificate_to_dict(cert: certify.Certificate) -> dict:
    if not isinstance(cert, certify.Certificate):
        raise TypeError(f"unknown certificate {cert!r}")
    return {"kind": cert.kind, **_value_out(cert)}


def report_to_dict(report) -> dict:
    out = {
        "verdict": report.verdict,
        "certificate": (
            certificate_to_dict(report.certificate) if report.certificate else None
        ),
        "depth": report.depth_reached,
        "notes": list(report.notes),
    }
    flexion = getattr(report, "flexion", None)
    if flexion is not None:
        out["flexion"] = _value_out(flexion)
    pinned = getattr(report, "pinned", None)
    if pinned is not None:
        out["pins"] = _pins_out(pinned.pins)
    return out


def dumps(data: dict) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"
