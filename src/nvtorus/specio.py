"""Reading and writing morphism spec files.

A spec file is JSON of the form::

    {
      "k": 2,
      "n": 2,
      "images": [
        {"phi": [[1, 0], [0, 0]], "sigma": "(1 2)"},
        {"phi": [[0, 0], [0, 0]], "sigma": "id"}
      ]
    }

``images[j]`` describes the value on the (j+1)-th standard basis vector:
``phi`` lists the n translation vectors (length k each) and ``sigma`` is the
permutation in cycle notation.  `dumps_morphism` emits a canonical form, so
parse followed by print is byte-identical on canonical files.

Exact rationals cross the boundary as ``"p/q"`` strings (plain ``"p"`` when
the denominator is one).
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Any

from .errors import NonCommutingImages, SpecFormatError
from .morphisms import TorusMorphism
from .wreath import Permutation, WreathElement


def fraction_to_str(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def fraction_from_str(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecFormatError(f"cannot parse rational {text!r}: {exc}") from None


def morphism_to_dict(psi: TorusMorphism) -> dict[str, Any]:
    return {
        "k": psi.k,
        "n": psi.n,
        "images": [
            {
                "phi": [list(v) for v in im.trans],
                "sigma": im.perm.cycle_string(),
            }
            for im in psi.images
        ],
    }


def _expect_int(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise SpecFormatError(f"{where}: expected an integer, got {value!r}")
    return value


def morphism_from_dict(data: Any) -> TorusMorphism:
    if not isinstance(data, dict):
        raise SpecFormatError("top level: expected a JSON object")
    for key in ("k", "n", "images"):
        if key not in data:
            raise SpecFormatError(f"top level: missing field {key!r}")
    k = _expect_int(data["k"], "k")
    n = _expect_int(data["n"], "n")
    if k < 1 or n < 1:
        raise SpecFormatError("k and n must be positive")
    images_data = data["images"]
    if not isinstance(images_data, list) or len(images_data) != k:
        raise SpecFormatError(f"images: expected a list of {k} records")
    images = []
    for j, record in enumerate(images_data):
        where = f"images[{j}]"
        if not isinstance(record, dict):
            raise SpecFormatError(f"{where}: expected an object")
        phi = record.get("phi")
        sigma = record.get("sigma")
        if not isinstance(phi, list) or len(phi) != n:
            raise SpecFormatError(f"{where}.phi: expected {n} vectors")
        trans = []
        for i, vec in enumerate(phi):
            if not isinstance(vec, list) or len(vec) != k:
                raise SpecFormatError(
                    f"{where}.phi[{i}]: expected {k} integers, got {vec!r}"
                )
            trans.append(tuple(_expect_int(a, f"{where}.phi[{i}]") for a in vec))
        if not isinstance(sigma, str):
            raise SpecFormatError(f"{where}.sigma: expected a cycle-notation string")
        try:
            perm = Permutation.parse(sigma, n)
        except ValueError as exc:
            raise SpecFormatError(f"{where}.sigma: {exc}") from None
        images.append(WreathElement(k, n, tuple(trans), perm))
    try:
        return TorusMorphism(k, n, tuple(images))
    except NonCommutingImages as exc:
        raise SpecFormatError(f"images: {exc}") from None


def dumps_morphism(psi: TorusMorphism) -> str:
    """Canonical serialization; stable under parse/print round trips.

    One line per basis image keeps the files hand-writable and diffable.
    """
    records = []
    for im in psi.images:
        phi = json.dumps([list(v) for v in im.trans])
        sigma = json.dumps(im.perm.cycle_string())
        records.append(f'    {{"phi": {phi}, "sigma": {sigma}}}')
    body = ",\n".join(records)
    return (
        "{\n"
        f'  "k": {psi.k},\n'
        f'  "n": {psi.n},\n'
        '  "images": [\n'
        f"{body}\n"
        "  ]\n"
        "}\n"
    )


def loads_morphism(text: str) -> TorusMorphism:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    return morphism_from_dict(data)


def load_morphism(path: str | Path) -> TorusMorphism:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SpecFormatError(f"cannot read {path}: {exc}") from None
    return loads_morphism(text)


def save_morphism(psi: TorusMorphism, path: str | Path) -> None:
    Path(path).write_text(dumps_morphism(psi))
