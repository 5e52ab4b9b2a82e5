"""The rows of ``screwalg simulate``, pinned to the byte.

``cli._simulate_row`` renders a step's five diagnostics with C-level ``%``
calls.  Its oracle here is the composed form it replaced: each value rounded
by ``cli._round_sig`` and written by ``repr`` in JSON, or written by
``cli._fmt`` and padded to 13 columns in text, after a check of each value in
``StepDiagnostics`` field order.  The run itself builds no value or record
per step: the rows and the final state come from the kernel's floats.
"""

import io
import json
import math
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import _regimes, bit_examples, refusal, values_built
from screwalg import INTEGRATORS, BodyState, Mat3, NonFiniteError, Point, StepDiagnostics, Vec3, cli

SCENES = Path(__file__).resolve().parent / "scenes"

_ORACLE_JSON_ROW = (
    "    {{\n"
    + ",\n".join(f'      "{key}": {{!r}}' for key in StepDiagnostics.__slots__)
    + "\n    }}"
)


def _oracle_row(n: int, values: tuple, machine: bool) -> str:
    for key, x in zip(StepDiagnostics.__slots__, values):
        if not math.isfinite(x):
            raise NonFiniteError(f"non-finite result at $.diagnostics[{n}].{key}")
    if machine:
        return _ORACLE_JSON_ROW.format(*(cli._round_sig(x, cli.MACHINE_DIGITS) for x in values))
    t, ke, pw, wdw, res = map(cli._fmt, values)
    return f"{n:<7d} {t:<13} {ke:<13} {pw:<13} {wdw:<13} {res}"


# Each value from its own regime, so that a row mixes magnitudes and finite
# values whose sum overflows.
_value = _regimes.flatmap(lambda floats: floats)
_rows = st.tuples(*[_value] * len(StepDiagnostics.__slots__))
_steps = st.integers(0, 10**7)


@pytest.mark.parametrize("machine", [False, True], ids=["text", "json"])
@example(n=0, values=(5e-324, -5e-324, 5e-324, 0.0, -5e-324))
@example(n=1, values=(-0.0, 0.0, -0.0, -0.0, 0.0))
@example(n=99, values=(1e12, -1e12, 999999999999.5, 1e12, 1e12 - 1.0))
@example(n=9999, values=(1e15, -1e15, 1e15 + 1.0, 999999.5, 1e15))
@example(n=10**6, values=(1e16, -1e16, 1e16 + 2.0, 1e16, 9999999999999998.0))
@example(n=12, values=(9.99999999999995e-5, -9.99999999999995e-5, 1e-4, 9.999995e-5, 1e-5))
@example(n=7, values=(1.7976931348623157e308, -1.7976931348623157e308,
                      1.7976931348623157e308, 1.7976931348623157e308, 1e308))
@bit_examples
@given(n=_steps, values=_rows)
def test_a_row_is_the_composed_row_to_the_byte(machine, n, values):
    assert cli._simulate_row(n, values, machine) == _oracle_row(n, values, machine)


@pytest.mark.parametrize("machine", [False, True], ids=["text", "json"])
@bit_examples
@given(
    n=_steps,
    values=_rows,
    bad=st.lists(st.sampled_from([math.inf, -math.inf, math.nan]), min_size=5, max_size=5),
    where=st.sets(st.integers(0, 4), min_size=1),
)
def test_a_non_finite_row_names_its_first_bad_key(machine, n, values, bad, where):
    values = tuple(bad[i] if i in where else x for i, x in enumerate(values))
    key = StepDiagnostics.__slots__[min(where)]
    message = f"non-finite result at $.diagnostics[{n}].{key}"
    assert refusal(cli._simulate_row, n, values, machine) == message
    assert refusal(_oracle_row, n, values, machine) == message


def _simulate(tmp_path, scene: str, integrator: str, steps: int, mode: list) -> None:
    doc = json.loads((SCENES / scene).read_text())
    doc["sim"].update(integrator=integrator, steps=steps)
    path = tmp_path / f"{steps}.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    assert cli.main(["simulate", str(path), *mode], stdout=out, stderr=err) == 0, err.getvalue()


@pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("integrator", INTEGRATORS)
@pytest.mark.parametrize("scene", ["tumble_midpoint.json", "forced_euler.json"])
def test_simulate_builds_no_value_per_step(tmp_path, scene, integrator, mode):
    """Counted as the difference between runs of 2n and n steps; a first run
    caches the body's inverse inertia.  Building a state and its diagnostics
    for each step, as ``run`` does, costs 4 values and 2 records a step."""
    classes = (Vec3, Point, Mat3, BodyState, StepDiagnostics)
    n = 40
    counts = [
        values_built(_simulate, tmp_path, scene, integrator, steps, mode, classes=classes)
        for steps in (n, n, 2 * n)
    ]
    assert counts[2] - counts[1] == 0
