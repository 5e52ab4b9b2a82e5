#!/usr/bin/env python3
"""Regenerate the golden CLI outputs under tests/goldens/.

Each golden is the byte-exact output of one subcommand on one fixture scene
from tests/scenes/: machine mode (``--json``) goldens are named
``<subcommand>_<scene>.json`` and text-mode goldens ``<subcommand>_<scene>.txt``.
Rerun this after any deliberate change to the output format, review the
diff, and commit the result; the acceptance suite and tests/test_cli.py
compare against these files byte for byte.  The case lists below are the
only list of goldens: tests/test_cli.py checks every file this writes, and
acceptance criterion 12 every ``.json`` one.
"""

import io
import sys
from pathlib import Path

from screwalg.cli import main

ROOT = Path(__file__).resolve().parent.parent
SCENES = ROOT / "tests" / "scenes"
GOLDENS = ROOT / "tests" / "goldens"

JSON_CASES = [
    ("reduce", "single_force"),
    ("reduce", "three_forces"),
    ("compose", "rotation_couple"),
    ("exp", "screw_motion"),
    ("log", "screw_motion"),
    ("reciprocal", "revolute_joint"),
    ("simulate", "forced_euler"),
    ("simulate", "tumble_midpoint"),
]

TEXT_CASES = [
    ("reduce", "three_forces"),
    ("compose", "rotation_couple"),
    ("exp", "screw_motion"),
    ("log", "screw_motion"),
    ("reciprocal", "revolute_joint"),
    ("simulate", "forced_euler"),
    ("log", "pure_translation"),
    ("compose", "zero_twist"),
    ("reduce", "couple"),
]


def render(command: str, scene_name: str, json_mode: bool) -> str:
    out = io.StringIO()
    argv = [command, str(SCENES / f"{scene_name}.json")] + (["--json"] if json_mode else [])
    code = main(argv, stdout=out)
    if code != 0:
        raise SystemExit(f"{command} on {scene_name} exited with {code}")
    return out.getvalue()


def regenerate() -> None:
    GOLDENS.mkdir(parents=True, exist_ok=True)
    for cases, json_mode, suffix in ((JSON_CASES, True, "json"), (TEXT_CASES, False, "txt")):
        for command, scene_name in cases:
            text = render(command, scene_name, json_mode)
            target = GOLDENS / f"{command}_{scene_name}.{suffix}"
            target.write_text(text, encoding="utf-8")
            print(f"wrote {target.relative_to(ROOT)} ({len(text)} bytes)")


if __name__ == "__main__":
    sys.exit(regenerate())
