"""The golden CLI runs, whose outputs are committed under ``tests/golden/``.

Four small sweeps append to one output directory, ``plotdata`` writes the
``fig1``, ``fig2`` and ``fig3`` series of their CSV, and a short ``gradcheck``
runs; every command's stdout is kept too. ``tests/test_golden.py`` reruns them
through ``gibbsprep.cli.main`` and compares every output with the committed
one exactly, except for timing: the CSV's ``wall_ms`` column and each trace
record's ``wall_ms``.

A change meant to move outputs rewrites the committed files that moved
with::

    PYTHONPATH=src python tests/golden_runs.py

which prints each field that moved. List the moves, and why each one is
intended, with the change.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from itertools import zip_longest
from pathlib import Path

GOLDEN_DIR = Path(__file__).parent / "golden"

_XY3 = ["--model", "xy", "--n_data", "3", "--beta_inv_list", "1.0", "--restarts", "2"]
# (name, argv) in run order; every sweep appends to ``out/``.
SWEEPS = (
    ("vqe_ising", ["vqe-gibbs", "--model", "ising", "--n_data", "2", "--n_ancilla",
                   "1,2", "--beta_inv_list", "0.6,2.0", "--restarts", "2"]),
    ("vqe_xy_m3", ["vqe-gibbs", *_XY3, "--n_ancilla", "1", "--truncation", "3"]),
    ("qaoa_xy", ["qaoa-gibbs", *_XY3, "--layer_budget", "2"]),
    ("baseline_xy", ["baseline", *_XY3, "--layer_budget", "2"]),
)
PANELS = ("fig1", "fig2", "fig3")
GRADCHECK = ["gradcheck", "--seed", "1234", "--trials", "8"]

# Stands for the run's root directory in the stdout it prints.
ROOT_MARK = "<root>"
_ABSENT = "(absent)"


def _main(argv: list[str]) -> str:
    """The stdout of ``gibbsprep argv``, which must exit 0."""
    from gibbsprep.cli import main

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"gibbsprep {' '.join(argv)} exited {code}")
    return stdout.getvalue()


def run(root: Path) -> None:
    """Run every golden command, writing its outputs under ``root``."""
    out, stdout = root / "out", root / "stdout"
    stdout.mkdir(parents=True)
    commands = [(name, argv + ["--out", str(out)]) for name, argv in SWEEPS]
    commands += [
        (panel, ["plotdata", "--csv", str(out / "results.csv"), "--panel", panel,
                 "--out", str(root / panel)])
        for panel in PANELS
    ]
    commands.append(("gradcheck", GRADCHECK))
    for name, argv in commands:
        text = _main(argv).replace(str(root), ROOT_MARK)
        (stdout / f"{name}.txt").write_text(text)


def outputs(root: Path) -> dict[str, str]:
    """Every file under ``root``, by its path relative to ``root``."""
    return {
        path.relative_to(root).as_posix(): path.read_text()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _comparable(name: str, text: str):
    """A file's content as nested lists and dicts, without its timing fields."""
    if name.endswith(".json"):
        trace = json.loads(text)
        records = [
            {k: v for k, v in record.items() if k != "wall_ms"}
            for record in trace["records"]
        ]
        return {**trace, "records": records}
    lines = text.splitlines()
    if not name.endswith(".csv"):
        return lines
    columns = lines[1].split(",")
    rows = [dict(zip(columns, line.split(","))) for line in lines[2:]]
    for row in rows:
        row.pop("wall_ms", None)
    return {"header": lines[:2], "rows": rows}


def _moved(where: str, old, new) -> list[str]:
    """One line per leaf that differs between ``old`` and ``new``."""
    if isinstance(old, dict) and isinstance(new, dict):
        keys = list(old) + [k for k in new if k not in old]
        pairs = [(k, old.get(k, _ABSENT), new.get(k, _ABSENT)) for k in keys]
    elif isinstance(old, list) and isinstance(new, list):
        pairs = [
            (i, o, n) for i, (o, n) in enumerate(zip_longest(old, new, fillvalue=_ABSENT))
        ]
    else:
        # repr tells 1 from 1.0 and keeps nan equal to itself.
        same = type(old) is type(new) and repr(old) == repr(new)
        return [] if same else [f"{where}: {old!r} -> {new!r}"]
    return [line for k, o, n in pairs for line in _moved(f"{where}[{k!r}]", o, n)]


def _file_moved(name: str, old: str | None, new: str | None) -> list[str]:
    """The fields of one output file that moved; None stands for no file."""
    if old is None or new is None:
        return [f"{name}: {'new' if old is None else 'missing'} file"]
    return _moved(name, _comparable(name, old), _comparable(name, new))


def moved(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    """Every field of the ``actual`` outputs that differs from ``expected``."""
    names = sorted(expected.keys() | actual.keys())
    return [
        line
        for name in names
        for line in _file_moved(name, expected.get(name), actual.get(name))
    ]


def main() -> None:
    """Rewrite each committed file that moved, printing its moved fields.

    A file whose only change is timing is left as it is.
    """
    with tempfile.TemporaryDirectory() as tmp:
        run(Path(tmp))
        actual = outputs(Path(tmp))
    expected = outputs(GOLDEN_DIR) if GOLDEN_DIR.exists() else {}
    rewritten = 0
    for name in sorted(expected.keys() | actual.keys()):
        lines = _file_moved(name, expected.get(name), actual.get(name))
        if not lines:
            continue
        print("\n".join(lines))
        rewritten += 1
        path = GOLDEN_DIR / name
        if name not in actual:
            path.unlink()
            continue
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(actual[name])
    print(f"rewrote {rewritten} of {len(actual)} files under {GOLDEN_DIR}")


if __name__ == "__main__":
    main()
