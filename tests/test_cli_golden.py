"""The CLI's stdout, stderr and exit code, byte for byte, against stored
copies in tests/data/golden/.

Each case runs the command line in a fresh interpreter on this checkout's
``src``, so warnings and anything else the process writes count too.  The
stored copies are rewritten with ``python tests/test_cli_golden.py``, which
prints the name of each case whose record changed and each stdout line that
moved, as old -> new; a change that alters them must say why.  For an
``analytic`` case it also prints each moved var, es_n or pelve_n value's
relative distance to perfbench/references.json, before -> after.
"""

import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"
REFERENCES = SRC.parent / "perfbench" / "references.json"

# "{returns_600}" stands for tests/data/returns_600.csv and "{returns_60}"
# for its header plus first 60 rows, made afresh in a temporary directory.
_ANALYTIC = [
    ("normal:0,1", 3), ("gpd:0.5,1", 3), ("excessgpd:1,0.3,1,0", 3),
    ("uniform:0,1", 4), ("exp:1", 3), ("normal:0,1", 2), ("pareto:1,3", 2),
    ("gpd:0.3,1", 2), ("excessgpd:1,0.3,1,0.4", 3),
]
CASES = {
    **{
        f"analytic-{dist.replace(':', '-').replace(',', '_')}-n{n}":
            ["analytic", "--dist", dist, "--order", str(n), "--epsilon", "0.05"]
        for dist, n in _ANALYTIC
    },
    "analytic-json-closed": ["--format", "json", "analytic", "--dist", "normal:0,1",
                             "--order", "2"],
    "analytic-json-quadrature": ["--format", "json", "analytic", "--dist", "gpd:0.5,1",
                                 "--order", "3"],
    "analytic-infinite": ["analytic", "--dist", "uniform:0,1", "--order", "2",
                          "--epsilon", "0.5"],
    "analytic-json-infinite-closed": ["--format", "json", "analytic", "--dist", "uniform:0,1",
                                      "--order", "2", "--epsilon", "0.5"],
    "analytic-overflow": ["analytic", "--dist", "pareto:1,0.003"],
    "analytic-bad-arity": ["analytic", "--dist", "excessgpd:1,0.3,1"],
    "analytic-bad-family": ["analytic", "--dist", "lognormal:0,1"],
    "empirical-n3": ["empirical", "--input", "{returns_600}", "--kind", "returns",
                     "--order", "3"],
    "empirical-json-n2": ["--format", "json", "empirical", "--input", "{returns_600}",
                          "--kind", "returns", "--order", "2", "--negate"],
    "empirical-json-infinite": ["--format", "json", "empirical", "--input", "{returns_600}",
                                "--kind", "returns", "--order", "3"],
    "rolling-csv": ["rolling", "--input", "{returns_60}", "--kind", "returns",
                    "--window", "20", "--orders", "1,2,3"],
    "rolling-json": ["--format", "json", "rolling", "--input", "{returns_60}",
                     "--kind", "returns", "--window", "20", "--orders", "1,2,3"],
    "rolling-600": ["rolling", "--input", "{returns_600}", "--kind", "returns",
                    "--window", "100", "--orders", "1,2"],
    "rolling-600-json": ["--format", "json", "rolling", "--input", "{returns_600}",
                         "--kind", "returns", "--window", "100", "--orders", "1,2"],
    "rolling-degenerate": ["rolling", "--input", "{returns_60}", "--kind", "returns",
                           "--window", "10"],
    "simulate-normal": ["simulate", "--dist", "normal:0,1", "--replicates", "20",
                        "--length", "400", "--seed", "3", "--bins", "5"],
    "simulate-excessgpd": ["simulate", "--dist", "excessgpd:1,0.3,1,0.9", "--replicates",
                           "30", "--length", "700", "--seed", "5"],
    "simulate-normal-long-rows": ["simulate", "--dist", "normal:0,1", "--replicates", "3",
                                  "--length", "70000", "--seed", "9"],
    "simulate-pareto-failures": ["simulate", "--dist", "pareto:1,0.01", "--replicates",
                                 "5", "--length", "200", "--seed", "11"],
    "simulate-json-failures": ["--format", "json", "simulate", "--dist", "pareto:1,0.01",
                               "--replicates", "5", "--length", "200", "--seed", "11"],
}


def _inputs(tmp: Path) -> dict:
    lines = (DATA / "returns_600.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    short = tmp / "returns_60.csv"
    short.write_text("".join(lines[:61]), encoding="utf-8")
    return {"returns_600": str(DATA / "returns_600.csv"), "returns_60": str(short)}


def _run(argv: list, inputs: dict) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run(
        [sys.executable, "-c", "from pelve.cli import entrypoint; entrypoint()",
         *(arg.format(**inputs) for arg in argv)],
        capture_output=True, env=env, check=False,
    )
    return {
        "exit": proc.returncode,
        "stdout": proc.stdout.decode("utf-8"),
        "stderr": proc.stderr.decode("utf-8"),
    }


def _values(argv: list, stdout: str) -> dict:
    # {(metric, level): value} of an analytic case's CSV or JSON stdout; an
    # infinite multiplier is inf.
    if argv[:2] == ["--format", "json"]:
        rows = [(r["metric"], r["level"], r["value"]) for r in json.loads(stdout)]
    else:
        rows = [line.split(",") for line in stdout.splitlines()[1:]]
    return {(m, float(level)): float("inf" if v is None else v) for m, level, v in rows}


def _reference(argv: list, metric: str, level: float):
    # The 35-digit reference of one analytic value as a string, or None.
    # A pelve_n line of an excess model with F(u) > 0 takes the F(u) = 0
    # case's: the multiplier does not depend on F(u).
    dist, order = argv[argv.index("--dist") + 1], argv[argv.index("--order") + 1]
    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))
    case = refs.get(f"{dist}@{order}")
    if case is None and metric.startswith("pelve") and dist.startswith("excessgpd:"):
        case = refs.get(f"{dist.rsplit(',', 1)[0]},0@{order}")
    if case is None:
        return None
    eps = float(case["epsilon"])
    if metric == "var":
        return case["var"] if level == 1.0 - eps else None
    if metric.startswith("pelve"):
        return case["pelve"] if level == eps else None
    return case["es"].get(repr(level))


def _distances(argv: list, before: str, after: str) -> list:
    # "metric at level: old -> new" relative distances to the references,
    # for each value of an analytic case that moved.
    if "analytic" not in argv or not before or not after:
        return []
    old, new = _values(argv, before), _values(argv, after)
    lines = []
    for (metric, level), value in new.items():
        ref = _reference(argv, metric, level)
        if old.get((metric, level)) == value or ref is None:
            continue
        ref = Decimal(ref)
        dist = [f"{float(abs(Decimal(v) - ref) / abs(ref)):.2g}"
                for v in (old[metric, level], value)]
        lines.append(f"{metric} at {level}: {dist[0]} -> {dist[1]}")
    return lines


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    expected = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    assert expected["argv"] == CASES[name]
    got = _run(CASES[name], _inputs(tmp_path))
    assert got["exit"] == expected["exit"]
    assert got["stderr"] == expected["stderr"]
    assert got["stdout"] == expected["stdout"]


if __name__ == "__main__":
    import itertools
    import tempfile

    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        inputs = _inputs(Path(tmp))
        for name, argv in CASES.items():
            path = GOLDEN / f"{name}.json"
            text = json.dumps({"argv": argv, **_run(argv, inputs)}, indent=1) + "\n"
            old = path.read_text(encoding="utf-8") if path.exists() else None
            if old != text:
                print(f"changed: {name}")
                before = json.loads(old)["stdout"] if old else ""
                after = json.loads(text)["stdout"]
                for a, b in itertools.zip_longest(
                        before.splitlines(), after.splitlines(), fillvalue=""):
                    if a != b:
                        print(f"  {a} -> {b}")
                for line in _distances(argv, before, after):
                    print(f"  distance to {REFERENCES.name}: {line}")
                path.write_text(text, encoding="utf-8")
