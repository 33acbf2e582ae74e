"""Byte-identity corpus: seeded in-process CLI runs, each hashed.

Every run's exit code, stdout and stderr are hashed together and compared
with the digest recorded in ``cli_corpus.json``, so a failure names the
runs whose bytes moved.  To record the digests of the current code, run
``PYTHONPATH=src python tests/test_cli_corpus.py``.
"""

import contextlib
import hashlib
import io
import json
import os
from math import pi

import numpy as np

from epower.cli import main

DIGESTS = os.path.join(os.path.dirname(__file__), "cli_corpus.json")


def _f(v):
    return repr(float(v))


def corpus():
    """The argv lists of the corpus, in a fixed order."""
    rng = np.random.default_rng(7)
    runs = []

    # chamber points pi/4 >= x >= y = z >= 0, with the edges y = 0, y = x
    # and x = pi/4 among them
    points = [(pi / 4, pi / 4), (pi / 4, 0.0), (0.3, 0.0), (0.5, 0.5), (0.0, 0.0)]
    for _ in range(55):
        x = rng.uniform(0.0, pi / 4)
        points.append((x, rng.uniform(0.0, x)))
    for x, y in points:
        xyz = ["compute", "--xyz", _f(x), _f(y), _f(y)]
        runs += [xyz, xyz + ["--json"]]

    for i, v in enumerate(rng.uniform(0.0, pi / 4, 40)):
        fmt = ["--json"] if i % 2 else []
        runs.append(["compute", "--example1", _f(v)] + fmt)
        runs.append(["compute", "--example2", _f(v)] + fmt)

    # per n: two spread lists and two clustered ones
    for n in range(2, 13):
        for k in range(4):
            width = 2 * pi if k < 2 else 0.8
            phases = ",".join(_f(t) for t in rng.uniform(0.0, width, n))
            for seed in ("0", "3"):
                fmt = ["--json"] if (k + int(seed)) % 2 else []
                runs.append(["compute", "--phases", phases, "--seed", seed] + fmt)

    for n in (3, 4, 5):
        for k in range(2):
            phases = ",".join(_f(t) for t in rng.uniform(0.0, 2 * pi, n))
            for seed in ("0", "3"):
                fmt = ["--json"] if k else []
                runs.append(["compute", "--phases", phases, "--verify",
                             "--seed", seed] + fmt)
    runs.append(["compute", "--xyz", "0.6", "0.3", "0.3", "--verify", "--json"])
    runs.append(["compute", "--phases", "0,1.3", "--verify", "--json"])
    runs.append(["compute", "--phases", "-1,2"])
    runs.append(["compute", "--phases=-0.5,1,2", "--json"])
    runs.append(["compute", "--phases", "0,90,180", "--deg", "--json"])

    runs.append(["scan", "line", "--x", "0.6", "--y", "0.3", "--n", "41"])
    runs.append(["scan", "line", "--x", _f(pi / 4), "--y", "0", "--n", "17"])
    runs.append(["scan", "f1", "--grid", "31"])
    runs.append(["scan", "f2", "--grid", "31"])
    runs.append(["verify", "--samples", "10", "--json"])

    # exit 2: domain and usage errors
    runs += [
        ["compute", "--xyz", "nan", "0.3", "0.3"],
        ["compute", "--example1", "nan"],
        ["compute", "--example2", "inf", "--json"],
        ["compute", "--phases", "0,nan"],
        ["compute", "--xyz", "0.2", "0.3", "0.3"],
        ["compute", "--xyz", "0.9", "0.3", "0.3", "--json"],
        ["compute", "--xyz", "0.3", "0.2", "0.1"],
        ["compute", "--xyz", "0.6", "0.3", "0.2", "--verify"],
        ["compute", "--phases", "1e308,-1e308"],
        ["compute", "--phases", "1e308,-1e308,0,1", "--verify"],
        ["compute", "--phases", "0,"],
        ["compute", "--phases", "0,abc", "--json"],
        ["compute", "--phases", "--json"],
        ["compute", "--phases", "0,1", "--seed", "-1"],
        ["compute"],
        ["compute", "--xyz", "0.1", "0.1"],
        ["scan", "line", "--x", "0.6", "--y", "0.3", "--n", "1"],
        ["scan", "f1", "--grid", "2"],
        ["scan", "f2", "--grid", "2"],
        ["scan", "f1", "--grid", str(10**20)],
        ["verify", "--samples", "0"],
        [],
    ]
    return runs


def digest(argv):
    """SHA-256 of the exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    blob = f"{code}\0{out.getvalue()}\0{err.getvalue()}"
    return hashlib.sha256(blob.encode()).hexdigest()


def test_cli_output_matches_recorded_corpus(monkeypatch):
    # argparse wraps its usage text to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("EPOWER_SEED", raising=False)
    with open(DIGESTS) as fh:
        recorded = json.load(fh)
    runs = corpus()
    labels = [" ".join(argv) for argv in runs]
    assert labels == list(recorded), "the corpus differs from the recorded run list"
    moved = [label for label, argv in zip(labels, runs) if digest(argv) != recorded[label]]
    assert not moved, f"{len(moved)} of {len(runs)} runs moved:\n" + "\n".join(moved)


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    os.environ.pop("EPOWER_SEED", None)
    runs = corpus()
    table = {" ".join(argv): digest(argv) for argv in runs}
    assert len(table) == len(runs), "two runs share a label"
    with open(DIGESTS, "w") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")
    print(f"recorded {len(table)} runs in {DIGESTS}")
